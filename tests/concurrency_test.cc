// Lock-contention stress tests for the annotated concurrent facades
// (ctest label: concurrency; run under TSan by tools/ci/run_matrix.sh).
//
//   ConcurrencyRegistry  N writer threads hammer shared + per-thread
//                        counters and a histogram while a snapshotter
//                        loops snapshot()/export_prometheus(); totals must
//                        be exact after join.
//   ConcurrencyLive      M ingest threads feed whole flows into a
//                        SharedLiveAnalyzer under a deliberately small
//                        memory budget (forcing the eviction paths to run
//                        under contention) while a reader polls stats().
//   ConcurrencyFleet     Shard threads ingest records concurrently into a
//                        FleetAggregator; the result must be identical to
//                        a single-threaded WindowAggregator over the same
//                        records (the merge-determinism contract survives
//                        locking).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/window.h"
#include "tapo/live.h"
#include "telemetry/registry.h"
#include "util/memory_budget.h"
#include "workload/experiment.h"

#include "support/sync.h"

namespace tapo {
namespace {

TEST(ConcurrencyRegistry, WritersRaceSnapshotters) {
  auto& reg = telemetry::Registry::instance();
  reg.reset();
  constexpr int kWriters = 4;
  constexpr int kIters = 5000;
  test::Latch start(1);
  // Writers pause halfway until the first snapshot is in, so at least one
  // snapshot always overlaps the writes, however the threads get scheduled.
  test::Latch first_snapshot(1);
  std::atomic<bool> done{false};
  std::size_t snapshots_taken = 0;
  std::thread snapshotter([&] {
    start.wait();
    do {
      const auto snap = reg.snapshot();
      std::ostringstream prom;
      reg.export_prometheus(prom);
      EXPECT_GE(prom.str().size(), snap.empty() ? 0u : 1u);
      ++snapshots_taken;
      first_snapshot.count_down();
    } while (!done.load());
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&reg, &start, &first_snapshot, t] {
      start.wait();
      auto& mine = reg.counter("tapo_test_conc_writer_total",
                               {{"writer", std::to_string(t)}});
      auto& shared = reg.counter("tapo_test_conc_shared_total");
      auto& hist = reg.histogram("tapo_test_conc_us");
      for (int i = 0; i < kIters; ++i) {
        if (i == kIters / 2) first_snapshot.wait();
        mine.add(1);
        shared.add(1);
        hist.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  start.count_down();
  for (auto& th : writers) th.join();
  done.store(true);
  snapshotter.join();

  EXPECT_GE(snapshots_taken, 1u);
  EXPECT_EQ(reg.counter("tapo_test_conc_shared_total").value(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(reg.counter("tapo_test_conc_writer_total",
                          {{"writer", std::to_string(t)}})
                  .value(),
              static_cast<std::uint64_t>(kIters));
  }
  EXPECT_EQ(reg.histogram("tapo_test_conc_us").count(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  reg.reset();
}

/// Per-flow packet vectors from the simulated workload (each flow's
/// private simulator starts at t = 0; keys are distinct per flow).
std::vector<std::vector<net::CapturedPacket>> per_flow_packets(
    std::size_t flows, std::uint64_t seed) {
  std::vector<std::vector<net::CapturedPacket>> out;
  auto profile = workload::web_search_profile();
  Rng master(seed);
  for (std::size_t i = 0; i < flows; ++i) {
    Rng flow_rng = master.split();
    const auto sc = workload::draw_scenario(profile, flow_rng, i + 1);
    const auto outcome =
        workload::run_flow(sc, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    std::vector<net::CapturedPacket> pkts;
    for (const auto& pkt : outcome.trace->packets()) pkts.push_back(pkt);
    out.push_back(std::move(pkts));
  }
  return out;
}

TEST(ConcurrencyLive, ParallelIngestUnderSmallBudget) {
  constexpr std::size_t kFlows = 12;
  constexpr std::size_t kThreads = 4;
  const auto flows = per_flow_packets(kFlows, 33);
  std::size_t total_packets = 0;
  for (const auto& f : flows) total_packets += f.size();

  // The facade must take only the limit from an external budget, never
  // share the (unguarded) ledger itself.
  util::MemoryBudget external(48 * 1024);
  analysis::LiveConfig cfg;
  cfg.mem_budget = &external;

  // The callback fires under the facade's lock, so a plain counter is safe.
  std::size_t finalized_callbacks = 0;
  analysis::SharedLiveAnalyzer shared(
      cfg, [&](const analysis::FlowAnalysis&) { ++finalized_callbacks; });

  test::Latch start(1);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    start.wait();
    while (!done.load()) {
      const auto s = shared.stats();
      EXPECT_LE(s.flow_bytes, shared.budget_high_water());
      (void)shared.budget_resident();
    }
  });
  std::vector<std::thread> ingest;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ingest.emplace_back([&, t] {
      start.wait();
      for (std::size_t i = t; i < kFlows; i += kThreads) {
        for (const auto& pkt : flows[i]) shared.add_packet(pkt);
      }
    });
  }
  start.count_down();
  for (auto& th : ingest) th.join();
  done.store(true);
  reader.join();
  shared.flush();

  const auto s = shared.stats();
  EXPECT_EQ(s.packets, total_packets);
  EXPECT_EQ(finalized_callbacks, s.flows_finalized);
  // Every distinct flow is finalized at least once; budget evictions and
  // truncations can split a flow into several analyses but never lose it.
  EXPECT_GE(s.flows_finalized, kFlows);
  EXPECT_GT(shared.budget_high_water(), 0u);
  // 12 buffered flows against a 48 KiB cap: the eviction machinery must
  // have actually run under contention.
  EXPECT_GE(s.budget_evictions + s.truncated_flows + s.flows_evicted, 1u);
  // The external budget was template only — the facade never charges it.
  EXPECT_EQ(external.resident(), 0u);
  EXPECT_EQ(external.high_water(), 0u);
}

std::vector<fleet::FlowRecord> shard_records(std::uint32_t shard,
                                             std::size_t n) {
  std::vector<fleet::FlowRecord> out;
  for (std::size_t i = 0; i < n; ++i) {
    fleet::FlowRecord r;
    r.shard_id = shard;
    r.service = static_cast<std::uint8_t>(i % 3);
    r.flow_index = i;
    r.start_us = static_cast<std::int64_t>((i % 7) * 20'000'000);
    r.transmission_us = 2'000 + static_cast<std::int64_t>(i);
    r.stalled_us = (i % 2) != 0 ? 700 : 0;
    r.completed = (i % 5) != 0;
    r.unique_bytes = 1'000 + i;
    r.data_segments = 10 + i % 4;
    r.retrans_segments = i % 3;
    if ((i % 2) != 0) {
      fleet::StallEntry st;
      st.cause = static_cast<std::uint8_t>(i % 4);
      st.duration_us = 700;
      r.stalls.push_back(st);
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(ConcurrencyFleet, ParallelIngestMatchesSequentialAggregation) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::size_t kPerShard = 300;
  fleet::FleetConfig cfg;
  cfg.window = Duration::seconds(10);

  fleet::WindowAggregator reference(cfg);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (const auto& r : shard_records(s, kPerShard)) reference.ingest(r);
  }

  fleet::FleetAggregator agg(cfg);
  test::Latch start(1);
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    start.wait();
    while (!done.load()) {
      const auto snap = agg.snapshot();
      EXPECT_LE(snap.records, kShards * kPerShard);
      EXPECT_LE(agg.records(), kShards * kPerShard);
    }
  });
  std::vector<std::thread> shards;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shards.emplace_back([&agg, &start, s] {
      start.wait();
      for (const auto& r : shard_records(s, kPerShard)) agg.ingest(r);
    });
  }
  start.count_down();
  for (auto& th : shards) th.join();
  done.store(true);
  publisher.join();

  EXPECT_EQ(agg.records(), kShards * kPerShard);
  // Locking must not perturb the merge-determinism contract: any
  // interleaving of concurrent ingest yields the sequential snapshot.
  EXPECT_EQ(agg.snapshot(), reference.snapshot());
}

}  // namespace
}  // namespace tapo

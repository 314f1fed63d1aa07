#pragma once
// Hand-built flows for the analyzer tests. A FlowBuilder appends
// CapturedPackets to its own PacketTrace and analyzes them through a
// FlowView whose handshake meta it sets directly, so the tests drive the
// same zero-copy path as production with ground truth known by
// construction. Times are absolute seconds.
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "tapo/analyzer.h"

namespace tapo::test {

constexpr std::uint32_t kMss = 1000;
constexpr std::uint32_t kServerIsn = 5000;
constexpr std::uint32_t kClientIsn = 1000;
constexpr std::uint32_t kBigWindow = 63000;

struct FlowBuilder {
  /// Meta of the flow under test; a test may edit it before analyze()
  /// (e.g. clear saw_syn/saw_synack to model a capture without handshake).
  analysis::FlowView flow;
  net::PacketTrace trace;

  FlowBuilder() {
    flow.server_to_client = {0xc0a80101, 0x0a000001, 80, 40001};
    flow.saw_syn = true;
    flow.saw_synack = true;
    flow.server_isn = net::Seq32{kServerIsn};
    flow.client_isn = net::Seq32{kClientIsn};
    flow.mss = kMss;
    flow.sack_permitted = true;
    flow.client_wscale = 0;
    flow.init_rwnd_bytes = kBigWindow;
  }

  static net::Seq32 seg(int i) {
    return net::Seq32{kServerIsn + 1 + static_cast<std::uint32_t>(i) * kMss};
  }

  /// Appends a packet at t in the given direction. The reference is valid
  /// until the next add.
  net::CapturedPacket& add(double t, bool from_server) {
    net::CapturedPacket& p = trace.append();
    p.timestamp = TimePoint::from_us(static_cast<std::int64_t>(t * 1e6));
    p.key = from_server ? flow.server_to_client
                        : flow.server_to_client.reversed();
    p.tcp.window = kBigWindow;
    return p;
  }

  /// Standard handshake: SYN at t, SYN-ACK at t, client ACK at t+rtt.
  /// Seeds the mimic's SRTT with `rtt`.
  void handshake(double t = 0.0, double rtt = 0.1) {
    auto& syn = add(t, false);
    syn.tcp.seq = net::Seq32{kClientIsn};
    syn.tcp.flags.syn = true;
    auto& synack = add(t, true);
    synack.tcp.seq = net::Seq32{kServerIsn};
    synack.tcp.ack = net::Seq32{kClientIsn + 1};
    synack.tcp.flags.syn = true;
    synack.tcp.flags.ack = true;
    auto& ack = add(t + rtt, false);
    ack.tcp.seq = net::Seq32{kClientIsn + 1};
    ack.tcp.ack = net::Seq32{kServerIsn + 1};
    ack.tcp.flags.ack = true;
  }

  net::Seq32 next_req_seq = net::Seq32{kClientIsn + 1};

  /// Client request of `len` bytes arriving at t. Requests follow one
  /// another in sequence space unless `req_seq` pins the sequence number.
  void request(double t, std::uint32_t len = 200, std::uint32_t req_seq = 0) {
    auto& p = add(t, false);
    p.tcp.seq = req_seq ? net::Seq32{req_seq} : next_req_seq;
    next_req_seq = p.tcp.seq + len;
    p.tcp.flags.ack = true;
    p.payload_len = len;
  }

  /// Server data segment i at t (new transmission or retransmission —
  /// the analyzer decides from sequence numbers).
  void data(double t, int i, std::uint32_t len = kMss) {
    auto& p = add(t, true);
    p.tcp.seq = seg(i);
    p.tcp.flags.ack = true;
    p.payload_len = len;
  }

  /// Server FIN at t, sequenced at segment i.
  void fin(double t, int i) {
    auto& p = add(t, true);
    p.tcp.seq = seg(i);
    p.tcp.flags.ack = true;
    p.tcp.flags.fin = true;
  }

  /// Client ACK at t, cumulative up to segment `upto` (exclusive), with
  /// optional SACK blocks given as segment index ranges.
  void ack(double t, int upto,
           std::vector<std::pair<int, int>> sack_segs = {},
           std::uint32_t window = kBigWindow) {
    auto& p = add(t, false);
    p.tcp.seq = net::Seq32{kClientIsn + 1};
    p.tcp.ack = seg(upto);
    p.tcp.flags.ack = true;
    p.tcp.window = window;
    for (const auto& [s, e] : sack_segs) {
      p.tcp.sack_blocks.push_back({seg(s), seg(e)});
    }
  }

  /// Client ACK at t carrying the raw cumulative `ackno`, sent after a
  /// 200-byte request (client seq kClientIsn + 201).
  net::CapturedPacket& ack_to(double t, net::Seq32 ackno,
                              std::uint32_t window = kBigWindow) {
    auto& p = add(t, false);
    p.tcp.seq = net::Seq32{kClientIsn + 201};
    p.tcp.ack = ackno;
    p.tcp.flags.ack = true;
    p.tcp.window = window;
    return p;
  }

  /// ack_to(t, seg(upto)) whose first SACK block is a DSACK reporting
  /// segment `dup` as received twice.
  void dsack(double t, int upto, int dup) {
    ack_to(t, seg(upto)).tcp.sack_blocks.push_back({seg(dup), seg(dup + 1)});
  }

  analysis::FlowAnalysis analyze(analysis::AnalyzerConfig cfg = {}) const {
    std::vector<std::uint32_t> indices(trace.size());
    std::iota(indices.begin(), indices.end(), 0u);
    analysis::FlowView view = flow;
    view.trace = &trace;
    view.packet_indices = indices;
    return analysis::Analyzer(cfg).analyze_flow(view);
  }
};

}  // namespace tapo::test

#include "tapo/flow.h"

#include <span>
#include <unordered_map>

namespace tapo::analysis {
namespace {

// Folds one packet's header facts into the flow meta. Kept deliberately
// orientation-only: the caller decides from_server.
void fold_meta(FlowMeta& m, const net::CapturedPacket& cp, bool from_server) {
  const net::TcpHeader& tcp = cp.tcp;
  if (tcp.flags.syn && !tcp.flags.ack && !from_server) {
    m.saw_syn = true;
    m.client_isn = tcp.seq;
    m.syn_window = tcp.window;
    if (tcp.mss) m.mss = *tcp.mss;
    m.sack_permitted = tcp.sack_permitted;
    m.client_wscale = tcp.window_scale.value_or(0);
  } else if (tcp.flags.syn && tcp.flags.ack && from_server) {
    m.saw_synack = true;
    m.server_isn = tcp.seq;
  } else if (!from_server && m.init_rwnd_bytes == 0 && m.saw_synack &&
             tcp.flags.ack && !tcp.flags.syn) {
    m.init_rwnd_bytes = static_cast<std::uint32_t>(tcp.window)
                        << m.client_wscale;
  }
  if (tcp.flags.fin) m.saw_fin = true;
  if (from_server) {
    m.server_payload_bytes += cp.payload_len;
    if (cp.payload_len > 0 && !m.saw_server_data) {
      m.saw_server_data = true;
      m.first_server_data_seq = tcp.seq;
    }
  } else {
    m.client_payload_bytes += cp.payload_len;
  }
}

/// Per-flow demux tallies; packet membership lives in demux_flow_views'
/// slot_of and is scattered into the FlowViewSet pool.
struct Accum {
  net::FlowKey canonical;
  std::uint32_t count = 0;
  std::uint32_t offset = 0;  // into the index pool (prefix sum of counts)
  // Per-endpoint bookkeeping keyed by "is packet's src == canonical.src".
  std::uint64_t payload_a = 0, payload_b = 0;
  bool synack_from_a = false, synack_from_b = false;
};

}  // namespace

DemuxOptions& DemuxOptions::with_server_port(std::uint16_t port) {
  server_port = port;
  return *this;
}

FlowViewSet demux_flow_views(const net::PacketTrace& trace,
                             const DemuxOptions& opts) {
  // Pass 1: hash each packet's canonical key to a flow slot (first-seen
  // order), tallying counts and orientation evidence. slot_of remembers
  // each packet's flow so the scatter below never rehashes.
  const std::span<const net::CapturedPacket> pkts = trace.packets();
  std::unordered_map<net::FlowKey, std::uint32_t, net::FlowKeyHash> table;
  std::vector<Accum> accums;
  std::vector<std::uint32_t> slot_of(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const net::CapturedPacket& pkt = pkts[i];
    const net::FlowKey canon = pkt.key.canonical();
    auto [it, inserted] =
        table.try_emplace(canon, static_cast<std::uint32_t>(accums.size()));
    if (inserted) {
      accums.emplace_back();
      accums.back().canonical = canon;
    }
    Accum& a = accums[it->second];
    slot_of[i] = it->second;
    ++a.count;
    const bool from_a = pkt.key == canon;
    if (from_a) {
      a.payload_a += pkt.payload_len;
      if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) a.synack_from_a = true;
    } else {
      a.payload_b += pkt.payload_len;
      if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) a.synack_from_b = true;
    }
  }

  // Prefix-sum the counts into pool offsets, then scatter packet indices
  // into each flow's segment, preserving capture order within the flow.
  FlowViewSet out;
  out.index_pool_.resize(pkts.size());
  {
    std::vector<std::uint32_t> cursor(accums.size());
    std::uint32_t running = 0;
    for (std::size_t f = 0; f < accums.size(); ++f) {
      accums[f].offset = running;
      cursor[f] = running;
      running += accums[f].count;
    }
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      out.index_pool_[cursor[slot_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Orient each flow and walk its segment once to extract the
  // handshake/transfer meta.
  out.flows_.reserve(accums.size());
  for (const Accum& a : accums) {
    // Decide which endpoint is the server.
    bool server_is_a;
    if (opts.server_port != 0) {
      server_is_a = a.canonical.src_port == opts.server_port;
    } else if (a.synack_from_a != a.synack_from_b) {
      server_is_a = a.synack_from_a;
    } else {
      server_is_a = a.payload_a >= a.payload_b;
    }

    FlowView view;
    view.server_to_client = server_is_a ? a.canonical : a.canonical.reversed();
    view.trace = &trace;
    view.packet_indices = std::span<const std::uint32_t>(out.index_pool_)
                              .subspan(a.offset, a.count);
    for (std::uint32_t idx : view.packet_indices) {
      const net::CapturedPacket& cp = trace[idx];
      fold_meta(view, cp, cp.key == view.server_to_client);
    }
    if (view.init_rwnd_bytes == 0) view.init_rwnd_bytes = view.syn_window;
    view.mid_stream =
        !view.saw_syn && !view.saw_synack && view.saw_server_data;
    out.flows_.push_back(view);
  }
  return out;
}

}  // namespace tapo::analysis

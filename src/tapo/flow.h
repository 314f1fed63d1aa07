// Flow reconstruction: demultiplexes a server-side packet trace into
// per-connection flows oriented server->client, and extracts the handshake
// parameters TAPO's classifier needs (MSS, SACK permission, window scale,
// initial receive window — Table 2's "receiver side" category).
//
// A flow is a FlowView: a per-flow span of packet *indices* into the
// PacketTrace arena, produced by demux_flow_views. Nothing per packet is
// copied; the analyzer reads the arena in place.
//
// View lifetime rule: a FlowView borrows both the PacketTrace arena and the
// FlowViewSet index pool; it is valid until either is mutated or destroyed.
// PacketTrace::sort_by_time permutes indices, so sort first, demux after.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/trace.h"

namespace tapo::analysis {

/// Flow-level handshake/transfer facts extracted by the demux.
struct FlowMeta {
  net::FlowKey server_to_client;  // orientation key (server is src)

  bool saw_syn = false;
  bool saw_synack = false;
  bool saw_fin = false;

  net::Seq32 client_isn;
  net::Seq32 server_isn;
  std::uint16_t mss = 1448;
  bool sack_permitted = false;
  std::uint8_t client_wscale = 0;
  /// Window advertised by the client in its SYN (unscaled, bytes).
  std::uint32_t syn_window = 0;
  /// First data-phase window from the client, scaled (bytes). This is the
  /// "initial rwnd" the paper studies (Fig. 6 / Table 4); falls back to
  /// syn_window when the client never sent a data-phase ACK.
  std::uint32_t init_rwnd_bytes = 0;

  std::uint64_t server_payload_bytes = 0;  // sum over packets (incl. retrans)
  std::uint64_t client_payload_bytes = 0;

  /// Capture started mid-connection: no SYN or SYN-ACK was observed but
  /// server data was (rotated captures, mid-stream taps). The mimic then
  /// seeds its sequence state from first_server_data_seq instead of the
  /// (never seen) ISN and records the degradation in CaptureQuality.
  bool mid_stream = false;
  bool saw_server_data = false;
  /// Sequence number of the first server data packet in capture order
  /// (valid when saw_server_data).
  net::Seq32 first_server_data_seq;
};

/// Non-owning flow: a span of packet indices into the demuxed PacketTrace.
/// Packets keep capture order. Borrowed storage — see the lifetime rule in
/// the file comment.
struct FlowView : FlowMeta {
  const net::PacketTrace* trace = nullptr;
  std::span<const std::uint32_t> packet_indices;

  std::size_t size() const { return packet_indices.size(); }
  const net::CapturedPacket& packet(std::size_t i) const {
    return (*trace)[packet_indices[i]];
  }
};

struct DemuxOptions {
  /// The server's port; 0 auto-detects (the endpoint that sent a SYN-ACK,
  /// falling back to the endpoint with more payload bytes).
  std::uint16_t server_port = 0;

  // Fluent construction (aggregate-init keeps working).
  DemuxOptions& with_server_port(std::uint16_t port);
};

class FlowViewSet;

/// Splits `trace` into non-owning per-flow views without copying a single
/// packet. Packets within a flow keep capture order; flows appear in
/// first-packet order.
FlowViewSet demux_flow_views(const net::PacketTrace& trace,
                             const DemuxOptions& opts = {});

/// Result of a view-based demux: the per-flow views plus the index pool
/// they point into. Movable (spans chase the pool's heap buffer); not
/// copyable — copying would silently duplicate the pool while the views
/// keep pointing at the original.
class FlowViewSet {
 public:
  FlowViewSet() = default;
  FlowViewSet(FlowViewSet&&) noexcept = default;
  FlowViewSet& operator=(FlowViewSet&&) noexcept = default;
  FlowViewSet(const FlowViewSet&) = delete;
  FlowViewSet& operator=(const FlowViewSet&) = delete;

  const std::vector<FlowView>& flows() const { return flows_; }
  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }
  const FlowView& operator[](std::size_t i) const { return flows_[i]; }
  auto begin() const { return flows_.begin(); }
  auto end() const { return flows_.end(); }

  /// Index-pool footprint — the entire per-packet cost of a view demux.
  std::size_t index_bytes() const {
    return index_pool_.size() * sizeof(std::uint32_t);
  }

 private:
  friend FlowViewSet demux_flow_views(const net::PacketTrace& trace,
                                      const DemuxOptions& opts);
  std::vector<std::uint32_t> index_pool_;
  std::vector<FlowView> flows_;
};

}  // namespace tapo::analysis

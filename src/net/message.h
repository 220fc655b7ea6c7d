#ifndef DELUGE_NET_MESSAGE_H_
#define DELUGE_NET_MESSAGE_H_

#include <cstdint>

#include "common/buffer.h"
#include "common/clock.h"
#include "common/qos.h"

namespace deluge::net {

/// Identifier of a node (device, broker, executor, data center).  Under
/// the simulated `Network` ids are assigned densely per network; under
/// `SocketTransport` they are *cluster-global* and come from the
/// `ClusterConfig`, so the same id names the same endpoint in every
/// process.
using NodeId = uint32_t;

/// Per-message framing overhead, in bytes, charged on top of the payload
/// when a message does not declare an explicit `size_bytes`.
///
/// This one constant is shared by both transport backends: the simulator
/// uses it for bandwidth accounting (`Message::WireSize`), and the real
/// frame encoder budgets its header inside it (`net::kFrameHeaderBytes
/// <= kFrameOverheadBytes`, static-asserted in frame.h), standing in for
/// the L2-L4 headers the socket path pays below the frame.  Keeping them
/// tied together means a byte counted by the sim is a byte the wire
/// path actually accounts for.
inline constexpr uint64_t kFrameOverheadBytes = 64;

/// Message types at or above this value are reserved for the transport
/// itself (handshake, ping/pong).  Application protocols must stay
/// below it; `SocketTransport` consumes reserved-type frames instead of
/// delivering them.
inline constexpr uint32_t kReservedTypeBase = 0xFFFF0000u;

/// A message in flight.  `payload` is opaque bytes; `size_bytes` may exceed
/// payload.size() to model headers or media frames whose content we do not
/// materialize (e.g. a "2 MB video keyframe" with a 20-byte descriptor).
///
/// The payload is a refcounted `common::Buffer`: assigning an encoded
/// string moves it in (no copy), and fanning the same bytes out to many
/// destinations or retries shares one allocation (DESIGN.md §10).
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  uint32_t type = 0;
  common::Buffer payload;
  uint64_t size_bytes = 0;
  Micros sent_at = 0;
  /// Service class (DESIGN.md §13).  Rides the frame header's size
  /// field top byte on the socket path (sizes stay < 2^56); legacy
  /// frames carry tag 0 there and decode as kBulk.
  QosClass qos = QosClass::kBulk;

  /// Effective size used for bandwidth accounting (both backends).
  uint64_t WireSize() const {
    return size_bytes > 0 ? size_bytes : payload.size() + kFrameOverheadBytes;
  }
};

/// Gilbert–Elliott two-state burst-loss model.  Real links lose packets
/// in correlated bursts, not i.i.d. (congestion, fading, handover); the
/// chain sits in a Good or Bad state with per-message transition
/// probabilities and a loss rate per state.
struct BurstLossModel {
  double p_good_to_bad = 0.01;  ///< per-message Good -> Bad probability
  double p_bad_to_good = 0.25;  ///< per-message Bad -> Good probability
  double loss_good = 0.0;       ///< loss rate while Good
  double loss_bad = 1.0;        ///< loss rate while Bad
};

/// Counters exposed for experiments (same meaning on both backends).
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;
  // Drop breakdown by injected-fault cause (all also counted in
  // `messages_dropped`).
  uint64_t drops_node_down = 0;
  uint64_t drops_link_down = 0;
  uint64_t drops_burst_loss = 0;
};

}  // namespace deluge::net

#endif  // DELUGE_NET_MESSAGE_H_

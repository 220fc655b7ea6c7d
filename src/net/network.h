#ifndef DELUGE_NET_NETWORK_H_
#define DELUGE_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/message.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace deluge::net {

/// Per-directed-edge link characteristics.
struct LinkOptions {
  Micros latency = 1 * kMicrosPerMilli;  ///< one-way propagation delay
  double bandwidth_bytes_per_sec = 125e6;  ///< 1 Gbps default
  Micros jitter = 0;                       ///< uniform +/- jitter bound
  double drop_probability = 0.0;           ///< i.i.d. loss
};

/// A simulated message-passing network over a `Simulator` — the sim
/// backend of `Transport`, whose clock and timers are the simulator's.
///
/// Models per-link propagation latency, serialization delay from finite
/// bandwidth (a link transmits one message at a time; later sends queue
/// behind earlier ones), and optional jitter and drops; injected faults
/// come from `Transport`'s overlay.  This is the substitute substrate
/// for the paper's 5G / inter-data-center links (see DESIGN.md
/// substitution table).
class Network final : public Transport {
 public:
  /// `sim` must outlive the network.
  Network(Simulator* sim, uint64_t seed = 42);

  /// Adds a node with the given delivery handler; returns its id.
  NodeId AddNode(Handler handler) override;

  Micros Now() const override { return sim_->Now(); }
  void After(Micros delay, std::function<void()> fn) override {
    sim_->After(delay, std::move(fn));
  }

  /// Sets characteristics of the directed link a->b.  Unset links use
  /// `default_link()`.
  void SetLink(NodeId a, NodeId b, const LinkOptions& opts);

  /// Sets characteristics of both directions between a and b.
  void SetBidirectional(NodeId a, NodeId b, const LinkOptions& opts);

  /// Default characteristics for links that were never configured.
  LinkOptions& default_link() { return default_link_; }

  /// Sends `msg` (msg.from/to must be valid nodes).  Delivery is scheduled
  /// on the simulator; returns InvalidArgument for unknown nodes and
  /// Unavailable when a fault blocks the pair (the message is counted as
  /// dropped).
  Status Send(Message msg) override;

  size_t node_count() const override { return handlers_.size(); }

 private:
  struct LinkState {
    LinkOptions opts;
    Micros busy_until = 0;  // serialization queue tail
  };
  LinkState& GetLink(NodeId a, NodeId b);

  Simulator* sim_;
  Rng rng_;
  LinkOptions default_link_;
  std::vector<Handler> handlers_;
  std::unordered_map<uint64_t, LinkState> links_;
  /// Virtual-time send→deliver latency per QoS class
  /// (net.send_us{qos=...}) — the transport hop of the per-class SLO
  /// accounting.
  obs::ConcurrentHistogram* send_us_[kQosClassCount] = {};
};

}  // namespace deluge::net

#endif  // DELUGE_NET_NETWORK_H_

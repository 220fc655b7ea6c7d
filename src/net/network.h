#ifndef DELUGE_NET_NETWORK_H_
#define DELUGE_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
/// behind earlier ones), optional jitter and drops, and pairwise
/// partitions.  This is the substitute substrate for the paper's 5G /
/// inter-data-center links (see DESIGN.md substitution table).
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
  /// Unavailable when the pair is partitioned (the message is counted as
  /// dropped).
  Status Send(Message msg) override;

  /// Cuts communication between `a` and `b` (both directions).
  void Partition(NodeId a, NodeId b) override;

  /// Restores communication between `a` and `b`.
  void Heal(NodeId a, NodeId b) override;

  /// True if a->b traffic is currently blocked.
  bool IsPartitioned(NodeId a, NodeId b) const override;

  // --- Fault-hook API (driven by chaos::FaultSchedule) -----------------
  //
  // These model transient faults orthogonal to the static topology:
  // fail-stop node crashes (all traffic to/from the node is lost while it
  // is down; handler state survives, like a process partition), link
  // flaps, added latency (congestion spikes), and correlated burst loss.
  // Messages in flight when a fault starts are re-checked at delivery
  // time and lost, matching datagram semantics.

  /// Marks a node down (crash) or back up (restart).  Nodes start up.
  void SetNodeUp(NodeId n, bool up) override;
  bool IsNodeUp(NodeId n) const override;

  /// Takes the links between `a` and `b` down / back up (both
  /// directions).  Distinct from Partition so scheduled flaps and
  /// protocol-level partitions cannot mask each other's state.
  void SetLinkDown(NodeId a, NodeId b, bool down) override;
  bool IsLinkDown(NodeId a, NodeId b) const override;

  /// Adds `extra` one-way latency on top of the configured link latency
  /// in both directions (0 clears the spike).
  void SetExtraLatency(NodeId a, NodeId b, Micros extra) override;

  /// Installs a Gilbert–Elliott burst-loss process on both directions
  /// (each direction keeps independent chain state).
  void SetBurstLoss(NodeId a, NodeId b, const BurstLossModel& model) override;
  void ClearBurstLoss(NodeId a, NodeId b) override;

  size_t node_count() const override { return handlers_.size(); }
  /// Registry-backed snapshot, refreshed on every call.
  const NetworkStats& stats() const override;
  void ResetStats() override;

 private:
  struct LinkState {
    LinkOptions opts;
    Micros busy_until = 0;  // serialization queue tail
  };
  /// Transient fault overlay for one directed link.
  struct LinkFault {
    bool down = false;
    Micros extra_latency = 0;
    bool has_burst = false;
    BurstLossModel burst;
    bool burst_bad = false;  // current Gilbert–Elliott chain state
  };

  static uint64_t PairKey(NodeId a, NodeId b) {
    return (uint64_t(a) << 32) | b;
  }

  LinkState& GetLink(NodeId a, NodeId b);
  LinkFault& GetFault(NodeId a, NodeId b) { return faults_[PairKey(a, b)]; }
  /// Advances the GE chain one step; true = this message is lost.
  bool BurstDrop(LinkFault& fault);
  /// True when a->b traffic is blocked by partition, link-down, or a
  /// down endpoint (the reasons a datagram vanishes en route).
  bool Blocked(NodeId a, NodeId b) const;

  Simulator* sim_;
  Rng rng_;
  LinkOptions default_link_;
  std::vector<Handler> handlers_;
  std::vector<char> node_up_;  // parallel to handlers_
  std::unordered_map<uint64_t, LinkState> links_;
  std::unordered_map<uint64_t, LinkFault> faults_;
  std::unordered_set<uint64_t> partitions_;
  obs::StatsScope obs_{"net"};
  obs::Counter* messages_sent_ = obs_.counter("messages_sent");
  obs::Counter* messages_delivered_ = obs_.counter("messages_delivered");
  obs::Counter* messages_dropped_ = obs_.counter("messages_dropped");
  obs::Counter* bytes_sent_ = obs_.counter("bytes_sent");
  obs::Counter* bytes_delivered_ = obs_.counter("bytes_delivered");
  obs::Counter* drops_node_down_ = obs_.counter("drops_node_down");
  obs::Counter* drops_link_down_ = obs_.counter("drops_link_down");
  obs::Counter* drops_burst_loss_ = obs_.counter("drops_burst_loss");
  /// Virtual-time send→deliver latency per QoS class
  /// (net.send_us{qos=...}) — the transport hop of the per-class SLO
  /// accounting.
  obs::ConcurrentHistogram* send_us_[kQosClassCount] = {};
  mutable NetworkStats snapshot_;
};

}  // namespace deluge::net

#endif  // DELUGE_NET_NETWORK_H_

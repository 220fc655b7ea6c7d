#ifndef DELUGE_NET_TRANSPORT_H_
#define DELUGE_NET_TRANSPORT_H_

#include <functional>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "common/status.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace deluge::net {

/// The messaging + time substrate every distributed-protocol layer
/// (txn coordinator, reliable pub/sub delivery, replica fabric, Chord
/// overlay, chaos schedules) is written against (DESIGN.md §12).
///
/// Two backends implement it:
///  - `Network` (network.h) is the discrete-event simulator backend:
///    virtual time from its `Simulator`, deterministic delivery, full
///    link modelling.  The in-process default for tests and experiments.
///  - `SocketTransport` (socket_transport.h) speaks length-prefixed
///    frames over real TCP or Unix-domain sockets, so the same protocol
///    objects run as separate OS processes in wall-clock time.
///
/// The interface deliberately merges the old `(Network*, Simulator*)`
/// pair: protocols need a time source and timers wherever their
/// messages travel, and which clock that is (virtual vs wall) is
/// exactly a property of the transport.
///
/// Threading contract: every handler and timer callback is invoked on
/// the transport's single event strand (the simulator loop, or the
/// socket backend's receive loop), never concurrently.  Protocol
/// objects therefore stay single-threaded, as before.  Code outside
/// the strand (a bench main thread) must marshal calls in via `Post`.
///
/// The fault hooks and the `NetworkStats` counters are implemented
/// here, once: each backend routes its sends through `AdmitSend` and
/// its deliveries through `DropIfBlocked`.
class Transport {
 public:
  using Handler = std::function<void(const Message&)>;  ///< delivery callback

  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Registers a local endpoint with its delivery handler; returns its
  /// node id.  Sim backend: the next dense id.  Socket backend: the
  /// next cluster-global id configured for this process (AddNode order
  /// must match the config's node order — the handshake layer checks).
  virtual NodeId AddNode(Handler handler) = 0;

  /// Sends `msg` (msg.from/to must be valid nodes).  Delivery is
  /// asynchronous on the event strand; a synchronous error means the
  /// message will never arrive (unknown node, partitioned pair, dead
  /// endpoint, full send queue).  Silent losses stay silent, as on a
  /// real datagram fabric.
  virtual Status Send(Message msg) = 0;

  /// Current time on this transport's clock: virtual micros under the
  /// simulator, monotonic wall-clock micros under sockets.
  virtual Micros Now() const = 0;

  /// Runs `fn` on the event strand `delay` micros from now.
  virtual void After(Micros delay, std::function<void()> fn) = 0;

  /// Runs `fn` on the event strand as soon as possible.  The way for
  /// threads outside the strand to touch protocol objects safely.
  virtual void Post(std::function<void()> fn) { After(0, std::move(fn)); }

  /// Endpoints registered locally (sim: all nodes; socket: this
  /// process's nodes).
  virtual size_t node_count() const = 0;

  // --- Fault hooks (driven by chaos::FaultSchedule) --------------------
  //
  // These model transient faults orthogonal to the static topology:
  // fail-stop node crashes (all traffic to/from the node is lost while it
  // is down; handler state survives, like a process partition),
  // partitions, link flaps, added latency (congestion spikes), and
  // correlated burst loss.  Messages in flight when a crash, partition
  // or flap starts are re-checked at delivery time and lost, matching
  // datagram semantics.
  //
  // Sim backend: global truth — every node observes the fault.
  // Socket backend: a *local view* — this process stops sending to /
  // accepting from the named nodes, which from this process's protocols
  // is indistinguishable from the real fault.  See DESIGN.md §12.

  /// Marks a node down (crash) or back up (restart).  A node is up
  /// until it is marked down.
  void SetNodeUp(NodeId n, bool up);
  bool IsNodeUp(NodeId n) const;

  /// Cuts / restores communication between `a` and `b` (both
  /// directions).
  void Partition(NodeId a, NodeId b);
  void Heal(NodeId a, NodeId b);
  /// True if a->b traffic is currently partitioned.
  bool IsPartitioned(NodeId a, NodeId b) const;

  /// Takes the links between `a` and `b` down / back up (both
  /// directions).  Distinct from Partition so scheduled flaps and
  /// protocol-level partitions cannot mask each other's state.
  void SetLinkDown(NodeId a, NodeId b, bool down);
  bool IsLinkDown(NodeId a, NodeId b) const;

  /// Adds `extra` one-way latency in both directions (0 clears the
  /// spike): on top of the link latency in-sim, as a delivery delay on
  /// the socket path (congestion you can inject on loopback).
  void SetExtraLatency(NodeId a, NodeId b, Micros extra);

  /// Installs a Gilbert–Elliott burst-loss process on both directions
  /// (each direction keeps independent chain state, starting Good).
  void SetBurstLoss(NodeId a, NodeId b, const BurstLossModel& model);
  void ClearBurstLoss(NodeId a, NodeId b);

  NetworkStats stats() const { return view_.Read(); }

 protected:
  /// `subsystem` names the registry scope ("net", "transport") whose
  /// metrics both this class and the backend register.
  explicit Transport(std::string_view subsystem) : obs_(subsystem) {}

  /// Counts a send of `msg`, then applies the faults in order: node
  /// down, partition, link down, burst loss (a chain step drawn from
  /// `rng`).  A drop is counted by cause.  Returns the status `Send`
  /// reports; the message goes on, `*extra` micros late, only when
  /// `*deliver` is true.
  Status AdmitSend(const Message& msg, Rng* rng, Micros* extra,
                   bool* deliver);
  /// Delivery-time recheck: true (and counted as a drop) when a crash,
  /// partition or down link now blocks `msg`.  Otherwise sets `*extra`,
  /// when given, to the link's injected latency.
  bool DropIfBlocked(const Message& msg, Micros* extra = nullptr);

  /// Key of the directed link a->b.
  static uint64_t PairKey(NodeId a, NodeId b) {
    return (uint64_t(a) << 32) | b;
  }

  obs::StatsScope obs_;
  obs::StatsView<NetworkStats> view_{obs_};
  obs::Counter* messages_delivered_ =
      view_.counter("messages_delivered", &NetworkStats::messages_delivered);
  obs::Counter* messages_dropped_ =
      view_.counter("messages_dropped", &NetworkStats::messages_dropped);
  obs::Counter* bytes_delivered_ =
      view_.counter("bytes_delivered", &NetworkStats::bytes_delivered);

 private:
  /// Transient fault overlay for one directed link.
  struct LinkFault {
    bool down = false;
    Micros extra_latency = 0;
    bool has_burst = false;
    BurstLossModel burst;
    bool burst_bad = false;  // current Gilbert–Elliott chain state
  };

  /// Applies `fn` to the a->b and b->a faults under `mu_`.
  template <typename Fn>
  void EachDirection(NodeId a, NodeId b, Fn fn);
  /// The a->b fault, or null; `mu_` held.
  LinkFault* FindFault(NodeId a, NodeId b);

  mutable std::mutex mu_;  // the fault overlay below
  std::unordered_set<NodeId> down_;
  std::unordered_set<uint64_t> partitions_;
  std::unordered_map<uint64_t, LinkFault> faults_;

  obs::Counter* messages_sent_ =
      view_.counter("messages_sent", &NetworkStats::messages_sent);
  obs::Counter* bytes_sent_ =
      view_.counter("bytes_sent", &NetworkStats::bytes_sent);
  obs::Counter* drops_node_down_ =
      view_.counter("drops_node_down", &NetworkStats::drops_node_down);
  obs::Counter* drops_link_down_ =
      view_.counter("drops_link_down", &NetworkStats::drops_link_down);
  obs::Counter* drops_burst_loss_ =
      view_.counter("drops_burst_loss", &NetworkStats::drops_burst_loss);
};

}  // namespace deluge::net

#endif  // DELUGE_NET_TRANSPORT_H_

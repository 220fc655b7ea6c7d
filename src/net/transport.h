#ifndef DELUGE_NET_TRANSPORT_H_
#define DELUGE_NET_TRANSPORT_H_

#include <functional>

#include "common/status.h"
#include "net/message.h"

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
/// Fault-hook semantics differ per backend and are documented on each
/// virtual; the default implementations are no-ops so a backend only
/// models the faults that make sense for it.
class Transport {
 public:
  using Handler = std::function<void(const Message&)>;  ///< delivery callback

  virtual ~Transport() = default;

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
  // Sim backend: global truth — every node observes the fault.
  // Socket backend: a *local view* — this process stops sending to /
  // accepting from the named nodes, which from this process's protocols
  // is indistinguishable from the real fault.  See DESIGN.md §12.

  virtual void SetNodeUp(NodeId n, bool up) { (void)n, (void)up; }
  virtual bool IsNodeUp(NodeId n) const {
    (void)n;
    return true;
  }
  virtual void Partition(NodeId a, NodeId b) { (void)a, (void)b; }
  virtual void Heal(NodeId a, NodeId b) { (void)a, (void)b; }
  virtual bool IsPartitioned(NodeId a, NodeId b) const {
    (void)a, (void)b;
    return false;
  }
  virtual void SetLinkDown(NodeId a, NodeId b, bool down) {
    (void)a, (void)b, (void)down;
  }
  virtual bool IsLinkDown(NodeId a, NodeId b) const {
    (void)a, (void)b;
    return false;
  }
  /// Added one-way latency (sim models it exactly; the socket backend
  /// applies it as a delivery delay on received frames from/to the
  /// pair — congestion you can inject on loopback).
  virtual void SetExtraLatency(NodeId a, NodeId b, Micros extra) {
    (void)a, (void)b, (void)extra;
  }
  virtual void SetBurstLoss(NodeId a, NodeId b, const BurstLossModel& model) {
    (void)a, (void)b, (void)model;
  }
  virtual void ClearBurstLoss(NodeId a, NodeId b) { (void)a, (void)b; }

  /// Registry-backed snapshot, refreshed on every call.
  virtual const NetworkStats& stats() const = 0;
  virtual void ResetStats() {}
};

}  // namespace deluge::net

#endif  // DELUGE_NET_TRANSPORT_H_

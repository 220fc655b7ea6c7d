#ifndef DELUGE_PUBSUB_RELIABLE_H_
#define DELUGE_PUBSUB_RELIABLE_H_

#include <unordered_map>

#include "common/retry.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "pubsub/subscription.h"

namespace deluge::pubsub {

/// Counters for `ReliableDeliverer`.
struct ReliableStats {
  uint64_t attempts = 0;       ///< first-time Deliver calls
  uint64_t sends = 0;          ///< network sends (incl. retries)
  uint64_t accepted = 0;       ///< sends the network accepted
  uint64_t retries = 0;
  uint64_t gave_up = 0;        ///< retry budget exhausted
  uint64_t fast_failed = 0;    ///< rejected by an open breaker
};

/// Retrying bridge from a `Broker` to `net::Network` sends.
///
/// The plain bench wiring drops an event forever when the subscriber's
/// link is partitioned or flapping.  This deliverer retries *detectable*
/// failures (Send returning Unavailable: partition, link-down, crashed
/// node) with the shared backoff policy, and keeps one circuit breaker
/// per subscriber so a long-dead subscriber degrades to cheap fast-fails
/// instead of a retry storm.  Silent in-flight losses (i.i.d. or burst
/// drops) are not detectable without an ack protocol and stay lossy, as
/// in the real datagram fabric.
class ReliableDeliverer {
 public:
  /// `net` must outlive the deliverer.  `msg_type` tags the wire
  /// messages; the payload carries the event's wire encoding
  /// (`Event::EnsureEncoded`), serialised once and shared by refcount
  /// across subscribers and retries.  `qos_policy` (default:
  /// `QosPolicy::Default()`) caps the retry budget per class — the
  /// effective attempts for an event are
  /// min(policy.max_attempts, target(qos).max_retry_attempts), so
  /// kRealtime fails fast while kBulk retries patiently.
  explicit ReliableDeliverer(net::Transport* net, RetryPolicy policy = {},
                             uint64_t seed = 0xE11A,
                             const QosPolicy* qos_policy = nullptr);

  /// Sends `event` from `from` to `to`, retrying on synchronous
  /// unavailability until the event's class budget runs out.
  void Deliver(net::NodeId from, net::NodeId to, const Event& event);

  CircuitBreakerOptions& breaker_options() { return breaker_options_; }
  ReliableStats stats() const { return view_.Read(); }
  uint32_t msg_type = 0x9B;

 private:
  void Attempt(net::NodeId from, net::NodeId to, common::Buffer payload,
               uint64_t size_bytes, QosClass qos, RetryState state);
  CircuitBreaker& breaker_for(net::NodeId to);

  net::Transport* net_;
  RetryPolicy policy_;
  const QosPolicy* qos_policy_;
  CircuitBreakerOptions breaker_options_;
  std::unordered_map<net::NodeId, CircuitBreaker> breakers_;
  Rng rng_;
  obs::StatsScope obs_{"reliable"};
  obs::StatsView<ReliableStats> view_{obs_};
  obs::Counter* attempts_ = view_.counter("attempts", &ReliableStats::attempts);
  obs::Counter* sends_ = view_.counter("sends", &ReliableStats::sends);
  obs::Counter* accepted_ = view_.counter("accepted", &ReliableStats::accepted);
  obs::Counter* retries_ = view_.counter("retries", &ReliableStats::retries);
  obs::Counter* gave_up_ = view_.counter("gave_up", &ReliableStats::gave_up);
  obs::Counter* fast_failed_ =
      view_.counter("fast_failed", &ReliableStats::fast_failed);
  // Per-class giveups: the SLO gate reads these as delivery failures.
  obs::Counter* class_gave_up_[kQosClassCount] = {};
};

}  // namespace deluge::pubsub

#endif  // DELUGE_PUBSUB_RELIABLE_H_

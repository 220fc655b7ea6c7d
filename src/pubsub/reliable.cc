#include "pubsub/reliable.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace deluge::pubsub {

ReliableDeliverer::ReliableDeliverer(net::Transport* net, RetryPolicy policy,
                                     uint64_t seed,
                                     const QosPolicy* qos_policy)
    : net_(net),
      policy_(policy),
      qos_policy_(qos_policy != nullptr ? qos_policy : &QosPolicy::Default()),
      rng_(seed) {
  for (QosClass c : kAllQosClasses) {
    class_gave_up_[uint8_t(c)] =
        obs_.counter("class_gave_up", {{"qos", QosClassName(c)}});
  }
}

CircuitBreaker& ReliableDeliverer::breaker_for(net::NodeId to) {
  auto it = breakers_.find(to);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(std::piecewise_construct, std::forward_as_tuple(to),
                      std::forward_as_tuple(breaker_options_))
             .first;
  }
  return it->second;
}

void ReliableDeliverer::Deliver(net::NodeId from, net::NodeId to,
                                const Event& event) {
  attempts_->Add(1);
  // Serialise at most once per event: EnsureEncoded caches the wire
  // form on the Event, so fanning one event out to N subscribers (and
  // every retry) shares a single refcounted Buffer.  The retry budget
  // is the class's: a kRealtime miss is superseded by the next mirror
  // update, while kBulk keeps trying within the backoff deadline.
  RetryPolicy effective = policy_;
  effective.max_attempts =
      std::min(effective.max_attempts,
               qos_policy_->target(event.qos).max_retry_attempts);
  Attempt(from, to, event.EnsureEncoded(), event.bytes, event.qos,
          RetryState(effective, net_->Now()));
}

void ReliableDeliverer::Attempt(net::NodeId from, net::NodeId to,
                                common::Buffer payload, uint64_t size_bytes,
                                QosClass qos, RetryState state) {
  CircuitBreaker& breaker = breaker_for(to);
  if (!breaker.Allow(net_->Now())) {
    fast_failed_->Add(1);
    return;
  }
  net::Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = msg_type;
  msg.payload = payload;  // refcount bump, not a byte copy
  msg.size_bytes = size_bytes;
  msg.qos = qos;
  sends_->Add(1);
  Status s = net_->Send(std::move(msg));
  if (s.ok()) {
    accepted_->Add(1);
    breaker.RecordSuccess();
    return;
  }
  breaker.RecordFailure(net_->Now());
  Micros delay = state.NextBackoff(net_->Now(), &rng_);
  if (delay < 0) {
    gave_up_->Add(1);
    class_gave_up_[uint8_t(qos)]->Add(1);
    return;
  }
  retries_->Add(1);
  net_->After(delay, [this, from, to, payload = std::move(payload), size_bytes,
                      qos, state]() {
    Attempt(from, to, payload, size_bytes, qos, state);
  });
}

}  // namespace deluge::pubsub

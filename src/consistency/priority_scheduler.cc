#include "consistency/priority_scheduler.h"

#include <algorithm>
#include <limits>

namespace deluge::consistency {

TransmissionScheduler::TransmissionScheduler(net::Simulator* sim,
                                             double bandwidth_bytes_per_sec,
                                             TxPolicy policy)
    : sim_(sim),
      bandwidth_(bandwidth_bytes_per_sec > 0 ? bandwidth_bytes_per_sec
                                             : 1.0),
      policy_(policy) {
  for (QosClass c : kAllQosClasses) m_.emplace_back(obs_, c);
}

void TransmissionScheduler::Submit(PendingUpdate update) {
  queue_.push_back(Item{std::move(update), sim_->Now(), next_seq_++});
  MaybeStartTransmission();
}

void TransmissionScheduler::MaybeStartTransmission() {
  if (busy_ || queue_.empty()) return;

  // Pick the next item per policy.
  size_t pick = 0;
  switch (policy_) {
    case TxPolicy::kFifo:
      pick = 0;  // queue is already arrival-ordered
      break;
    case TxPolicy::kStrictPriority: {
      uint8_t best_class = 255;
      uint64_t best_seq = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i < queue_.size(); ++i) {
        uint8_t cls = uint8_t(queue_[i].update.qos);
        if (cls < best_class ||
            (cls == best_class && queue_[i].seq < best_seq)) {
          best_class = cls;
          best_seq = queue_[i].seq;
          pick = i;
        }
      }
      break;
    }
    case TxPolicy::kEdfWithinClass: {
      uint8_t best_class = 255;
      Micros best_deadline = std::numeric_limits<Micros>::max();
      uint64_t best_seq = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i < queue_.size(); ++i) {
        const Item& it = queue_[i];
        uint8_t cls = uint8_t(it.update.qos);
        Micros dl = it.update.deadline > 0
                        ? it.update.deadline
                        : std::numeric_limits<Micros>::max();
        bool better = cls < best_class ||
                      (cls == best_class &&
                       (dl < best_deadline ||
                        (dl == best_deadline && it.seq < best_seq)));
        if (better) {
          best_class = cls;
          best_deadline = dl;
          best_seq = it.seq;
          pick = i;
        }
      }
      break;
    }
  }

  Item item = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + long(pick));
  busy_ = true;

  Micros tx_time = Micros(double(item.update.bytes) / bandwidth_ *
                          double(kMicrosPerSecond));
  sim_->After(tx_time, [this, item = std::move(item)]() {
    Micros now = sim_->Now();
    const ClassMetrics& cm = m_[uint8_t(item.update.qos)];
    cm.latency->Record(now - item.enqueued_at);
    cm.delivered->Add(1);
    if (item.update.deadline > 0 && now > item.update.deadline) {
      cm.deadline_misses->Add(1);
    }
    if (item.update.on_delivered) item.update.on_delivered(now);
    busy_ = false;
    MaybeStartTransmission();
  });
}

uint64_t TransmissionScheduler::queued() const { return queue_.size(); }

uint64_t TransmissionScheduler::total_delivered() const {
  uint64_t n = 0;
  for (const auto& cm : m_) n += cm.delivered->Value();
  return n;
}

}  // namespace deluge::consistency

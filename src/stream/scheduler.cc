#include "stream/scheduler.h"

#include <limits>

namespace deluge::stream {

std::string PolicyName(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kRoundRobin:
      return "round-robin";
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kEdf:
      return "edf";
    case SchedulingPolicy::kLeastSlack:
      return "least-slack";
    case SchedulingPolicy::kWeighted:
      return "weighted";
    case SchedulingPolicy::kClassAware:
      return "class-aware";
  }
  return "unknown";
}

StreamScheduler::StreamScheduler(SimClock* clock, SchedulingPolicy policy)
    : clock_(clock), policy_(policy) {
  for (QosClass c : kAllQosClasses) {
    class_latency_us_[uint8_t(c)] =
        obs_.histogram("latency_us", {{"qos", QosClassName(c)}});
  }
}

void StreamScheduler::Register(ContinuousQuery* query) {
  by_id_[query->id()] = queries_.size();
  queries_.emplace_back(query, obs_);
}

void StreamScheduler::Enqueue(const std::string& query_id, Tuple t) {
  auto it = by_id_.find(query_id);
  if (it == by_id_.end()) {
    dropped_->Add(1);
    return;
  }
  queries_[it->second].queue.push_back(
      Item{std::move(t), clock_->NowMicros(), next_seq_++});
}

size_t StreamScheduler::pending() const {
  size_t n = 0;
  for (const auto& q : queries_) n += q.queue.size();
  return n;
}

int StreamScheduler::PickNext() const {
  const Micros now = clock_->NowMicros();
  int best = -1;
  double best_score = std::numeric_limits<double>::infinity();

  switch (policy_) {
    case SchedulingPolicy::kRoundRobin: {
      for (size_t off = 0; off < queries_.size(); ++off) {
        size_t i = (rr_cursor_ + off) % queries_.size();
        if (!queries_[i].queue.empty()) return int(i);
      }
      return -1;
    }
    case SchedulingPolicy::kFifo: {
      uint64_t best_seq = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i < queries_.size(); ++i) {
        const auto& q = queries_[i];
        if (!q.queue.empty() && q.queue.front().seq < best_seq) {
          best_seq = q.queue.front().seq;
          best = int(i);
        }
      }
      return best;
    }
    case SchedulingPolicy::kEdf: {
      for (size_t i = 0; i < queries_.size(); ++i) {
        const auto& q = queries_[i];
        if (q.queue.empty()) continue;
        double deadline =
            double(q.queue.front().arrival + q.query->qos().deadline);
        if (deadline < best_score) {
          best_score = deadline;
          best = int(i);
        }
      }
      return best;
    }
    case SchedulingPolicy::kLeastSlack: {
      for (size_t i = 0; i < queries_.size(); ++i) {
        const auto& q = queries_[i];
        if (q.queue.empty()) continue;
        double slack =
            double(q.queue.front().arrival + q.query->qos().deadline - now -
                   q.query->cost_per_tuple());
        if (slack < best_score) {
          best_score = slack;
          best = int(i);
        }
      }
      return best;
    }
    case SchedulingPolicy::kWeighted: {
      // Maximize age * weight => minimize the negation.
      for (size_t i = 0; i < queries_.size(); ++i) {
        const auto& q = queries_[i];
        if (q.queue.empty()) continue;
        double age = double(now - q.queue.front().arrival) + 1.0;
        double score = -age * q.query->qos().weight();
        if (score < best_score) {
          best_score = score;
          best = int(i);
        }
      }
      return best;
    }
    case SchedulingPolicy::kClassAware: {
      // Best QoS class first (tuple-level, so one query's kRealtime
      // tuples outrank another's kBulk); physical-space origin breaks
      // class ties (Section IV-G); FIFO inside a (class, space) pair.
      uint64_t best_seq = std::numeric_limits<uint64_t>::max();
      int best_rank = -1;
      bool best_physical = false;
      for (size_t i = 0; i < queries_.size(); ++i) {
        const auto& q = queries_[i];
        if (q.queue.empty()) continue;
        const Item& item = q.queue.front();
        int rank = QosRank(item.tuple.qos);
        bool physical = item.tuple.space == Space::kPhysical;
        bool better = rank > best_rank ||
                      (rank == best_rank &&
                       ((physical && !best_physical) ||
                        (physical == best_physical && item.seq < best_seq)));
        if (better) {
          best_rank = rank;
          best_physical = physical;
          best_seq = item.seq;
          best = int(i);
        }
      }
      return best;
    }
  }
  return best;
}

bool StreamScheduler::Step() {
  int idx = PickNext();
  if (idx < 0) return false;
  QueryState& q = queries_[size_t(idx)];
  Item item = std::move(q.queue.front());
  q.queue.pop_front();
  if (policy_ == SchedulingPolicy::kRoundRobin) {
    rr_cursor_ = (size_t(idx) + 1) % queries_.size();
  }
  clock_->Advance(q.query->cost_per_tuple());
  q.query->Push(item.tuple);
  Micros latency = clock_->NowMicros() - item.arrival;
  q.latency->Record(latency);
  class_latency_us_[uint8_t(item.tuple.qos)]->Record(latency);
  q.processed->Add(1);
  if (latency > q.query->qos().deadline) q.deadline_misses->Add(1);
  return true;
}

size_t StreamScheduler::RunUntilDrained() {
  size_t n = 0;
  while (Step()) ++n;
  return n;
}

QueryStats StreamScheduler::stats_for(const std::string& query_id) const {
  auto it = by_id_.find(query_id);
  return it == by_id_.end() ? QueryStats{} : queries_[it->second].view.Read();
}

QueryStats StreamScheduler::TotalStats() const {
  QueryStats total;
  for (const auto& q : queries_) q.view.AddTo(&total);
  return total;
}

}  // namespace deluge::stream

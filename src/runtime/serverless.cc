#include "runtime/serverless.h"

namespace deluge::runtime {

ServerlessRuntime::ServerlessRuntime(net::Simulator* sim, Micros keep_alive)
    : sim_(sim), keep_alive_(keep_alive) {
  for (QosClass c : kAllQosClasses) {
    obs::Labels qos{{"qos", QosClassName(c)}};
    queue_wait_us_[uint8_t(c)] = obs_.histogram("queue_wait_us", qos);
    class_shed_[uint8_t(c)] = obs_.counter("class_shed", qos);
  }
}

void ServerlessRuntime::Register(FunctionSpec spec) {
  functions_.try_emplace(spec.name, spec, obs_);
}

void ServerlessRuntime::ScheduleReclaim(FunctionState* fs,
                                        uint64_t generation) {
  sim_->After(keep_alive_, [this, fs, generation]() {
    // Reclaim the instance only if it is still idle with the same
    // generation token (it may have been reused and re-queued since).
    for (auto it = fs->warm.begin(); it != fs->warm.end(); ++it) {
      if (it->generation == generation) {
        fs->idle_mb_ms->Add(
            double(fs->spec.memory_mb) *
            double(sim_->Now() - it->idle_since) / double(kMicrosPerMilli));
        fs->warm.erase(it);
        return;
      }
    }
  });
}

void ServerlessRuntime::SetConcurrencyLimit(size_t max_concurrent,
                                            size_t queue_limit) {
  max_concurrent_ = max_concurrent;
  queue_limit_ = queue_limit;
}

void ServerlessRuntime::Invoke(const std::string& name,
                               std::function<void()> done, QosClass qos) {
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    dropped_->Add(1);
    return;
  }
  FunctionState& fs = it->second;
  fs.invocations->Add(1);
  Micros start = sim_->Now();
  const uint8_t priority = QosRank(qos);

  if (max_concurrent_ > 0 && running_ >= max_concurrent_) {
    // At capacity: queue, or shed the least important invocation.
    if (pending_.size() >= queue_limit_) {
      size_t victim = size_t(-1);
      for (size_t i = 0; i < pending_.size(); ++i) {
        if (victim == size_t(-1) ||
            pending_[i].priority < pending_[victim].priority ||
            (pending_[i].priority == pending_[victim].priority &&
             pending_[i].seq < pending_[victim].seq)) {
          victim = i;
        }
      }
      shed_->Add(1);
      if (victim == size_t(-1) || pending_[victim].priority >= priority) {
        class_shed_[uint8_t(qos)]->Add(1);
        return;  // the incoming invocation is the least important
      }
      class_shed_[uint8_t(pending_[victim].qos)]->Add(1);
      pending_.erase(pending_.begin() + long(victim));
    }
    pending_.push_back(PendingInvocation{&fs, std::move(done), priority, qos,
                                         start, next_pending_seq_++});
    return;
  }
  Start(&fs, start, std::move(done));
}

void ServerlessRuntime::DrainQueue() {
  while (!pending_.empty() &&
         (max_concurrent_ == 0 || running_ < max_concurrent_)) {
    size_t best = 0;
    for (size_t i = 1; i < pending_.size(); ++i) {
      if (pending_[i].priority > pending_[best].priority ||
          (pending_[i].priority == pending_[best].priority &&
           pending_[i].seq < pending_[best].seq)) {
        best = i;
      }
    }
    PendingInvocation inv = std::move(pending_[best]);
    pending_.erase(pending_.begin() + long(best));
    queue_wait_us_[uint8_t(inv.qos)]->Record(sim_->Now() - inv.enqueued_at);
    Start(inv.fs, inv.enqueued_at, std::move(inv.done));
  }
}

void ServerlessRuntime::Start(FunctionState* fsp, Micros start,
                              std::function<void()> done) {
  FunctionState& fs = *fsp;
  ++running_;
  Micros startup = 0;
  if (!fs.warm.empty()) {
    // Reuse the most recently idle instance (LIFO keeps the warm set
    // small, matching production schedulers).
    WarmInstance inst = fs.warm.back();
    fs.warm.pop_back();
    fs.idle_mb_ms->Add(double(fs.spec.memory_mb) *
                       double(start - inst.idle_since) /
                       double(kMicrosPerMilli));
  } else {
    fs.cold_starts->Add(1);
    startup = fs.spec.cold_start;
  }

  Micros total = startup + fs.spec.exec_time;
  sim_->After(total, [this, fsp, start, done = std::move(done)]() {
    Micros now = sim_->Now();
    fsp->latency->Record(now - start);
    fsp->billed_mb_ms->Add(double(fsp->spec.memory_mb) *
                           double(fsp->spec.exec_time) /
                           double(kMicrosPerMilli));
    // Instance goes warm; reclaim after keep-alive unless reused.
    uint64_t generation = fsp->next_generation++;
    fsp->warm.push_back(WarmInstance{now, generation});
    if (keep_alive_ > 0) {
      ScheduleReclaim(fsp, generation);
    } else {
      fsp->warm.pop_back();  // keep-alive 0: reclaim immediately
    }
    --running_;
    if (done) done();
    DrainQueue();  // a slot opened: admit the most important waiter
  });
}

FunctionStats ServerlessRuntime::stats_for(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? FunctionStats{} : it->second.view.Read();
}

size_t ServerlessRuntime::warm_instances(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? 0 : it->second.warm.size();
}

}  // namespace deluge::runtime

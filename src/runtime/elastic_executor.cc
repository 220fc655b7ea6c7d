#include "runtime/elastic_executor.h"

#include <algorithm>

namespace deluge::runtime {

ElasticExecutorPool::ElasticExecutorPool(net::Simulator* sim,
                                         ElasticExecutorPoolOptions options)
    : sim_(sim),
      options_(options),
      executors_(std::max<size_t>(1, options.min_executors)),
      last_accounted_(sim->Now()) {}

void ElasticExecutorPool::AccountExecutorTime() {
  Micros now = sim_->Now();
  executor_time_->Add(double(executors_) * double(now - last_accounted_));
  last_accounted_ = now;
}

void ElasticExecutorPool::Submit(Micros cost, std::function<void()> done) {
  queue_.push_back(Task{cost, sim_->Now(), std::move(done)});
  if (!autoscaler_running_) {
    autoscaler_running_ = true;
    sim_->After(options_.evaluate_every, [this] { AutoscaleTick(); });
  }
  PumpQueue();
}

void ElasticExecutorPool::PumpQueue() {
  while (busy_ < executors_ && !queue_.empty()) {
    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    sim_->After(task.cost, [this, task = std::move(task)]() {
      --busy_;
      task_latency_->Record(sim_->Now() - task.submitted_at);
      completed_->Add(1);
      if (task.done) task.done();
      PumpQueue();
    });
  }
}

void ElasticExecutorPool::AutoscaleTick() {
  AccountExecutorTime();
  double load = double(queue_.size()) /
                double(std::max<size_t>(1, executors_ + pending_scale_outs_));
  if (load > options_.scale_out_queue_per_executor &&
      executors_ + pending_scale_outs_ < options_.max_executors) {
    ++pending_scale_outs_;
    scale_outs_->Add(1);
    sim_->After(options_.scale_out_delay, [this] {
      AccountExecutorTime();
      --pending_scale_outs_;
      ++executors_;
      PumpQueue();
    });
  } else if (load < options_.scale_in_queue_per_executor &&
             executors_ > options_.min_executors && busy_ < executors_) {
    AccountExecutorTime();
    --executors_;
    scale_ins_->Add(1);
  }
  // Keep ticking while there is (or may come) work.
  if (!queue_.empty() || busy_ > 0 || pending_scale_outs_ > 0) {
    sim_->After(options_.evaluate_every, [this] { AutoscaleTick(); });
  } else {
    autoscaler_running_ = false;
  }
}

}  // namespace deluge::runtime

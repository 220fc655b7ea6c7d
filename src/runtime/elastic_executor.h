#ifndef DELUGE_RUNTIME_ELASTIC_EXECUTOR_H_
#define DELUGE_RUNTIME_ELASTIC_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "net/simulator.h"
#include "obs/metrics.h"

namespace deluge::runtime {

/// Configuration of the elastic executor pool.
struct ElasticExecutorPoolOptions {
  size_t min_executors = 1;
  size_t max_executors = 64;
  /// Scale out when queued tasks per executor exceed this.
  double scale_out_queue_per_executor = 4.0;
  /// Scale in when it drops below this (hysteresis band).
  double scale_in_queue_per_executor = 0.5;
  /// Provisioning delay for a new executor.
  Micros scale_out_delay = 500 * kMicrosPerMilli;
  /// How often the autoscaler re-evaluates.
  Micros evaluate_every = 100 * kMicrosPerMilli;
};

/// Pool metrics for E1/E7.
struct ElasticStats {
  Histogram task_latency;     ///< submit -> completion
  uint64_t completed = 0;
  uint64_t scale_outs = 0;
  uint64_t scale_ins = 0;
  /// Integral of executor count over time (for utilization/cost):
  /// executor-microseconds.
  double executor_time = 0.0;
};

/// The elastic transaction/query executor tier of Fig. 7 in virtual
/// time: tasks queue centrally; each executor serves one task at a time;
/// an autoscaler grows/shrinks the pool between min and max based on
/// queue pressure (the "scale elastically based on the workload"
/// behaviour the paper calls for, with realistic provisioning delay).
class ElasticExecutorPool {
 public:
  ElasticExecutorPool(net::Simulator* sim, ElasticExecutorPoolOptions options);

  /// Submits a task of `cost` virtual CPU time; `done` (optional) fires
  /// at completion.
  void Submit(Micros cost, std::function<void()> done = nullptr);

  size_t executors() const { return executors_; }
  size_t queued() const { return queue_.size(); }
  ElasticStats stats() const { return view_.Read(); }

 private:
  struct Task {
    Micros cost;
    Micros submitted_at;
    std::function<void()> done;
  };

  void PumpQueue();
  void AutoscaleTick();
  void AccountExecutorTime();

  net::Simulator* sim_;
  ElasticExecutorPoolOptions options_;
  size_t executors_;
  size_t busy_ = 0;
  std::deque<Task> queue_;
  obs::StatsScope obs_{"elastic"};
  obs::StatsView<ElasticStats> view_{obs_};
  obs::ConcurrentHistogram* task_latency_ =
      view_.histogram("task_latency_us", &ElasticStats::task_latency);
  obs::Counter* completed_ =
      view_.counter("completed", &ElasticStats::completed);
  obs::Counter* scale_outs_ =
      view_.counter("scale_outs", &ElasticStats::scale_outs);
  obs::Counter* scale_ins_ =
      view_.counter("scale_ins", &ElasticStats::scale_ins);
  obs::Gauge* executor_time_ =
      view_.gauge("executor_time_us", &ElasticStats::executor_time);
  Micros last_accounted_ = 0;
  bool autoscaler_running_ = false;
  size_t pending_scale_outs_ = 0;
};

}  // namespace deluge::runtime

#endif  // DELUGE_RUNTIME_ELASTIC_EXECUTOR_H_

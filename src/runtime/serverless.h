#ifndef DELUGE_RUNTIME_SERVERLESS_H_
#define DELUGE_RUNTIME_SERVERLESS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/qos.h"
#include "net/simulator.h"
#include "obs/metrics.h"

namespace deluge::runtime {

/// A registered serverless function.
struct FunctionSpec {
  std::string name;
  Micros cold_start = 200 * kMicrosPerMilli;  ///< sandbox + load time
  Micros exec_time = 10 * kMicrosPerMilli;    ///< warm execution time
  uint64_t memory_mb = 128;
};

/// Billing and latency accounting per function.
struct FunctionStats {
  Histogram latency;          ///< invoke -> completion
  uint64_t invocations = 0;
  uint64_t cold_starts = 0;
  /// Billed MB-milliseconds (pay-per-use: execution only).
  double billed_mb_ms = 0.0;
  /// Idle warm-instance MB-ms the *provider* carries (keep-alive cost).
  double idle_mb_ms = 0.0;

  double ColdStartRatio() const {
    return invocations == 0 ? 0.0
                            : double(cold_starts) / double(invocations);
  }
};

/// A serverless function runtime in virtual time (Section IV-E-3):
/// invocations route to a warm instance when one is idle, otherwise pay
/// a cold start; finished instances stay warm for `keep_alive` before
/// being reclaimed.  E14 sweeps keep-alive against arrival rate to show
/// the latency/cost tradeoff ("Serverless in the Wild" policy space).
class ServerlessRuntime {
 public:
  ServerlessRuntime(net::Simulator* sim, Micros keep_alive);

  /// Registers a function.
  void Register(FunctionSpec spec);

  /// Invokes `name`; `done` (optional) fires at completion in virtual
  /// time.  Unknown functions are dropped (counted).  Under a
  /// concurrency limit, the QoS class decides who waits and who is shed
  /// (same taxonomy as every other layer, DESIGN.md §13).
  void Invoke(const std::string& name, std::function<void()> done = nullptr,
              QosClass qos = QosClass::kBulk);

  /// Bounds concurrent executions (graceful degradation).  Excess
  /// invocations wait in a bounded queue served best-class-first; when
  /// the queue is also full, the lowest-class waiter (or the incoming
  /// invocation, if it is the least important) is shed and counted —
  /// admission latency grows before anything is lost, and what is lost
  /// is the kBulk tier, never silently.
  /// `max_concurrent` 0 = unlimited (the default, previous behavior).
  void SetConcurrencyLimit(size_t max_concurrent, size_t queue_limit);

  /// Zeros for an unregistered function.
  FunctionStats stats_for(const std::string& name) const;
  uint64_t dropped() const { return dropped_->Value(); }
  /// Invocations shed by the bounded admission queue.
  uint64_t shed() const { return shed_->Value(); }
  size_t running() const { return running_; }
  size_t queue_depth() const { return pending_.size(); }
  size_t warm_instances(const std::string& name) const;

 private:
  struct WarmInstance {
    Micros idle_since;
    uint64_t generation;  ///< reclaim token
  };
  struct FunctionState {
    FunctionState(FunctionSpec s, obs::StatsScope& scope)
        : spec(std::move(s)), view(scope, {{"function", spec.name}}) {}
    FunctionSpec spec;
    // Registry handles, labelled {function=<name>}.
    obs::StatsView<FunctionStats> view;
    obs::ConcurrentHistogram* latency =
        view.histogram("latency_us", &FunctionStats::latency);
    obs::Counter* invocations =
        view.counter("invocations", &FunctionStats::invocations);
    obs::Counter* cold_starts =
        view.counter("cold_starts", &FunctionStats::cold_starts);
    obs::Gauge* billed_mb_ms =
        view.gauge("billed_mb_ms", &FunctionStats::billed_mb_ms);
    obs::Gauge* idle_mb_ms =
        view.gauge("idle_mb_ms", &FunctionStats::idle_mb_ms);
    std::deque<WarmInstance> warm;
    uint64_t next_generation = 1;
  };
  struct PendingInvocation {
    FunctionState* fs;
    std::function<void()> done;
    uint8_t priority;  ///< QosRank(qos): bigger = admitted first
    QosClass qos;
    Micros enqueued_at;
    uint64_t seq;  ///< FIFO within a class
  };

  void ScheduleReclaim(FunctionState* fs, uint64_t generation);
  /// Starts executing on `fs` now (`started` is the admission time, so
  /// recorded latency includes queue wait).
  void Start(FunctionState* fs, Micros started, std::function<void()> done);
  void DrainQueue();

  net::Simulator* sim_;
  Micros keep_alive_;
  std::unordered_map<std::string, FunctionState> functions_;
  size_t max_concurrent_ = 0;  // 0 = unlimited
  size_t queue_limit_ = 0;
  size_t running_ = 0;
  std::vector<PendingInvocation> pending_;
  uint64_t next_pending_seq_ = 0;
  obs::StatsScope obs_{"serverless"};
  obs::Counter* dropped_ = obs_.counter("dropped");
  obs::Counter* shed_ = obs_.counter("shed");
  // Per-class admission accounting, indexed by uint8_t(QosClass).
  obs::ConcurrentHistogram* queue_wait_us_[kQosClassCount] = {};
  obs::Counter* class_shed_[kQosClassCount] = {};
};

}  // namespace deluge::runtime

#endif  // DELUGE_RUNTIME_SERVERLESS_H_

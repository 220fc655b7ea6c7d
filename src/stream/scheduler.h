#ifndef DELUGE_STREAM_SCHEDULER_H_
#define DELUGE_STREAM_SCHEDULER_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "obs/metrics.h"
#include "stream/continuous_query.h"

namespace deluge::stream {

/// Policies for ordering tuple processing across continuous queries.
enum class SchedulingPolicy {
  kRoundRobin,   ///< cycle queries, one tuple each
  kFifo,         ///< global arrival order
  kEdf,          ///< earliest absolute deadline first
  kLeastSlack,   ///< minimum (deadline - now - cost) first
  kWeighted,     ///< age x class-weight priority (aged weighted fair)
  kClassAware,   ///< best QosClass first (physical-space breaks ties),
                 ///< FIFO within a class
};

std::string PolicyName(SchedulingPolicy policy);

/// Per-query outcome statistics.
struct QueryStats {
  Histogram latency;          ///< arrival -> completion, micros
  uint64_t processed = 0;
  uint64_t deadline_misses = 0;
};

/// A single-core multi-query stream scheduler over virtual time.
///
/// Models the shared-resource problem of Section IV-C/IV-G: many standing
/// queries with heterogeneous QoS contend for one executor; the policy
/// decides who runs next.  Each tuple processed advances the clock by the
/// owning query's `cost_per_tuple` (the simulation's CPU currency).
class StreamScheduler {
 public:
  StreamScheduler(SimClock* clock, SchedulingPolicy policy);

  /// Registers a query; the scheduler does not take ownership.
  void Register(ContinuousQuery* query);

  /// Queues `t` for `query_id` with arrival time = now.
  /// Unknown ids are ignored (counted in `dropped`).
  void Enqueue(const std::string& query_id, Tuple t);

  /// Processes queued tuples until all queues are empty.  Returns the
  /// number of tuples processed.
  size_t RunUntilDrained();

  /// Processes at most one tuple; false when idle.
  bool Step();

  /// Zeros for an unregistered query.
  QueryStats stats_for(const std::string& query_id) const;

  /// Aggregate over all queries.
  QueryStats TotalStats() const;

  uint64_t dropped() const { return dropped_->Value(); }
  size_t pending() const;

 private:
  struct Item {
    Tuple tuple;
    Micros arrival;
    uint64_t seq;
  };
  struct QueryState {
    QueryState(ContinuousQuery* q, obs::StatsScope& scope)
        : query(q), view(scope, {{"query", q->id()}}) {}
    ContinuousQuery* query;
    std::deque<Item> queue;
    // Registry handles, labelled {query=<id>}.
    obs::StatsView<QueryStats> view;
    obs::ConcurrentHistogram* latency =
        view.histogram("latency_us", &QueryStats::latency);
    obs::Counter* processed = view.counter("processed", &QueryStats::processed);
    obs::Counter* deadline_misses =
        view.counter("deadline_misses", &QueryStats::deadline_misses);
  };

  /// Index into queries_ of the next queue to pop, or -1 if all empty.
  int PickNext() const;

  SimClock* clock_;
  SchedulingPolicy policy_;
  std::vector<QueryState> queries_;
  std::map<std::string, size_t> by_id_;
  size_t rr_cursor_ = 0;
  uint64_t next_seq_ = 0;
  obs::StatsScope obs_{"stream"};
  obs::Counter* dropped_ = obs_.counter("dropped");
  // Per-class processing latency, indexed by uint8_t(QosClass) — the
  // query-layer hop of the end-to-end {qos=...} accounting.
  obs::ConcurrentHistogram* class_latency_us_[kQosClassCount] = {};
};

}  // namespace deluge::stream

#endif  // DELUGE_STREAM_SCHEDULER_H_

#ifndef DELUGE_PUBSUB_BROKER_H_
#define DELUGE_PUBSUB_BROKER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "pubsub/delivery_queue.h"
#include "pubsub/subscription.h"

namespace deluge::pubsub {

/// Matching/dissemination counters.
struct BrokerStats {
  uint64_t events_published = 0;
  uint64_t deliveries = 0;
  uint64_t candidates_checked = 0;  ///< subscriptions evaluated exactly
  // Bounded-queue mode only:
  uint64_t deliveries_queued = 0;
  uint64_t deliveries_shed = 0;  ///< dropped by QoS-class shedding
  uint64_t queue_high_water = 0;
};

/// A content + spatial pub/sub matcher.
///
/// Two-level subscription index:
///  - topic hash map narrows to the topic's subscriber set;
///  - regional subscriptions are additionally coarse-indexed by the grid
///    cells their region covers, so positional events only test
///    subscriptions whose region touches the event's cell.
/// This is the structure the paper points at for cross-space
/// dissemination at scale (Section IV-E, [41]).  Delivery is via a
/// pluggable callback so the broker runs equally in-process (tests) or
/// bound to `net::Network` sends (experiments).  A subscription may
/// carry its own callback (`Subscription::deliver`), which then
/// receives exactly that subscription's matches.
class Broker {
 public:
  using Deliver = DeliverFn;

  /// `world`/`cell` configure the regional coarse index.  `deliver`
  /// receives the matches of subscriptions without their own callback
  /// (null drops them after counting).  `extra_labels` tag this
  /// broker's registry metrics (e.g. {shard=3} in an overlay or sharded
  /// engine).
  Broker(const geo::AABB& world, double cell_size, Deliver deliver,
         obs::Labels extra_labels = {});

  /// Registers a subscription; returns its id.
  uint64_t Subscribe(Subscription sub);

  /// Removes a subscription; false when unknown.
  bool Unsubscribe(uint64_t sub_id);

  /// Matches and delivers `event` to every matching subscription.
  /// Returns the number of deliveries (matches, in queued mode).
  size_t Publish(const Event& event);

  /// Switches to bounded-queue delivery (graceful degradation): Publish
  /// enqueues matched deliveries instead of invoking the callback
  /// inline, and `Drain` pumps them.  When the queue is full, the
  /// lowest-class entry (oldest among ties) is shed and counted —
  /// overload degrades kBulk traffic first instead of growing without
  /// bound or dropping silently.  `limit` 0 restores inline delivery.
  void SetQueueLimit(size_t limit);

  /// Delivers up to `max` queued entries in (class rank, FIFO) order.
  /// Returns the number delivered.  No-op in inline mode.
  size_t Drain(size_t max = size_t(-1));

  /// Enables per-class delivery-latency accounting: each delivery of an
  /// event with `published_at > 0` records (now - published_at) into
  /// `broker.delivery_us{qos=...}`.  Null disables (the default), so
  /// standalone brokers pay only a branch per delivery.
  void SetClock(const Clock* clock) { clock_ = clock; }

  size_t queue_depth() const { return queue_.size(); }

  size_t subscription_count() const { return subs_.size(); }
  BrokerStats stats() const { return view_.Read(); }
  const obs::StatsView<BrokerStats>& stats_view() const { return view_; }

 private:
  using CellKey = uint64_t;

  void Enqueue(const Subscription& sub, const EventRef& event);
  /// Hands `event` to `deliver`, or to `deliver_` when null.
  void DeliverOne(net::NodeId subscriber, const DeliverFn* deliver,
                  const Event& event);

  std::vector<CellKey> CellsCovering(const geo::AABB& box) const;
  CellKey CellFor(const geo::Vec3& p) const;

  geo::AABB world_;
  double cell_size_;
  Deliver deliver_;
  size_t queue_limit_ = 0;  // 0 = inline delivery
  DeliveryHeap queue_;
  uint64_t next_queue_seq_ = 0;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, Subscription> subs_;
  // Topic -> non-regional subscription ids ("" holds wildcard subs).
  std::unordered_map<std::string, std::unordered_set<uint64_t>> by_topic_;
  // Grid cell -> regional subscription ids touching that cell.
  std::unordered_map<CellKey, std::unordered_set<uint64_t>> by_cell_;
  const Clock* clock_ = nullptr;  // per-class latency source (optional)
  obs::StatsScope obs_;
  obs::StatsView<BrokerStats> view_{obs_};
  obs::Counter* events_published_ =
      view_.counter("events_published", &BrokerStats::events_published);
  obs::Counter* deliveries_ =
      view_.counter("deliveries", &BrokerStats::deliveries);
  obs::Counter* candidates_checked_ =
      view_.counter("candidates_checked", &BrokerStats::candidates_checked);
  obs::Counter* deliveries_queued_ =
      view_.counter("deliveries_queued", &BrokerStats::deliveries_queued);
  obs::Counter* deliveries_shed_ =
      view_.counter("deliveries_shed", &BrokerStats::deliveries_shed);
  obs::Gauge* queue_high_water_ =
      view_.gauge("queue_high_water", &BrokerStats::queue_high_water,
                  obs::Gauge::Agg::kMax);
  // Per-QoS-class hop accounting, indexed by uint8_t(QosClass).
  obs::ConcurrentHistogram* delivery_us_[kQosClassCount];
  obs::Counter* class_delivered_[kQosClassCount];
  obs::Counter* class_shed_[kQosClassCount];
};

/// A topic-sharded broker overlay (Section IV-E: "publish/subscribe
/// system over peer-to-peer networks").
///
/// Each broker owns the topics that hash to it; `HomeOf` routes both
/// subscriptions and publications, so any node can publish anywhere and
/// matching happens exactly once.
class BrokerOverlay {
 public:
  /// Creates `n` brokers sharing world/cell configuration.
  BrokerOverlay(size_t n, const geo::AABB& world, double cell_size,
                Broker::Deliver deliver);

  /// The broker index responsible for `topic`.
  size_t HomeOf(const std::string& topic) const;

  uint64_t Subscribe(Subscription sub);
  size_t Publish(const Event& event);

  Broker& broker(size_t i) { return *brokers_[i]; }
  size_t size() const { return brokers_.size(); }

 private:
  std::vector<std::unique_ptr<Broker>> brokers_;
};

}  // namespace deluge::pubsub

#endif  // DELUGE_PUBSUB_BROKER_H_

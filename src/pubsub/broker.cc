#include "pubsub/broker.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "obs/trace.h"

namespace deluge::pubsub {

Broker::Broker(const geo::AABB& world, double cell_size, Deliver deliver,
               obs::Labels extra_labels)
    : world_(world),
      cell_size_(cell_size > 0 ? cell_size : 1.0),
      deliver_(std::move(deliver)),
      obs_("broker", std::move(extra_labels)) {
  for (QosClass c : kAllQosClasses) {
    obs::Labels qos{{"qos", QosClassName(c)}};
    delivery_us_[uint8_t(c)] = obs_.histogram("delivery_us", qos);
    class_delivered_[uint8_t(c)] = obs_.counter("class_delivered", qos);
    class_shed_[uint8_t(c)] = obs_.counter("class_shed", qos);
  }
}

Broker::CellKey Broker::CellFor(const geo::Vec3& p) const {
  auto coord = [this](double v, double lo) {
    return uint64_t(std::clamp<int64_t>(
        int64_t(std::floor((v - lo) / cell_size_)) + (1 << 20), 0,
        (1 << 21) - 1));
  };
  return (coord(p.x, world_.min.x) << 42) | (coord(p.y, world_.min.y) << 21) |
         coord(p.z, world_.min.z);
}

std::vector<Broker::CellKey> Broker::CellsCovering(
    const geo::AABB& box) const {
  std::vector<CellKey> cells;
  auto idx = [this](double v, double lo) {
    return int64_t(std::floor((v - lo) / cell_size_));
  };
  int64_t lox = idx(box.min.x, world_.min.x), hix = idx(box.max.x, world_.min.x);
  int64_t loy = idx(box.min.y, world_.min.y), hiy = idx(box.max.y, world_.min.y);
  int64_t loz = idx(box.min.z, world_.min.z), hiz = idx(box.max.z, world_.min.z);
  for (int64_t x = lox; x <= hix; ++x) {
    for (int64_t y = loy; y <= hiy; ++y) {
      for (int64_t z = loz; z <= hiz; ++z) {
        auto clamp21 = [](int64_t v) {
          return uint64_t(
              std::clamp<int64_t>(v + (1 << 20), 0, (1 << 21) - 1));
        };
        cells.push_back((clamp21(x) << 42) | (clamp21(y) << 21) | clamp21(z));
      }
    }
  }
  return cells;
}

uint64_t Broker::Subscribe(Subscription sub) {
  sub.id = next_id_++;
  if (sub.region.has_value()) {
    for (CellKey cell : CellsCovering(*sub.region)) {
      by_cell_[cell].insert(sub.id);
    }
  } else {
    by_topic_[sub.topic].insert(sub.id);
  }
  uint64_t id = sub.id;
  subs_.emplace(id, std::move(sub));
  return id;
}

bool Broker::Unsubscribe(uint64_t sub_id) {
  auto it = subs_.find(sub_id);
  if (it == subs_.end()) return false;
  const Subscription& sub = it->second;
  if (sub.region.has_value()) {
    for (CellKey cell : CellsCovering(*sub.region)) {
      auto cit = by_cell_.find(cell);
      if (cit != by_cell_.end()) {
        cit->second.erase(sub_id);
        if (cit->second.empty()) by_cell_.erase(cit);
      }
    }
  } else {
    auto tit = by_topic_.find(sub.topic);
    if (tit != by_topic_.end()) {
      tit->second.erase(sub_id);
      if (tit->second.empty()) by_topic_.erase(tit);
    }
  }
  subs_.erase(it);
  return true;
}

void Broker::SetQueueLimit(size_t limit) {
  queue_limit_ = limit;
  if (limit > 0 && queue_.size() > limit) queue_.TruncateNewest(limit);
}

void Broker::Enqueue(const Subscription& sub, const EventRef& event) {
  if (queue_.size() >= queue_limit_) {
    // Shed the lowest-class entry (oldest among ties); if the new
    // event itself ranks lowest, shed it instead.  O(log n) via the
    // worst-first heap (the seed scanned the whole queue per eviction).
    deliveries_shed_->Add(1);
    if (queue_.empty() ||
        QosRank(queue_.PeekWorst().event->qos) >= QosRank(event->qos)) {
      class_shed_[uint8_t(event->qos)]->Add(1);
      return;  // the incoming event is the least important
    }
    class_shed_[uint8_t(queue_.PeekWorst().event->qos)]->Add(1);
    queue_.PopWorst();
  }
  queue_.Push({sub.subscriber, sub.deliver, event, next_queue_seq_++});
  deliveries_queued_->Add(1);
  queue_high_water_->UpdateMax(double(queue_.size()));
}

void Broker::DeliverOne(net::NodeId subscriber, const DeliverFn* deliver,
                        const Event& event) {
  if (clock_ != nullptr) {
    class_delivered_[uint8_t(event.qos)]->Add(1);
    if (event.published_at > 0) {
      delivery_us_[uint8_t(event.qos)]->Record(clock_->NowMicros() -
                                               event.published_at);
    }
  }
  const DeliverFn& fn = deliver != nullptr ? *deliver : deliver_;
  if (fn) fn(subscriber, event);
}

size_t Broker::Drain(size_t max) {
  size_t delivered = 0;
  while (delivered < max && !queue_.empty()) {
    // Highest class rank first, FIFO within a class — O(log n) pops
    // from the best-first heap.
    DeliveryHeap::Item d = queue_.PopBest();
    DeliverOne(d.subscriber, d.deliver.get(), *d.event);
    ++delivered;
  }
  return delivered;
}

size_t Broker::Publish(const Event& event) {
  obs::Span span("broker.publish");
  events_published_->Add(1);
  size_t delivered = 0;
  // Queued mode: the event is copied into shared ownership at most once
  // per publish; every matching queue slot then holds a reference, so
  // fan-out cost per subscriber is one refcount bump (zero payload
  // copies regardless of subscriber count).
  EventRef shared;
  auto try_deliver = [&](uint64_t sub_id) {
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) return;
    candidates_checked_->Add(1);
    if (!it->second.Matches(event)) return;
    deliveries_->Add(1);
    ++delivered;
    if (queue_limit_ > 0) {
      if (shared == nullptr) shared = std::make_shared<const Event>(event);
      Enqueue(it->second, shared);
    } else {
      // Hold the callback: it may remove its own subscription.
      const std::shared_ptr<const DeliverFn> deliver = it->second.deliver;
      DeliverOne(it->second.subscriber, deliver.get(), event);
    }
  };

  // Topic-indexed (non-regional) subscriptions: exact topic + wildcard.
  auto tit = by_topic_.find(event.topic);
  if (tit != by_topic_.end()) {
    for (uint64_t id : tit->second) try_deliver(id);
  }
  if (!event.topic.empty()) {
    auto wit = by_topic_.find("");
    if (wit != by_topic_.end()) {
      for (uint64_t id : wit->second) try_deliver(id);
    }
  }
  // Regional subscriptions via the event's cell.
  if (event.position.has_value()) {
    auto cit = by_cell_.find(CellFor(*event.position));
    if (cit != by_cell_.end()) {
      // Copy: delivery callbacks may mutate subscriptions.
      std::vector<uint64_t> ids(cit->second.begin(), cit->second.end());
      for (uint64_t id : ids) try_deliver(id);
    }
  }
  return delivered;
}

// ---------------------------------------------------------- BrokerOverlay

BrokerOverlay::BrokerOverlay(size_t n, const geo::AABB& world,
                             double cell_size, Broker::Deliver deliver) {
  if (n == 0) n = 1;
  brokers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    brokers_.push_back(std::make_unique<Broker>(
        world, cell_size, deliver,
        obs::Labels{{"shard", std::to_string(i)}}));
  }
}

size_t BrokerOverlay::HomeOf(const std::string& topic) const {
  return size_t(Hash64(topic) % brokers_.size());
}

uint64_t BrokerOverlay::Subscribe(Subscription sub) {
  return brokers_[HomeOf(sub.topic)]->Subscribe(std::move(sub));
}

size_t BrokerOverlay::Publish(const Event& event) {
  return brokers_[HomeOf(event.topic)]->Publish(event);
}

}  // namespace deluge::pubsub

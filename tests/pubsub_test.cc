#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "pubsub/broker.h"

namespace deluge::pubsub {
namespace {

const geo::AABB kWorld({0, 0, 0}, {1000, 1000, 100});

Event MakeEvent(const std::string& topic,
                std::optional<geo::Vec3> pos = std::nullopt) {
  Event e;
  e.topic = topic;
  if (pos) e.position = pos;
  return e;
}

// -------------------------------------------------------------- Predicate

TEST(PredicateTest, NumericComparisons) {
  stream::Tuple t;
  t.Set("price", 42.0);
  EXPECT_TRUE((Predicate{"price", CmpOp::kEq, 42.0}).Matches(t));
  EXPECT_TRUE((Predicate{"price", CmpOp::kLt, 50.0}).Matches(t));
  EXPECT_TRUE((Predicate{"price", CmpOp::kGe, 42.0}).Matches(t));
  EXPECT_FALSE((Predicate{"price", CmpOp::kGt, 42.0}).Matches(t));
  EXPECT_TRUE((Predicate{"price", CmpOp::kNe, 0.0}).Matches(t));
}

TEST(PredicateTest, IntFieldComparesAgainstDoubleValue) {
  stream::Tuple t;
  t.Set("qty", int64_t{5});
  EXPECT_TRUE((Predicate{"qty", CmpOp::kLe, 5.0}).Matches(t));
  EXPECT_TRUE((Predicate{"qty", CmpOp::kGt, int64_t{4}}).Matches(t));
}

TEST(PredicateTest, StringEquality) {
  stream::Tuple t;
  t.Set("category", std::string("pastry"));
  EXPECT_TRUE(
      (Predicate{"category", CmpOp::kEq, std::string("pastry")}).Matches(t));
  EXPECT_TRUE(
      (Predicate{"category", CmpOp::kNe, std::string("tools")}).Matches(t));
  EXPECT_FALSE(
      (Predicate{"category", CmpOp::kLt, std::string("z")}).Matches(t));
}

TEST(PredicateTest, MissingFieldNeverMatches) {
  stream::Tuple t;
  EXPECT_FALSE((Predicate{"ghost", CmpOp::kEq, 1.0}).Matches(t));
  EXPECT_FALSE(
      (Predicate{"ghost", CmpOp::kNe, std::string("x")}).Matches(t));
}

// ------------------------------------------------------------ Subscription

TEST(SubscriptionTest, TopicAndRegionAndPredicatesAllRequired) {
  Subscription sub;
  sub.topic = "sale";
  sub.region = geo::AABB({0, 0, 0}, {10, 10, 10});
  sub.predicates = {{"discount", CmpOp::kGe, 0.5}};

  Event ok = MakeEvent("sale", geo::Vec3{5, 5, 5});
  ok.payload.Set("discount", 0.7);
  EXPECT_TRUE(sub.Matches(ok));

  Event wrong_topic = ok;
  wrong_topic.topic = "restock";
  EXPECT_FALSE(sub.Matches(wrong_topic));

  Event outside = ok;
  outside.position = geo::Vec3{500, 500, 50};
  EXPECT_FALSE(sub.Matches(outside));

  Event weak_discount = ok;
  weak_discount.payload.Set("discount", 0.1);
  EXPECT_FALSE(sub.Matches(weak_discount));

  Event no_position = ok;
  no_position.position.reset();
  EXPECT_FALSE(sub.Matches(no_position));  // regional needs a position
}

TEST(SubscriptionTest, EmptyTopicIsWildcard) {
  Subscription sub;
  EXPECT_TRUE(sub.Matches(MakeEvent("anything")));
}

// ----------------------------------------------------------------- Broker

class BrokerTest : public ::testing::Test {
 protected:
  std::map<net::NodeId, int> delivered_;
  Broker broker_{kWorld, 50.0, [this](net::NodeId node, const Event&) {
                   delivered_[node]++;
                 }};
};

TEST_F(BrokerTest, TopicRouting) {
  Subscription s1;
  s1.subscriber = 1;
  s1.topic = "sales";
  broker_.Subscribe(std::move(s1));
  Subscription s2;
  s2.subscriber = 2;
  s2.topic = "security";
  broker_.Subscribe(std::move(s2));

  EXPECT_EQ(broker_.Publish(MakeEvent("sales")), 1u);
  EXPECT_EQ(delivered_[1], 1);
  EXPECT_EQ(delivered_.count(2), 0u);
}

TEST_F(BrokerTest, WildcardReceivesEverything) {
  Subscription s;
  s.subscriber = 9;
  s.topic = "";
  broker_.Subscribe(std::move(s));
  broker_.Publish(MakeEvent("a"));
  broker_.Publish(MakeEvent("b"));
  EXPECT_EQ(delivered_[9], 2);
}

TEST_F(BrokerTest, RegionalSubscriptionMatchesByPosition) {
  Subscription s;
  s.subscriber = 3;
  s.region = geo::AABB({100, 100, 0}, {200, 200, 100});
  broker_.Subscribe(std::move(s));

  EXPECT_EQ(broker_.Publish(MakeEvent("t", geo::Vec3{150, 150, 50})), 1u);
  EXPECT_EQ(broker_.Publish(MakeEvent("t", geo::Vec3{500, 500, 50})), 0u);
  EXPECT_EQ(broker_.Publish(MakeEvent("t")), 0u);  // no position
  EXPECT_EQ(delivered_[3], 1);
}

TEST_F(BrokerTest, UnsubscribeStopsDelivery) {
  Subscription s;
  s.subscriber = 5;
  s.topic = "x";
  uint64_t id = broker_.Subscribe(std::move(s));
  broker_.Publish(MakeEvent("x"));
  EXPECT_TRUE(broker_.Unsubscribe(id));
  broker_.Publish(MakeEvent("x"));
  EXPECT_EQ(delivered_[5], 1);
  EXPECT_FALSE(broker_.Unsubscribe(id));  // already gone
  EXPECT_EQ(broker_.subscription_count(), 0u);
}

TEST_F(BrokerTest, UnsubscribeRegional) {
  Subscription s;
  s.subscriber = 6;
  s.region = geo::AABB({0, 0, 0}, {100, 100, 100});
  uint64_t id = broker_.Subscribe(std::move(s));
  EXPECT_TRUE(broker_.Unsubscribe(id));
  EXPECT_EQ(broker_.Publish(MakeEvent("t", geo::Vec3{50, 50, 50})), 0u);
}

TEST_F(BrokerTest, GridIndexPrunesCandidates) {
  // 200 regional subscriptions scattered over the world; an event in one
  // corner must only test the few whose regions touch its cell.
  for (int i = 0; i < 200; ++i) {
    Subscription s;
    s.subscriber = net::NodeId(i);
    double x = (i % 20) * 50.0;
    double y = (i / 20) * 100.0;
    s.region = geo::AABB({x, y, 0}, {x + 40, y + 40, 100});
    broker_.Subscribe(std::move(s));
  }
  const uint64_t before = broker_.stats().candidates_checked;
  broker_.Publish(MakeEvent("t", geo::Vec3{10, 10, 50}));
  EXPECT_LT(broker_.stats().candidates_checked - before, 20u);
}

TEST_F(BrokerTest, ContentPredicatesComposeWithTopic) {
  Subscription cheap;
  cheap.subscriber = 1;
  cheap.topic = "listing";
  cheap.predicates = {{"price", CmpOp::kLt, 100.0}};
  broker_.Subscribe(std::move(cheap));

  Event pricey = MakeEvent("listing");
  pricey.payload.Set("price", 500.0);
  Event bargain = MakeEvent("listing");
  bargain.payload.Set("price", 50.0);
  EXPECT_EQ(broker_.Publish(pricey), 0u);
  EXPECT_EQ(broker_.Publish(bargain), 1u);
}

TEST_F(BrokerTest, StatsCountDeliveries) {
  Subscription s;
  s.subscriber = 1;
  s.topic = "t";
  broker_.Subscribe(std::move(s));
  broker_.Publish(MakeEvent("t"));
  broker_.Publish(MakeEvent("t"));
  EXPECT_EQ(broker_.stats().events_published, 2u);
  EXPECT_EQ(broker_.stats().deliveries, 2u);
}

// ---------------------------------------------------------- BrokerOverlay

TEST(BrokerOverlayTest, TopicShardingIsConsistent) {
  int total = 0;
  BrokerOverlay overlay(4, kWorld, 50.0,
                        [&](net::NodeId, const Event&) { ++total; });
  Subscription s;
  s.subscriber = 1;
  s.topic = "alpha";
  overlay.Subscribe(std::move(s));
  // Publication routes to the same broker that holds the subscription.
  EXPECT_EQ(overlay.Publish(MakeEvent("alpha")), 1u);
  EXPECT_EQ(overlay.Publish(MakeEvent("beta")), 0u);
  EXPECT_EQ(total, 1);
  EXPECT_EQ(overlay.HomeOf("alpha"), overlay.HomeOf("alpha"));
}

TEST(BrokerOverlayTest, LoadSpreadsAcrossBrokers) {
  BrokerOverlay overlay(4, kWorld, 50.0, [](net::NodeId, const Event&) {});
  std::set<size_t> homes;
  for (int i = 0; i < 64; ++i) {
    homes.insert(overlay.HomeOf("topic" + std::to_string(i)));
  }
  EXPECT_EQ(homes.size(), 4u);  // all brokers get some topics
}

// The heap-backed delivery queue must drain in exactly the order the
// seed's linear scans produced: QoS rank descending, FIFO within a
// class — here across hundreds of interleaved classes, where a subtle
// heap bug (e.g. unstable ties) would scramble the sequence.
TEST(BrokerQueueTest, HeapDrainMatchesClassRankThenFifoOrder) {
  std::vector<std::pair<uint8_t, int>> delivered;  // (qos rank, payload id)
  Broker broker(kWorld, 50.0, [&](net::NodeId, const Event& e) {
    delivered.emplace_back(QosRank(e.qos),
                           int(*e.payload.Get<int64_t>("id")));
  });
  Subscription sub;
  sub.subscriber = 1;
  sub.topic = "t";
  broker.Subscribe(sub);
  broker.SetQueueLimit(512);

  deluge::Rng rng(17);
  std::vector<std::pair<uint8_t, int>> expected;
  for (int i = 0; i < 400; ++i) {
    Event e = MakeEvent("t");
    e.qos = kAllQosClasses[rng.Uniform(kQosClassCount)];
    e.payload.Set("id", int64_t(i));
    expected.emplace_back(QosRank(e.qos), i);
    broker.Publish(e);
  }
  // Rank descending; insertion (seq) order within each class.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  EXPECT_EQ(broker.Drain(), 400u);
  EXPECT_EQ(delivered, expected);
}

// Shedding through the worst-first heap: evictions strike the lowest
// class (oldest first), and an incoming event no better than the
// current worst is refused at the door.
TEST(BrokerQueueTest, HeapShedsLowestClassOldestFirst) {
  std::vector<int> delivered;
  Broker broker(kWorld, 50.0, [&](net::NodeId, const Event& e) {
    delivered.push_back(int(*e.payload.Get<int64_t>("id")));
  });
  Subscription sub;
  sub.subscriber = 1;
  sub.topic = "t";
  broker.Subscribe(sub);
  broker.SetQueueLimit(4);

  // Fill with two telemetry and two bulk events, then push two
  // interactive ones: the bulks go first (oldest first), then a bulk
  // arrival is refused outright.
  int id = 0;
  auto publish = [&](QosClass qos) {
    Event e = MakeEvent("t");
    e.qos = qos;
    e.payload.Set("id", int64_t(id++));
    broker.Publish(e);
  };
  publish(QosClass::kTelemetry);    // id 0
  publish(QosClass::kBulk);         // id 1
  publish(QosClass::kTelemetry);    // id 2
  publish(QosClass::kBulk);         // id 3
  publish(QosClass::kInteractive);  // id 4 — evicts id 1 (lowest, oldest)
  publish(QosClass::kInteractive);  // id 5 — evicts id 3 (remaining bulk)
  publish(QosClass::kBulk);  // id 6 — refused: queue's worst outranks it
  EXPECT_EQ(broker.stats().deliveries_shed, 3u);
  EXPECT_EQ(broker.queue_depth(), 4u);

  EXPECT_EQ(broker.Drain(), 4u);
  // Interactive first (FIFO: 4 then 5), then the surviving telemetry
  // events (0 then 2).
  EXPECT_EQ(delivered, (std::vector<int>{4, 5, 0, 2}));
}

}  // namespace
}  // namespace deluge::pubsub

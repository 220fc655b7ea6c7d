// Tests for the deterministic chaos layer: fault schedules over the
// simulated network, graceful degradation (broker + serverless
// shedding), retrying delivery, and transaction recovery after faults
// heal — all bit-for-bit reproducible from seeds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "net/network.h"
#include "pubsub/broker.h"
#include "pubsub/reliable.h"
#include "runtime/serverless.h"
#include "txn/distributed.h"

namespace deluge {
namespace {

// ---------------------------------------------------- schedule determinism

struct ChaosRun {
  std::vector<std::string> trace;
  uint64_t trace_hash = 0;
  size_t event_count = 0;
};

ChaosRun RunRandomSchedule(uint64_t seed) {
  net::Simulator sim;
  net::Network net(&sim);
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(net.AddNode([](const net::Message&) {}));
  }
  chaos::FaultSchedule schedule(&net);
  schedule.GenerateRandom(seed, nodes, chaos::RandomScheduleOptions{});
  schedule.Arm();
  sim.Run();
  return ChaosRun{schedule.trace(), schedule.TraceHash(),
                  schedule.events().size()};
}

TEST(FaultScheduleTest, SameSeedProducesIdenticalTrace) {
  ChaosRun a = RunRandomSchedule(0xBEEF);
  ChaosRun b = RunRandomSchedule(0xBEEF);
  ASSERT_GT(a.event_count, 0u);  // the default rates must inject something
  EXPECT_EQ(a.event_count, b.event_count);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(FaultScheduleTest, DifferentSeedsProduceDifferentTraces) {
  ChaosRun a = RunRandomSchedule(0xBEEF);
  ChaosRun b = RunRandomSchedule(0xF00D);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(FaultScheduleTest, ScriptedEventsApplyAndCount) {
  net::Simulator sim;
  net::Network net(&sim);
  net::NodeId a = net.AddNode([](const net::Message&) {});
  net::NodeId b = net.AddNode([](const net::Message&) {});
  chaos::FaultSchedule schedule(&net);
  schedule.CrashNode(10 * kMicrosPerMilli, b, /*down_for=*/50 * kMicrosPerMilli)
      .PartitionWindow(20 * kMicrosPerMilli, a, b,
                       /*heal_after=*/30 * kMicrosPerMilli)
      .LatencySpike(5 * kMicrosPerMilli, a, b, 100 * kMicrosPerMilli,
                    /*duration=*/10 * kMicrosPerMilli);
  schedule.Arm();

  // Mid-outage the node is down and the pair partitioned.
  sim.At(30 * kMicrosPerMilli, [&] {
    EXPECT_FALSE(net.IsNodeUp(b));
    EXPECT_TRUE(net.IsPartitioned(a, b));
  });
  sim.Run();

  EXPECT_TRUE(net.IsNodeUp(b));            // restarted
  EXPECT_FALSE(net.IsPartitioned(a, b));   // healed
  EXPECT_EQ(schedule.stats().total, 6u);   // 3 windows = 6 events
  EXPECT_EQ(schedule.trace().size(), 6u);
}

TEST(FaultScheduleTest, UnpairedPartitionAndHealWithObserver) {
  net::Simulator sim;
  net::Network net(&sim);
  net::NodeId a = net.AddNode([](const net::Message&) {});
  net::NodeId b = net.AddNode([](const net::Message&) {});
  chaos::FaultSchedule schedule(&net);
  // PartitionAt/HealAt are independent events, so protocol code (e.g.
  // anti-entropy) can be triggered exactly at the heal edge.
  schedule.PartitionAt(10 * kMicrosPerMilli, a, b)
      .HealAt(40 * kMicrosPerMilli, a, b);
  std::vector<chaos::FaultKind> seen;
  std::vector<Micros> seen_at;
  schedule.SetFaultObserver([&](const chaos::FaultEvent& ev) {
    seen.push_back(ev.kind);
    seen_at.push_back(ev.at);
    EXPECT_EQ(ev.a, a);
    EXPECT_EQ(ev.b, b);
  });
  schedule.Arm();

  sim.At(20 * kMicrosPerMilli, [&] { EXPECT_TRUE(net.IsPartitioned(a, b)); });
  sim.Run();

  EXPECT_FALSE(net.IsPartitioned(a, b));
  ASSERT_EQ(seen.size(), 2u);  // observer fired once per applied fault
  EXPECT_EQ(seen[0], chaos::FaultKind::kPartition);
  EXPECT_EQ(seen[1], chaos::FaultKind::kHeal);
  EXPECT_EQ(seen_at[0], 10 * kMicrosPerMilli);
  EXPECT_EQ(seen_at[1], 40 * kMicrosPerMilli);
  EXPECT_EQ(schedule.stats().total, 2u);
}

// -------------------------------------------------- graceful degradation

TEST(BrokerSheddingTest, BoundedQueueShedsLowestClassFirst) {
  std::vector<QosClass> delivered;
  pubsub::Broker broker(geo::AABB({0, 0, 0}, {100, 100, 100}), 10.0,
                        [&](net::NodeId, const pubsub::Event& e) {
                          delivered.push_back(e.qos);
                        });
  pubsub::Subscription sub;
  sub.subscriber = 1;
  sub.topic = "t";
  broker.Subscribe(sub);
  broker.SetQueueLimit(3);

  for (QosClass qos : {QosClass::kBulk, QosClass::kTelemetry,
                       QosClass::kInteractive, QosClass::kRealtime,
                       QosClass::kBulk}) {
    pubsub::Event e;
    e.topic = "t";
    e.qos = qos;
    broker.Publish(e);
  }
  // Queue holds {telemetry,interactive,realtime}: the first bulk event
  // was evicted by realtime, the second bulk refused at the door.
  EXPECT_EQ(broker.stats().deliveries_shed, 2u);
  EXPECT_EQ(broker.queue_depth(), 3u);
  EXPECT_EQ(broker.stats().queue_high_water, 3u);

  EXPECT_EQ(broker.Drain(), 3u);
  EXPECT_EQ(delivered,
            (std::vector<QosClass>{QosClass::kRealtime,
                                   QosClass::kInteractive,
                                   QosClass::kTelemetry}));
  EXPECT_EQ(broker.queue_depth(), 0u);
}

TEST(ServerlessSheddingTest, ConcurrencyLimitShedsAndServesByClass) {
  net::Simulator sim;
  runtime::ServerlessRuntime rt(&sim, /*keep_alive=*/0);
  runtime::FunctionSpec spec;
  spec.name = "f";
  spec.cold_start = 0;
  spec.exec_time = 10 * kMicrosPerMilli;
  rt.Register(spec);
  rt.SetConcurrencyLimit(/*max_concurrent=*/1, /*queue_limit=*/2);

  std::vector<QosClass> completed;
  auto invoke = [&](QosClass qos) {
    rt.Invoke("f", [&completed, qos] { completed.push_back(qos); }, qos);
  };
  invoke(QosClass::kBulk);         // runs immediately
  invoke(QosClass::kTelemetry);    // queued
  invoke(QosClass::kInteractive);  // queued
  invoke(QosClass::kRealtime);     // queue full: evicts the telemetry waiter
  invoke(QosClass::kBulk);  // queue full of higher classes: shed at the door
  EXPECT_EQ(rt.shed(), 2u);
  EXPECT_EQ(rt.queue_depth(), 2u);
  sim.Run();
  // The free slot always goes to the most important waiter.
  EXPECT_EQ(completed,
            (std::vector<QosClass>{QosClass::kBulk, QosClass::kRealtime,
                                   QosClass::kInteractive}));
  EXPECT_EQ(rt.queue_depth(), 0u);
}

// ---------------------------------------------------- reliable delivery

TEST(ReliableDelivererTest, RetriesThroughPartitionUntilHealed) {
  net::Simulator sim;
  net::Network net(&sim);
  net::NodeId a = net.AddNode([](const net::Message&) {});
  int received = 0;
  net::NodeId b = net.AddNode([&](const net::Message&) { ++received; });
  net.default_link().latency = kMicrosPerMilli;
  net.default_link().bandwidth_bytes_per_sec = 0;

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 50 * kMicrosPerMilli;
  pubsub::ReliableDeliverer deliverer(&net, policy);
  deliverer.breaker_options().failure_threshold = 100;  // no breaker here

  net.Partition(a, b);
  sim.At(200 * kMicrosPerMilli, [&] { net.Heal(a, b); });
  pubsub::Event e;
  e.topic = "t";
  deliverer.Deliver(a, b, e);
  sim.Run();

  const pubsub::ReliableStats& stats = deliverer.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(received, 1);
}

TEST(ReliableDelivererTest, BreakerFastFailsAfterRepeatedFailures) {
  net::Simulator sim;
  net::Network net(&sim);
  net::NodeId a = net.AddNode([](const net::Message&) {});
  net::NodeId b = net.AddNode([](const net::Message&) {});

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 10 * kMicrosPerMilli;
  pubsub::ReliableDeliverer deliverer(&net, policy);
  deliverer.breaker_options().failure_threshold = 3;

  net.Partition(a, b);  // never heals
  pubsub::Event e;
  e.topic = "t";
  deliverer.Deliver(a, b, e);
  sim.Run();

  const pubsub::ReliableStats& stats = deliverer.stats();
  EXPECT_EQ(stats.accepted, 0u);
  // Three failures trip the breaker; the next scheduled attempt
  // fast-fails instead of burning the remaining retry budget.
  EXPECT_EQ(stats.sends, 3u);
  EXPECT_GE(stats.fast_failed, 1u);
  EXPECT_EQ(deliverer.stats().gave_up, 0u);
}

// ----------------------------------------------------- txn chaos recovery

class TxnChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<net::Network>(&sim_);
    for (int i = 0; i < 3; ++i) {
      shards_.push_back(std::make_unique<txn::ShardNode>(net_.get()));
    }
    std::vector<txn::ShardNode*> ptrs;
    for (auto& s : shards_) ptrs.push_back(s.get());
    system_ = std::make_unique<txn::DistributedTxnSystem>(net_.get(), ptrs);
    net_->default_link().latency = 5 * kMicrosPerMilli;
    net_->default_link().bandwidth_bytes_per_sec = 0;
  }

  std::string KeyOnShard(size_t target) {
    for (int i = 0;; ++i) {
      std::string key = "k" + std::to_string(i);
      if (system_->ShardOf(key) == target) return key;
    }
  }

  net::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<txn::ShardNode>> shards_;
  std::unique_ptr<txn::DistributedTxnSystem> system_;
};

TEST_F(TxnChaosTest, RetransmitsDriveCommitThroughTransientPartition) {
  // The prepare round is cut by a partition that heals before the
  // timeout: retransmission must complete the protocol (the seed system
  // would have timed out and aborted).
  chaos::FaultSchedule schedule(net_.get());
  schedule.PartitionWindow(0, system_->coordinator_node(),
                           shards_[1]->node_id(),
                           /*heal_after=*/400 * kMicrosPerMilli);
  schedule.Arm();
  txn::TxnResult result;
  system_->Submit({{KeyOnShard(1), "v"}}, txn::CommitProtocol::kTwoPhase,
                  [&](const txn::TxnResult& r) { result = r; },
                  /*timeout=*/2 * kMicrosPerSecond);
  sim_.Run();
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.latency, 400 * kMicrosPerMilli);  // waited out the fault
  EXPECT_GT(system_->retransmits(), 0u);
  std::string v;
  ASSERT_TRUE(system_->Read(KeyOnShard(1), &v).ok());
  EXPECT_EQ(v, "v");
}

TEST_F(TxnChaosTest, CommittedDecisionIsRedeliveredAfterHeal) {
  // Votes land, then the partition eats the COMMIT.  The transaction
  // times out as committed with the shard unacked; background
  // redelivery must apply the write once the partition heals — zero
  // committed-then-lost writes.
  std::string key = KeyOnShard(1);
  txn::TxnResult result;
  system_->Submit({{key, "durable"}}, txn::CommitProtocol::kTwoPhase,
                  [&](const txn::TxnResult& r) { result = r; },
                  /*timeout=*/200 * kMicrosPerMilli);
  sim_.At(12 * kMicrosPerMilli, [&] {
    net_->Partition(system_->coordinator_node(), shards_[1]->node_id());
  });
  sim_.At(kMicrosPerSecond, [&] {
    net_->Heal(system_->coordinator_node(), shards_[1]->node_id());
  });
  sim_.Run();
  ASSERT_TRUE(result.committed);  // decision was reached before the cut
  EXPECT_GT(system_->redeliveries(), 0u);
  EXPECT_EQ(system_->unresolved_decisions(), 0u);
  std::string v;
  ASSERT_TRUE(system_->Read(key, &v).ok());
  EXPECT_EQ(v, "durable");  // the committed write actually exists
}

TEST_F(TxnChaosTest, BreakerFastFailsSubmissionsToDeadShard) {
  net_->Partition(system_->coordinator_node(), shards_[1]->node_id());
  std::string key = KeyOnShard(1);
  int answered = 0;
  // Each timed-out round records a failure; the default threshold (5)
  // trips the shard's breaker.
  for (int i = 0; i < 5; ++i) {
    sim_.At(Micros(i) * 150 * kMicrosPerMilli, [&] {
      system_->Submit({{key, "x"}}, txn::CommitProtocol::kTwoPhase,
                      [&](const txn::TxnResult&) { ++answered; },
                      /*timeout=*/100 * kMicrosPerMilli);
    });
  }
  Micros fast_latency = -1;
  sim_.At(800 * kMicrosPerMilli, [&] {
    system_->Submit({{key, "x"}}, txn::CommitProtocol::kTwoPhase,
                    [&](const txn::TxnResult& r) {
                      ++answered;
                      fast_latency = r.latency;
                    },
                    /*timeout=*/100 * kMicrosPerMilli);
  });
  sim_.Run();
  EXPECT_EQ(answered, 6);
  EXPECT_EQ(system_->fast_fails(), 1u);
  EXPECT_EQ(fast_latency, 0);  // no timeout wait: rejected at submit
}

}  // namespace
}  // namespace deluge

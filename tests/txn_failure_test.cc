// Failure-injection tests for the distributed transaction layer:
// partitions, message loss, and the timeout/abort safety net.

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "txn/distributed.h"

namespace deluge::txn {
namespace {

class TxnFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<net::Network>(&sim_);
    for (int i = 0; i < 3; ++i) {
      shards_.push_back(std::make_unique<ShardNode>(net_.get()));
    }
    std::vector<ShardNode*> ptrs;
    for (auto& s : shards_) ptrs.push_back(s.get());
    system_ = std::make_unique<DistributedTxnSystem>(net_.get(), ptrs);
    net_->default_link().latency = 5 * kMicrosPerMilli;
    net_->default_link().bandwidth_bytes_per_sec = 0;
  }

  /// A key owned by shard `target`.
  std::string KeyOnShard(size_t target) {
    for (int i = 0;; ++i) {
      std::string key = "k" + std::to_string(i);
      if (system_->ShardOf(key) == target) return key;
    }
  }

  net::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<ShardNode>> shards_;
  std::unique_ptr<DistributedTxnSystem> system_;
};

TEST_F(TxnFailureTest, PartitionedShardTimesOutAndAborts) {
  net_->Partition(system_->coordinator_node(), shards_[1]->node_id());
  TxnResult result;
  bool called = false;
  system_->Submit({{KeyOnShard(0), "a"}, {KeyOnShard(1), "b"}},
                  CommitProtocol::kTwoPhase,
                  [&](const TxnResult& r) {
                    result = r;
                    called = true;
                  },
                  /*timeout=*/kMicrosPerSecond);
  sim_.Run();
  ASSERT_TRUE(called);  // the callback MUST fire despite the partition
  EXPECT_FALSE(result.committed);
  EXPECT_GE(result.latency, kMicrosPerSecond);
  EXPECT_EQ(system_->aborted(), 1u);
}

TEST_F(TxnFailureTest, LocksReleasedAfterTimeoutAbort) {
  std::string contended = KeyOnShard(0);
  net_->Partition(system_->coordinator_node(), shards_[1]->node_id());
  bool first_done = false;
  // Txn 1 locks `contended` on shard 0 but stalls on shard 1.
  system_->Submit({{contended, "t1"}, {KeyOnShard(1), "x"}},
                  CommitProtocol::kTwoPhase,
                  [&](const TxnResult&) { first_done = true; },
                  /*timeout=*/kMicrosPerSecond);
  sim_.Run();
  ASSERT_TRUE(first_done);

  // The abort broadcast reached shard 0 (reachable), releasing the lock:
  // a follow-up single-shard txn must commit.
  net_->Heal(system_->coordinator_node(), shards_[1]->node_id());
  TxnResult second;
  system_->Submit({{contended, "t2"}}, CommitProtocol::kTwoPhase,
                  [&](const TxnResult& r) { second = r; });
  sim_.Run();
  EXPECT_TRUE(second.committed);
  std::string v;
  ASSERT_TRUE(system_->Read(contended, &v).ok());
  EXPECT_EQ(v, "t2");
}

TEST_F(TxnFailureTest, LostAckAfterDecisionStillReportsCommit) {
  // Let the prepare/vote round through, then cut the ACK path by
  // partitioning right as the commit round goes out.  The decision was
  // reached, so the timeout must report COMMITTED, not aborted.
  std::string key = KeyOnShard(1);
  TxnResult result;
  bool called = false;
  system_->Submit({{key, "v"}}, CommitProtocol::kTwoPhase,
                  [&](const TxnResult& r) {
                    result = r;
                    called = true;
                  },
                  /*timeout=*/kMicrosPerSecond);
  // Votes complete at ~2 one-way delays (10 ms); cut the link at 12 ms so
  // the COMMIT (in flight) is lost and no ACK ever returns.
  sim_.At(12 * kMicrosPerMilli, [&] {
    net_->Partition(system_->coordinator_node(), shards_[1]->node_id());
  });
  sim_.Run();
  ASSERT_TRUE(called);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(system_->committed(), 1u);
  EXPECT_EQ(system_->aborted(), 0u);
}

TEST_F(TxnFailureTest, LossyLinksEventuallyResolveEveryTransaction) {
  // 10% loss on every link: every submitted transaction must still get a
  // definitive answer (commit or timeout-abort), never hang.
  for (auto& shard : shards_) {
    net::LinkOptions lossy;
    lossy.latency = 5 * kMicrosPerMilli;
    lossy.bandwidth_bytes_per_sec = 0;
    lossy.drop_probability = 0.1;
    net_->SetBidirectional(system_->coordinator_node(), shard->node_id(),
                           lossy);
  }
  int answered = 0;
  const int kTxns = 100;
  for (int i = 0; i < kTxns; ++i) {
    system_->Submit({{"key" + std::to_string(i), "v"}},
                    CommitProtocol::kTwoPhase,
                    [&](const TxnResult&) { ++answered; },
                    /*timeout=*/500 * kMicrosPerMilli);
    sim_.Run();
  }
  EXPECT_EQ(answered, kTxns);
  EXPECT_EQ(system_->committed() + system_->aborted(), uint64_t(kTxns));
  EXPECT_GT(system_->committed(), 0u);  // most should still commit
}

TEST_F(TxnFailureTest, SingleRoundTimesOutUnderPartitionToo) {
  net_->Partition(system_->coordinator_node(), shards_[2]->node_id());
  TxnResult result;
  bool called = false;
  system_->Submit({{KeyOnShard(2), "v"}}, CommitProtocol::kSingleRound,
                  [&](const TxnResult& r) {
                    result = r;
                    called = true;
                  },
                  /*timeout=*/kMicrosPerSecond);
  sim_.Run();
  ASSERT_TRUE(called);
  EXPECT_FALSE(result.committed);
}

}  // namespace
}  // namespace deluge::txn

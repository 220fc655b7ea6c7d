#include <gtest/gtest.h>

#include <vector>

#include "net/aggregation_tree.h"

namespace deluge::net {
namespace {

class AggregationTest : public ::testing::Test {
 protected:
  Simulator sim_;
  Network net_{&sim_};
  std::vector<EpochResult> results_;

  std::unique_ptr<AggregationTree> MakeTree(size_t sensors, size_t fanout,
                                            AggregateFn fn,
                                            Micros timeout = 50 *
                                                             kMicrosPerMilli) {
    return std::make_unique<AggregationTree>(
        &net_, &sim_, sensors, fanout, fn,
        [this](const EpochResult& r) { results_.push_back(r); }, timeout);
  }
};

TEST_F(AggregationTest, SumOfAllSensors) {
  auto tree = MakeTree(10, 3, AggregateFn::kSum);
  for (size_t s = 0; s < 10; ++s) {
    ASSERT_TRUE(tree->Report(s, 1, double(s + 1)).ok());
  }
  sim_.Run();
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(results_[0].epoch, 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 55.0);  // 1+...+10
  EXPECT_EQ(results_[0].contributors, 10u);
}

TEST_F(AggregationTest, MaxAggregation) {
  auto tree = MakeTree(20, 4, AggregateFn::kMax);
  for (size_t s = 0; s < 20; ++s) {
    ASSERT_TRUE(tree->Report(s, 7, s == 13 ? 99.5 : double(s)).ok());
  }
  sim_.Run();
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 99.5);
}

TEST_F(AggregationTest, CountAggregation) {
  auto tree = MakeTree(16, 4, AggregateFn::kCount);
  for (size_t s = 0; s < 16; ++s) {
    ASSERT_TRUE(tree->Report(s, 1, 0.0).ok());
  }
  sim_.Run();
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 16.0);
}

TEST_F(AggregationTest, EpochsAreIndependent) {
  auto tree = MakeTree(4, 2, AggregateFn::kSum);
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(tree->Report(s, 1, 1.0).ok());
    ASSERT_TRUE(tree->Report(s, 2, 2.0).ok());
  }
  sim_.Run();
  ASSERT_EQ(results_.size(), 2u);
  double total = results_[0].value + results_[1].value;
  EXPECT_DOUBLE_EQ(total, 4.0 + 8.0);
}

TEST_F(AggregationTest, TimeoutForwardsPartialAggregate) {
  auto tree = MakeTree(10, 5, AggregateFn::kSum, 20 * kMicrosPerMilli);
  // Only 7 of 10 sensors report this epoch.
  for (size_t s = 0; s < 7; ++s) {
    ASSERT_TRUE(tree->Report(s, 1, 1.0).ok());
  }
  sim_.Run();
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 7.0);
  EXPECT_EQ(results_[0].contributors, 7u);
}

TEST_F(AggregationTest, InNetworkAggregationSavesSinkMessages) {
  // Claim under test (paper Section III): aggregation in the tree means
  // the sink-side link carries O(1) messages per epoch, not O(sensors).
  const size_t kSensors = 128;
  auto tree = MakeTree(kSensors, 4, AggregateFn::kSum);
  const uint64_t sent_before = net_.stats().messages_sent;
  for (size_t s = 0; s < kSensors; ++s) {
    ASSERT_TRUE(tree->Report(s, 1, 1.0).ok());
  }
  sim_.Run();
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, double(kSensors));
  // Total messages = sensor reports + one per interior node, far fewer
  // than sensors * depth that direct-relay flooding would cost; and the
  // root received exactly its fan-in, not 128.
  uint64_t total_msgs = net_.stats().messages_sent - sent_before;
  EXPECT_LT(total_msgs, kSensors + kSensors / 2);
  EXPECT_GE(total_msgs, kSensors + 1);
}

TEST_F(AggregationTest, DeepTreeStructure) {
  auto tree = MakeTree(64, 2, AggregateFn::kSum);
  EXPECT_GE(tree->depth(), 6);  // 64 leaves at fan-in 2
  for (size_t s = 0; s < 64; ++s) {
    ASSERT_TRUE(tree->Report(s, 1, 1.0).ok());
  }
  sim_.Run();
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 64.0);
}

TEST_F(AggregationTest, InvalidSensorRejected) {
  auto tree = MakeTree(4, 2, AggregateFn::kSum);
  EXPECT_TRUE(tree->Report(99, 1, 1.0).IsInvalidArgument());
}

TEST_F(AggregationTest, SingleSensorTree) {
  auto tree = MakeTree(1, 4, AggregateFn::kSum);
  ASSERT_TRUE(tree->Report(0, 1, 42.0).ok());
  sim_.Run();
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_DOUBLE_EQ(results_[0].value, 42.0);
}

}  // namespace
}  // namespace deluge::net

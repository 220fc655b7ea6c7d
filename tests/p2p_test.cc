#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "net/network.h"
#include "p2p/chord.h"

namespace deluge::p2p {
namespace {

class ChordTest : public ::testing::Test {
 protected:
  net::Simulator sim_;
  net::Network net_{&sim_};
  ChordRing ring_{&net_};

  std::vector<RingId> AddPeers(int n) {
    std::vector<RingId> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(ring_.AddPeer("peer" + std::to_string(i)));
    }
    return ids;
  }

  LookupResult GetSync(RingId origin, const std::string& key) {
    LookupResult out;
    ring_.Get(origin, key, [&](const LookupResult& r) { out = r; });
    sim_.Run();
    return out;
  }

  LookupResult PutSync(RingId origin, const std::string& key,
                       const std::string& value) {
    LookupResult out;
    ring_.Put(origin, key, value, [&](const LookupResult& r) { out = r; });
    sim_.Run();
    return out;
  }
};

TEST_F(ChordTest, SingleNodeOwnsEverything) {
  auto ids = AddPeers(1);
  auto put = PutSync(ids[0], "k", "v");
  EXPECT_TRUE(put.found);
  EXPECT_EQ(put.owner, ids[0]);
  EXPECT_EQ(put.hops, 0u);
  auto get = GetSync(ids[0], "k");
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "v");
}

TEST_F(ChordTest, PutThenGetFromAnyOrigin) {
  auto ids = AddPeers(32);
  ASSERT_TRUE(PutSync(ids[0], "avatar:alice", "state1").found);
  for (RingId origin : {ids[3], ids[17], ids[31]}) {
    auto r = GetSync(origin, "avatar:alice");
    EXPECT_TRUE(r.found) << origin;
    EXPECT_EQ(r.value, "state1");
  }
}

TEST_F(ChordTest, MissingKeyReportsOwnerButNotFound) {
  auto ids = AddPeers(8);
  auto r = GetSync(ids[0], "ghost");
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.owner, ring_.OwnerOf(ChordRing::KeyId("ghost")));
}

TEST_F(ChordTest, LookupReachesTheResponsiblePeer) {
  auto ids = AddPeers(64);
  for (int i = 0; i < 50; ++i) {
    std::string key = "key" + std::to_string(i);
    auto r = GetSync(ids[size_t(i) % ids.size()], key);
    EXPECT_EQ(r.owner, ring_.OwnerOf(ChordRing::KeyId(key))) << key;
  }
}

TEST_F(ChordTest, HopsAreLogarithmic) {
  auto ids = AddPeers(256);
  for (int i = 0; i < 200; ++i) {
    GetSync(ids[size_t(i) % ids.size()], "key" + std::to_string(i));
  }
  // log2(256) = 8; greedy Chord averages ~0.5 log2(n).
  EXPECT_LT(ring_.hop_histogram().mean(), 8.0);
  EXPECT_LE(ring_.hop_histogram().max(), 16);
  EXPECT_GT(ring_.hop_histogram().mean(), 1.0);
}

TEST_F(ChordTest, KeysMigrateWhenPeerJoins) {
  auto ids = AddPeers(4);
  ASSERT_TRUE(PutSync(ids[0], "durable", "gold").found);
  // 60 more peers join; the key must still be found.
  for (int i = 0; i < 60; ++i) {
    ring_.AddPeer("late" + std::to_string(i));
  }
  auto r = GetSync(ids[0], "durable");
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, "gold");
  EXPECT_EQ(r.owner, ring_.OwnerOf(ChordRing::KeyId("durable")));
}

TEST_F(ChordTest, KeysMigrateWhenPeerLeaves) {
  auto ids = AddPeers(16);
  ASSERT_TRUE(PutSync(ids[0], "persistent", "data").found);
  // Remove the current owner of the key.
  RingId owner = ring_.OwnerOf(ChordRing::KeyId("persistent"));
  // Pick a surviving origin different from the owner.
  RingId origin = ids[0] == owner ? ids[1] : ids[0];
  ASSERT_TRUE(ring_.RemovePeer(owner).ok());
  auto r = GetSync(origin, "persistent");
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, "data");
}

TEST_F(ChordTest, RemoveLastPeerRejected) {
  auto ids = AddPeers(1);
  EXPECT_TRUE(ring_.RemovePeer(ids[0]).IsInvalidArgument());
  EXPECT_TRUE(ring_.RemovePeer(12345).IsNotFound());
}

TEST_F(ChordTest, ChurnStorm) {
  auto ids = AddPeers(32);
  // Store 50 keys.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        PutSync(ids[0], "k" + std::to_string(i), "v" + std::to_string(i))
            .found);
  }
  // Heavy churn: 20 joins and 20 leaves interleaved.
  std::vector<RingId> added;
  for (int i = 0; i < 20; ++i) {
    added.push_back(ring_.AddPeer("churn" + std::to_string(i)));
    if (i < int(ids.size()) - 1) {
      ASSERT_TRUE(ring_.RemovePeer(ids[size_t(i) + 1]).ok());
    }
  }
  // Every key survives, reachable from a stable origin.
  for (int i = 0; i < 50; ++i) {
    auto r = GetSync(ids[0], "k" + std::to_string(i));
    EXPECT_TRUE(r.found) << "k" << i;
    EXPECT_EQ(r.value, "v" + std::to_string(i));
  }
}

TEST_F(ChordTest, LatencyReflectsNetworkAndHops) {
  net_.default_link().latency = 10 * kMicrosPerMilli;
  net_.default_link().bandwidth_bytes_per_sec = 0;
  auto ids = AddPeers(64);
  auto r = GetSync(ids[0], "somekey");
  // Each overlay hop pays at least one network traversal.
  EXPECT_GE(r.latency, Micros(r.hops) * 10 * kMicrosPerMilli);
}

TEST(ChordKeyTest, KeyIdDeterministic) {
  EXPECT_EQ(ChordRing::KeyId("a"), ChordRing::KeyId("a"));
  EXPECT_NE(ChordRing::KeyId("a"), ChordRing::KeyId("b"));
}

TEST_F(ChordTest, SuccessorsOfWalksTheRingInOrder) {
  auto ids = AddPeers(8);
  std::vector<RingId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  const RingId target = ChordRing::KeyId("some object");
  auto succ = ring_.SuccessorsOf(target, 3);
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(succ[0], ring_.OwnerOf(target));
  // Expected: the owner and the next peers clockwise, wrapping.
  auto it = std::lower_bound(sorted.begin(), sorted.end(), target);
  if (it == sorted.end()) it = sorted.begin();
  for (size_t i = 0; i < succ.size(); ++i) {
    EXPECT_EQ(succ[i], *it) << "position " << i;
    if (++it == sorted.end()) it = sorted.begin();
  }
  // Asking for more successors than peers returns every peer once.
  auto all = ring_.SuccessorsOf(target, 100);
  EXPECT_EQ(all.size(), ids.size());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, sorted);
}

TEST_F(ChordTest, LookupCompletesWhenTheOwnerIsDead) {
  auto ids = AddPeers(32);
  const RingId owner = ring_.OwnerOf(ChordRing::KeyId("hot-key"));
  ASSERT_TRUE(PutSync(ids[0], "hot-key", "v").found);
  // Fail-stop the owner's node without removing it from the overlay:
  // fingers and successor pointers still reference it, as they would
  // between a real crash and the next stabilization round.
  net_.SetNodeUp(ring_.NodeIdOf(owner), false);

  RingId origin = ids[0] == owner ? ids[1] : ids[0];
  auto r = GetSync(origin, "hot-key");
  // The successor-list fallback answers from the next live peer instead
  // of dropping the lookup: the value (stored only on the dead owner) is
  // gone, but the routing layer still terminates.
  EXPECT_FALSE(r.found);
  EXPECT_NE(r.owner, owner);
  EXPECT_GT(r.hops, 0u);
}

}  // namespace
}  // namespace deluge::p2p

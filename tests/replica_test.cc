// Tests for the replicated quorum storage fabric (DESIGN.md §11):
// record wire coding, the φ-accrual failure detector, durable backings,
// quorum writes/reads over the Chord preference list, sloppy quorums
// with hinted handoff, read repair, session guarantees, and
// anti-entropy convergence after partitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "consistency/session.h"
#include "net/network.h"
#include "net/simulator.h"
#include "p2p/chord.h"
#include "replica/backing.h"
#include "replica/failure_detector.h"
#include "replica/replicated_store.h"
#include "replica/wire.h"
#include "storage/kv_store.h"

namespace deluge::replica {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir =
      (fs::temp_directory_path() / ("deluge_replica_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------------ wire

TEST(ReplicaWireTest, RecordRoundTrip) {
  Record in;
  in.version = {42, 7};
  in.value = "payload bytes";
  std::string buf = EncodeRecord(in);
  std::string_view view(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&view, &out));
  EXPECT_EQ(out.version, in.version);
  EXPECT_FALSE(out.tombstone);
  EXPECT_EQ(out.value, "payload bytes");
  EXPECT_TRUE(view.empty());
}

TEST(ReplicaWireTest, TombstoneSurvivesCoding) {
  Record in;
  in.version = {3, 1};
  in.tombstone = true;
  std::string buf = EncodeRecord(in);
  std::string_view view(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&view, &out));
  EXPECT_TRUE(out.tombstone);
}

TEST(ReplicaWireTest, NewerIsLastWriterWins) {
  EXPECT_TRUE(Newer({2, 1}, {1, 9}));   // higher counter wins
  EXPECT_TRUE(Newer({1, 2}, {1, 1}));   // writer id breaks ties
  EXPECT_FALSE(Newer({1, 1}, {1, 1}));  // equal is not newer
}

TEST(ReplicaWireTest, RingRangeWrapsAndFullRing) {
  EXPECT_TRUE(RingInOpenClosed(10, 11, 20));
  EXPECT_TRUE(RingInOpenClosed(10, 20, 20));
  EXPECT_FALSE(RingInOpenClosed(10, 10, 20));  // open at lo
  EXPECT_FALSE(RingInOpenClosed(10, 21, 20));
  // Wrapping range (hi < lo).
  EXPECT_TRUE(RingInOpenClosed(~0ull - 5, 3, 10));
  EXPECT_FALSE(RingInOpenClosed(~0ull - 5, ~0ull - 6, 10));
  // lo == hi spans the whole ring.
  EXPECT_TRUE(RingInOpenClosed(7, 7, 7));
}

TEST(ReplicaWireTest, DigestDependsOnVersionNotOrder) {
  const uint64_t a1 = DigestEntry("a", {1, 1});
  const uint64_t a2 = DigestEntry("a", {2, 1});
  const uint64_t b1 = DigestEntry("b", {1, 1});
  EXPECT_NE(a1, a2);  // a version bump changes the digest
  // XOR accumulation is order-independent by construction.
  EXPECT_EQ(a1 ^ b1, b1 ^ a1);
}

// -------------------------------------------------------------- detector

TEST(PhiAccrualDetectorTest, SilenceRaisesSuspicion) {
  FailureDetectorOptions opts;
  opts.phi_threshold = 4.0;
  opts.bootstrap_interval = 100;
  PhiAccrualDetector det(opts);
  det.Register(1, 0);
  EXPECT_TRUE(det.IsAlive(1, 0));
  for (Micros t = 100; t <= 500; t += 100) det.Heartbeat(1, t);
  EXPECT_TRUE(det.IsAlive(1, 600));  // one interval late: fine
  // φ grows linearly with silence; ~10 missed intervals is way past 4.
  EXPECT_FALSE(det.IsAlive(1, 500 + 1500));
  EXPECT_GT(det.Phi(1, 2000), det.Phi(1, 700));
}

TEST(PhiAccrualDetectorTest, HeartbeatResumeRevives) {
  PhiAccrualDetector det;
  det.Register(1, 0);
  det.Heartbeat(1, 100 * kMicrosPerMilli);
  ASSERT_FALSE(det.IsAlive(1, 10 * kMicrosPerSecond));  // long silence
  det.Heartbeat(1, 10 * kMicrosPerSecond);
  EXPECT_TRUE(det.IsAlive(1, 10 * kMicrosPerSecond + 1));
}

TEST(PhiAccrualDetectorTest, UnknownPeerIsMaximallySuspect) {
  PhiAccrualDetector det;
  EXPECT_FALSE(det.IsAlive(99, 0));
  EXPECT_GT(det.Phi(99, 0), 1e6);
}

// -------------------------------------------------------------- backings

enum class BackingKind { kMemory, kKVStore, kObjectStore };

/// The `Backing` contract, run over every implementation.
class BackingConformanceTest : public ::testing::TestWithParam<BackingKind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case BackingKind::kMemory:
        backing_ = std::make_unique<MemoryBacking>();
        break;
      case BackingKind::kKVStore: {
        storage::KVStoreOptions opts;
        opts.dir = TempDir("kv_conformance");
        auto opened = KVStoreBacking::Open(opts);
        ASSERT_TRUE(opened.ok());
        backing_ = std::move(opened).value();
        break;
      }
      case BackingKind::kObjectStore:
        backing_ = std::make_unique<ObjectStoreBacking>();
        break;
    }
  }

  std::unique_ptr<Backing> backing_;
};

TEST_P(BackingConformanceTest, PutGetDeleteAndPrefixScan) {
  Backing& b = *backing_;
  ASSERT_TRUE(b.Put("d!b", "1").ok());
  ASSERT_TRUE(b.Put("h!x", "2").ok());
  ASSERT_TRUE(b.Put("d!a", "3").ok());
  ASSERT_TRUE(b.Put("d!a", "4").ok());  // overwrite
  std::string v;
  ASSERT_TRUE(b.Get("d!a", &v).ok());
  EXPECT_EQ(v, "4");
  EXPECT_TRUE(b.Get("d!c", &v).IsNotFound());

  std::vector<std::string> rows;
  ASSERT_TRUE(b.Scan("d!", [&](const std::string& k, const std::string& r) {
                 rows.push_back(k + "=" + r);
               }).ok());
  EXPECT_EQ(rows, (std::vector<std::string>{"d!a=4", "d!b=1"}));

  ASSERT_TRUE(b.Delete("d!a").ok());
  EXPECT_TRUE(b.Get("d!a", &v).IsNotFound());
  EXPECT_TRUE(b.Delete("d!a").ok());  // deleting an absent key is OK
}

INSTANTIATE_TEST_SUITE_P(
    AllBackings, BackingConformanceTest,
    ::testing::Values(BackingKind::kMemory, BackingKind::kKVStore,
                      BackingKind::kObjectStore),
    [](const ::testing::TestParamInfo<BackingKind>& info) {
      return std::string(info.param == BackingKind::kMemory    ? "Memory"
                         : info.param == BackingKind::kKVStore ? "KVStore"
                                                               : "ObjectStore");
    });

TEST(BackingTest, KVStoreBackingSurvivesReopen) {
  storage::KVStoreOptions opts;
  opts.dir = TempDir("kv_backing");
  {
    auto opened = KVStoreBacking::Open(opts);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<KVStoreBacking> b = std::move(opened).value();
    ASSERT_TRUE(b->Put("d!k1", "r1").ok());
    ASSERT_TRUE(b->Put("h!t!k2", "r2").ok());
    ASSERT_TRUE(b->Put("d!k3", "r3").ok());
    ASSERT_TRUE(b->Delete("d!k3").ok());
  }
  // Reopen from disk: acked records and queued hints must still exist —
  // the durability half of the hinted-handoff contract.
  auto reopened = KVStoreBacking::Open(opts);
  ASSERT_TRUE(reopened.ok());
  std::unique_ptr<KVStoreBacking> b = std::move(reopened).value();
  std::string v;
  ASSERT_TRUE(b->Get("d!k1", &v).ok());
  EXPECT_EQ(v, "r1");
  ASSERT_TRUE(b->Get("h!t!k2", &v).ok());
  EXPECT_EQ(v, "r2");
  EXPECT_TRUE(b->Get("d!k3", &v).IsNotFound());
  std::vector<std::string> keys;
  ASSERT_TRUE(b->Scan("d!", [&](const std::string& k, const std::string&) {
                  keys.push_back(k);
                }).ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"d!k1"}));
}

// ---------------------------------------------------------------- fabric

class ReplicaFabricTest : public ::testing::Test {
 protected:
  void Build(int peers, ReplicaOptions opts = {}) {
    store_ = std::make_unique<ReplicatedStore>(&net_, &ring_, opts);
    for (int i = 0; i < peers; ++i) {
      rings_.push_back(store_->AddReplica("replica" + std::to_string(i)));
    }
  }

  struct PutResult {
    Status status = Status::Internal("not completed");
    Version version;
  };
  PutResult PutSync(const std::string& key, const std::string& value,
                    WriteOptions wo = {}) {
    PutResult r;
    store_->Put(key, value, wo, [&](const Status& s, Version v) {
      r.status = s;
      r.version = v;
    });
    sim_.RunUntil(sim_.Now() + 10 * kMicrosPerSecond);
    return r;
  }

  struct GetResult {
    Status status = Status::Internal("not completed");
    std::string value;
    Version version;
  };
  GetResult GetSync(const std::string& key, ReadOptions ro = {}) {
    GetResult r;
    store_->Get(key, ro,
                [&](const Status& s, const std::string& v, Version ver) {
                  r.status = s;
                  r.value = v;
                  r.version = ver;
                });
    sim_.RunUntil(sim_.Now() + 10 * kMicrosPerSecond);
    return r;
  }

  AntiEntropyReport AntiEntropySync() {
    AntiEntropyReport report;
    store_->RunAntiEntropy(
        [&](const AntiEntropyReport& r) { report = r; });
    sim_.RunUntil(sim_.Now() + 5 * kMicrosPerSecond);
    return report;
  }

  void Advance(Micros d) { sim_.RunUntil(sim_.Now() + d); }

  net::NodeId NodeOf(uint64_t ring) { return store_->node(ring)->node_id(); }

  net::Simulator sim_;
  net::Network net_{&sim_};
  p2p::ChordRing ring_{&net_};
  std::unique_ptr<ReplicatedStore> store_;
  std::vector<uint64_t> rings_;
};

TEST_F(ReplicaFabricTest, QuorumWriteThenReadRoundTrips) {
  Build(5);
  PutResult put = PutSync("avatar:alice", "pose1");
  ASSERT_TRUE(put.status.ok());
  EXPECT_EQ(put.version.counter, 1u);
  GetResult get = GetSync("avatar:alice");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "pose1");
  EXPECT_EQ(get.version, put.version);
  EXPECT_EQ(store_->stats().quorum_writes, 1u);
  EXPECT_EQ(store_->stats().quorum_reads, 1u);
  EXPECT_EQ(store_->stats().write_failures, 0u);
}

TEST_F(ReplicaFabricTest, ObjectsLandOnTheNSuccessorNodes) {
  Build(6);
  ASSERT_TRUE(PutSync("k", "v", WriteOptions{.w = 3}).status.ok());
  std::vector<uint64_t> pl = store_->PreferenceList("k");
  ASSERT_EQ(pl.size(), 3u);
  EXPECT_EQ(pl[0], ring_.OwnerOf(p2p::ChordRing::KeyId("k")));
  for (uint64_t rid : rings_) {
    Record rec;
    const bool should_hold =
        std::find(pl.begin(), pl.end(), rid) != pl.end();
    EXPECT_EQ(store_->node(rid)->LocalGet("k", &rec).ok(), should_hold)
        << "ring " << rid;
    if (should_hold) {
      EXPECT_EQ(rec.value, "v");
    }
  }
}

TEST_F(ReplicaFabricTest, StrictQuorumFailsWhenTooFewReplicasLive) {
  ReplicaOptions opts;
  opts.sloppy_quorum = false;
  opts.write_timeout = 50 * kMicrosPerMilli;
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff = 10 * kMicrosPerMilli;
  Build(5, opts);
  std::vector<uint64_t> pl = store_->PreferenceList("k");
  net_.SetNodeUp(NodeOf(pl[0]), false);
  net_.SetNodeUp(NodeOf(pl[1]), false);
  PutResult put = PutSync("k", "v");  // w=2, only one live owner
  EXPECT_TRUE(put.status.IsUnavailable());
  EXPECT_EQ(store_->stats().write_failures, 1u);
  EXPECT_GE(store_->stats().write_retries, 1u);
}

TEST_F(ReplicaFabricTest, SloppyQuorumHintsAndReplaysOnRecovery) {
  Build(5);
  store_->Start();
  std::vector<uint64_t> pl = store_->PreferenceList("k");
  net_.SetNodeUp(NodeOf(pl[0]), false);
  Advance(2 * kMicrosPerSecond);  // let φ cross the threshold

  PutResult put = PutSync("k", "v");
  ASSERT_TRUE(put.status.ok());  // diverted around the dead owner
  EXPECT_GE(store_->stats().hinted_handoffs, 1u);
  EXPECT_GE(store_->stats().sloppy_writes, 1u);
  size_t hints = 0;
  for (uint64_t rid : rings_) {
    hints += store_->node(rid)->PendingHints(pl[0]);
  }
  EXPECT_EQ(hints, 1u);  // exactly one substitute queued the record
  Record rec;
  EXPECT_TRUE(store_->node(pl[0])->LocalGet("k", &rec).IsNotFound());

  net_.SetNodeUp(NodeOf(pl[0]), true);
  Advance(3 * kMicrosPerSecond);  // detector revives peer -> hint replay

  ASSERT_TRUE(store_->node(pl[0])->LocalGet("k", &rec).ok());
  EXPECT_EQ(rec.value, "v");
  EXPECT_EQ(rec.version, put.version);
  EXPECT_GE(store_->stats().hints_replayed, 1u);
  hints = 0;
  for (uint64_t rid : rings_) hints += store_->node(rid)->PendingHints();
  EXPECT_EQ(hints, 0u);  // delivered hints are deleted at the holder
}

TEST_F(ReplicaFabricTest, DivergentQuorumReadTriggersRepair) {
  Build(3);
  PutResult put = PutSync("k", "fresh", WriteOptions{.w = 3});
  ASSERT_TRUE(put.status.ok());
  // Tamper one replica with an older surviving copy.
  std::vector<uint64_t> pl = store_->PreferenceList("k");
  Record stale;
  stale.version = {0, 5};
  stale.value = "stale";
  ASSERT_TRUE(store_->node(pl[1])->LocalPut("k", stale).ok());

  GetResult get = GetSync("k", ReadOptions{.r = 3});
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "fresh");  // merge picks the newest version
  Advance(kMicrosPerSecond);      // let the repair push land
  EXPECT_GE(store_->stats().read_repairs, 1u);
  Record rec;
  ASSERT_TRUE(store_->node(pl[1])->LocalGet("k", &rec).ok());
  EXPECT_EQ(rec.value, "fresh");
  EXPECT_EQ(rec.version, put.version);
}

TEST_F(ReplicaFabricTest, EventualReadsCanBeStaleAndAreCounted) {
  ReplicaOptions opts;
  opts.write_timeout = 50 * kMicrosPerMilli;
  opts.read_timeout = 50 * kMicrosPerMilli;
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff = 10 * kMicrosPerMilli;
  Build(3, opts);
  ASSERT_TRUE(PutSync("k", "v1", WriteOptions{.w = 3}).status.ok());
  std::vector<uint64_t> pl = store_->PreferenceList("k");

  // Only the first owner is reachable for v2.
  net_.SetNodeUp(NodeOf(pl[1]), false);
  net_.SetNodeUp(NodeOf(pl[2]), false);
  ASSERT_TRUE(PutSync("k", "v2", WriteOptions{.w = 1}).status.ok());

  // Now the freshest replica dies and the stale pair comes back.
  net_.SetNodeUp(NodeOf(pl[0]), false);
  net_.SetNodeUp(NodeOf(pl[1]), true);
  net_.SetNodeUp(NodeOf(pl[2]), true);

  GetResult get = GetSync("k", ReadOptions{.r = 1});
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v1");  // stale but available
  EXPECT_EQ(store_->stats().stale_reads, 1u);
  EXPECT_EQ(store_->AckedVersion("k").counter, 2u);
}

TEST_F(ReplicaFabricTest, ReadYourWritesFailsThenSucceedsWhenReachable) {
  ReplicaOptions opts;
  opts.write_timeout = 50 * kMicrosPerMilli;
  opts.read_timeout = 50 * kMicrosPerMilli;
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff = 10 * kMicrosPerMilli;
  Build(3, opts);
  consistency::Session session;
  ASSERT_TRUE(PutSync("k", "v1", WriteOptions{.w = 3}).status.ok());
  std::vector<uint64_t> pl = store_->PreferenceList("k");

  net_.SetNodeUp(NodeOf(pl[1]), false);
  net_.SetNodeUp(NodeOf(pl[2]), false);
  ASSERT_TRUE(
      PutSync("k", "v2", WriteOptions{.w = 1, .session = &session})
          .status.ok());
  net_.SetNodeUp(NodeOf(pl[0]), false);
  net_.SetNodeUp(NodeOf(pl[1]), true);
  net_.SetNodeUp(NodeOf(pl[2]), true);

  // Eventual mode degrades to the stale copy; read-your-writes refuses.
  ReadOptions eventual{.r = 1};
  EXPECT_EQ(GetSync("k", eventual).value, "v1");
  ReadOptions ryw{.r = 1,
                  .mode = consistency::ReadMode::kReadYourWrites,
                  .session = &session};
  GetResult denied = GetSync("k", ryw);
  EXPECT_TRUE(denied.status.IsUnavailable());

  net_.SetNodeUp(NodeOf(pl[0]), true);
  GetResult get = GetSync("k", ryw);
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "v2");  // the session's own write, once reachable
  EXPECT_TRUE(session.Satisfies("k", get.version));
}

TEST_F(ReplicaFabricTest, DeleteIsAReplicatedTombstone) {
  Build(3);
  ASSERT_TRUE(PutSync("k", "v", WriteOptions{.w = 3}).status.ok());
  Status deleted = Status::Internal("pending");
  store_->Delete("k", WriteOptions{.w = 3},
                 [&](const Status& s, Version) { deleted = s; });
  Advance(kMicrosPerSecond);
  ASSERT_TRUE(deleted.ok());
  GetResult get = GetSync("k", ReadOptions{.r = 3});
  EXPECT_TRUE(get.status.IsNotFound());
  EXPECT_EQ(get.version.counter, 2u);  // the tombstone's version
}

TEST_F(ReplicaFabricTest, AntiEntropyConvergesAfterPartitionHeals) {
  ReplicaOptions opts;
  opts.sloppy_quorum = false;  // force divergence instead of handoff
  opts.write_timeout = 50 * kMicrosPerMilli;
  opts.read_timeout = 50 * kMicrosPerMilli;
  Build(5, opts);
  // Cut the coordinator off from one replica, then write through it.
  const uint64_t victim = rings_[2];
  net_.Partition(store_->coordinator_node(), NodeOf(victim));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        PutSync("k" + std::to_string(i), "v" + std::to_string(i))
            .status.ok());
  }
  size_t missing = 0;
  for (int i = 0; i < 20; ++i) {
    std::vector<uint64_t> pl = store_->PreferenceList("k" + std::to_string(i));
    if (std::find(pl.begin(), pl.end(), victim) == pl.end()) continue;
    Record rec;
    if (!store_->node(victim)
             ->LocalGet("k" + std::to_string(i), &rec)
             .ok()) {
      ++missing;
    }
  }
  ASSERT_GT(missing, 0u);  // the victim actually missed writes

  net_.Heal(store_->coordinator_node(), NodeOf(victim));
  AntiEntropyReport first = AntiEntropySync();
  EXPECT_GT(first.divergent, 0u);
  EXPECT_GE(first.keys_synced, missing);
  AntiEntropyReport second = AntiEntropySync();
  EXPECT_EQ(second.divergent, 0u);  // converged
  EXPECT_EQ(second.keys_synced, 0u);
  EXPECT_EQ(store_->stats().divergent_segments, 0.0);
  EXPECT_EQ(store_->stats().anti_entropy_rounds, 2u);
  // Every preference-list copy of every key now exists.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (uint64_t rid : store_->PreferenceList(key)) {
      Record rec;
      EXPECT_TRUE(store_->node(rid)->LocalGet(key, &rec).ok())
          << key << " missing on ring " << rid;
    }
  }
}

TEST_F(ReplicaFabricTest, FabricRunsOverDurableKVStoreBackings) {
  store_ = std::make_unique<ReplicatedStore>(&net_, &ring_,
                                             ReplicaOptions{});
  for (int i = 0; i < 3; ++i) {
    storage::KVStoreOptions kv;
    kv.dir = TempDir("fabric_kv" + std::to_string(i));
    auto opened = KVStoreBacking::Open(kv);
    ASSERT_TRUE(opened.ok());
    rings_.push_back(store_->AddReplica("durable" + std::to_string(i),
                                        std::move(opened).value()));
  }
  ASSERT_TRUE(PutSync("k", "persisted", WriteOptions{.w = 3}).status.ok());
  GetResult get = GetSync("k", ReadOptions{.r = 2});
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, "persisted");
}

}  // namespace
}  // namespace deluge::replica

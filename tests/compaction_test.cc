// Range-partitioned leveled compaction: k-way merge iterator units,
// streaming sub-compactions (tombstone shadowing, roll-at-threshold,
// parallel vs. serial equivalence), L1 range-pruned reads, SSTable
// footer-format compatibility, and old-manifest upgrade.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/merge_iter.h"
#include "common/thread_pool.h"
#include "storage/bloom.h"
#include "storage/compaction.h"
#include "storage/fault_injection.h"
#include "storage/format.h"
#include "storage/kv_store.h"
#include "storage/sstable.h"

namespace deluge::storage {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir =
      (fs::temp_directory_path() / ("deluge_compaction_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Key(int family, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "f%02d-%06d", family, i);
  return buf;
}

InternalEntry MakeEntry(std::string key, uint64_t seq, std::string value,
                        ValueType type = ValueType::kValue) {
  InternalEntry e;
  e.user_key = std::move(key);
  e.seq = seq;
  e.type = type;
  e.value = std::move(value);
  return e;
}

// The data-region record encoding (mirrors the SSTable writer): the
// reference byte stream for parallel-vs-serial equivalence checks.
void EncodeEntryRef(const InternalEntry& e, std::string* out) {
  PutVarint32(out, uint32_t(e.user_key.size()));
  out->append(e.user_key);
  PutFixed64(out, e.seq);
  out->push_back(char(e.type));
  PutVarint32(out, uint32_t(e.value.size()));
  out->append(e.value);
}

// Concatenated encoded entries of `tables`, in order — table framing
// (index/bloom/footer) excluded, so groupings that differ only in where
// outputs rolled compare equal iff the merged content is identical.
std::string DrainTables(
    const std::vector<std::shared_ptr<SSTable>>& tables) {
  std::string out;
  for (const auto& t : tables) {
    SSTable::Iterator it(t.get());
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      EncodeEntryRef(it.entry(), &out);
    }
    EXPECT_TRUE(it.status().ok());
  }
  return out;
}

// ------------------------------------------------- k-way merge iterator

// Minimal sorted source over (key, tag) pairs; `tag` identifies which
// source an emitted element came from.
struct VecSource {
  const std::vector<std::pair<int, int>>* v;
  size_t i = 0;
  bool Valid() const { return i < v->size(); }
  void Next() { ++i; }
  const std::pair<int, int>& entry() const { return (*v)[i]; }
};

struct PairOrder {
  int operator()(const std::pair<int, int>& a,
                 const std::pair<int, int>& b) const {
    return a.first - b.first;
  }
};

TEST(MergeIteratorTest, YieldsGloballySortedOrder) {
  std::vector<std::pair<int, int>> a{{1, 0}, {4, 0}, {9, 0}};
  std::vector<std::pair<int, int>> b{{2, 1}, {3, 1}, {10, 1}};
  std::vector<std::pair<int, int>> c{{0, 2}, {5, 2}};
  VecSource sa{&a}, sb{&b}, sc{&c};
  KWayMergeIterator<VecSource, PairOrder> merge({&sa, &sb, &sc},
                                                PairOrder{});
  std::vector<int> got;
  for (; merge.Valid(); merge.Next()) got.push_back(merge.entry().first);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 9, 10}));
}

TEST(MergeIteratorTest, TieBreaksTowardLowerSourceIndex) {
  // Equal keys in several sources must surface lowest-source-first:
  // with sources ordered newest-first that IS the LSM shadowing rule.
  std::vector<std::pair<int, int>> newer{{5, 0}, {7, 0}};
  std::vector<std::pair<int, int>> older{{5, 1}, {6, 1}, {7, 1}};
  VecSource sn{&newer}, so{&older};
  KWayMergeIterator<VecSource, PairOrder> merge({&sn, &so}, PairOrder{});
  std::vector<std::pair<int, int>> got;
  for (; merge.Valid(); merge.Next()) got.push_back(merge.entry());
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0], (std::pair<int, int>{5, 0}));  // newer 5 first
  EXPECT_EQ(got[1], (std::pair<int, int>{5, 1}));
  EXPECT_EQ(got[2], (std::pair<int, int>{6, 1}));
  EXPECT_EQ(got[3], (std::pair<int, int>{7, 0}));  // newer 7 first
  EXPECT_EQ(got[4], (std::pair<int, int>{7, 1}));
}

TEST(MergeIteratorTest, EmptySourcesAndEmptyMerge) {
  std::vector<std::pair<int, int>> empty;
  std::vector<std::pair<int, int>> one{{3, 1}};
  {
    VecSource s0{&empty}, s1{&one}, s2{&empty};
    KWayMergeIterator<VecSource, PairOrder> merge({&s0, &s1, &s2},
                                                  PairOrder{});
    ASSERT_TRUE(merge.Valid());
    EXPECT_EQ(merge.entry().first, 3);
    EXPECT_EQ(merge.source_index(), 1u);
    merge.Next();
    EXPECT_FALSE(merge.Valid());
  }
  {
    VecSource s0{&empty};
    KWayMergeIterator<VecSource, PairOrder> merge({&s0}, PairOrder{});
    EXPECT_FALSE(merge.Valid());
  }
}

// --------------------------------------------------- sub-compaction core

// Builds a table at `dir/name` from `entries` (sorted internally first).
std::shared_ptr<SSTable> BuildTable(const std::string& dir,
                                    const std::string& name,
                                    std::vector<InternalEntry> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const InternalEntry& a, const InternalEntry& b) {
                     return InternalEntryComparator()(a, b) < 0;
                   });
  auto t = SSTable::Build(dir + "/" + name, entries);
  EXPECT_TRUE(t.ok());
  return t.value();
}

// A job writing outputs to `dir` with a process-local output counter.
CompactionJob MakeJob(const std::string& dir,
                      std::vector<std::shared_ptr<SSTable>> inputs,
                      uint64_t target_bytes) {
  CompactionJob job;
  job.inputs = std::move(inputs);
  job.target_table_bytes = target_bytes;
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  job.next_output_path = [dir, counter] {
    return dir + "/out" +
           std::to_string(counter->fetch_add(1, std::memory_order_relaxed)) +
           ".sst";
  };
  return job;
}

TEST(SubcompactionTest, TombstoneShadowingAcrossLevels) {
  std::string dir = TempDir("shadow");
  // Older (L1-like) table: values for k0..k3.
  auto old_table = BuildTable(dir, "old.sst",
                              {MakeEntry(Key(0, 0), 1, "old0"),
                               MakeEntry(Key(0, 1), 2, "old1"),
                               MakeEntry(Key(0, 2), 3, "old2"),
                               MakeEntry(Key(0, 3), 4, "old3")});
  // Newer (L0-like) table: deletes k1, rewrites k2.
  auto new_table =
      BuildTable(dir, "new.sst",
                 {MakeEntry(Key(0, 1), 10, "", ValueType::kTombstone),
                  MakeEntry(Key(0, 2), 11, "new2")});

  auto job = MakeJob(dir, {new_table, old_table}, 1 << 20);  // newest first
  auto result = RunSubcompaction(job, KeySpan{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.entries_read, 6u);
  ASSERT_EQ(result.outputs.size(), 1u);

  std::map<std::string, std::string> got;
  SSTable::Iterator it(result.outputs[0].get());
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.entry().type, ValueType::kValue);  // no tombstones emitted
    got[it.entry().user_key] = it.entry().value;
  }
  ASSERT_TRUE(it.status().ok());
  // k1 deleted (tombstone shadowed the old value AND was itself
  // dropped); k2 shows the newer value; k0/k3 survive untouched.
  EXPECT_EQ(got, (std::map<std::string, std::string>{{Key(0, 0), "old0"},
                                                     {Key(0, 2), "new2"},
                                                     {Key(0, 3), "old3"}}));
}

TEST(SubcompactionTest, RollsOutputsAtSizeThreshold) {
  std::string dir = TempDir("roll");
  std::vector<InternalEntry> entries;
  const std::string value(100, 'v');
  for (int i = 0; i < 200; ++i) {
    entries.push_back(MakeEntry(Key(0, i), uint64_t(i + 1), value));
  }
  auto input = BuildTable(dir, "in.sst", entries);

  const uint64_t target = 2048;
  auto job = MakeJob(dir, {input}, target);
  auto result = RunSubcompaction(job, KeySpan{});
  ASSERT_TRUE(result.status.ok());
  ASSERT_GT(result.outputs.size(), 1u);

  // Each output's data region stops within one record of the threshold,
  // outputs are non-overlapping and ascending, and nothing was lost.
  const uint64_t record_size = 1 + Key(0, 0).size() + 8 + 1 + 1 + value.size();
  int total = 0;
  std::string prev_max;
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    const auto& t = result.outputs[i];
    EXPECT_LE(t->file_size(), target + record_size);
    if (i + 1 < result.outputs.size()) {
      EXPECT_GE(t->file_size(), target);  // only the tail may be short
    }
    if (i > 0) {
      EXPECT_LT(prev_max, t->min_key());
    }
    prev_max = t->max_key();
    total += int(t->entry_count());
  }
  EXPECT_EQ(total, 200);
}

TEST(SubcompactionTest, SpanBoundariesPartitionExactly) {
  std::string dir = TempDir("spans");
  std::vector<InternalEntry> entries;
  for (int i = 0; i < 400; ++i) {
    entries.push_back(MakeEntry(Key(0, i), uint64_t(i + 1), "v"));
  }
  auto input = BuildTable(dir, "in.sst", entries);
  std::vector<std::shared_ptr<SSTable>> inputs{input};

  auto boundaries = PickSubcompactionBoundaries(inputs, 4);
  ASSERT_GE(boundaries.size(), 1u);
  auto spans = SpansFromBoundaries(boundaries);
  ASSERT_EQ(spans.size(), boundaries.size() + 1);

  auto job = MakeJob(dir, inputs, 1 << 20);
  uint64_t consumed = 0;
  std::set<std::string> keys;
  for (const auto& span : spans) {
    auto r = RunSubcompaction(job, span);
    ASSERT_TRUE(r.status.ok());
    consumed += r.entries_read;
    for (const auto& t : r.outputs) {
      SSTable::Iterator it(t.get());
      for (it.SeekToFirst(); it.Valid(); it.Next()) {
        EXPECT_TRUE(keys.insert(it.entry().user_key).second)
            << "key emitted by two spans: " << it.entry().user_key;
      }
    }
  }
  // Every input entry consumed exactly once across the partition.
  EXPECT_EQ(consumed, 400u);
  EXPECT_EQ(keys.size(), 400u);
}

TEST(SubcompactionTest, ParallelSpansMatchSingleThreadedReference) {
  std::string dir = TempDir("parallel_ref");
  // Three overlapping L0-style tables with interleaved updates and
  // deletes, newest first.
  std::vector<InternalEntry> newest, mid, oldest;
  for (int i = 0; i < 300; ++i) {
    oldest.push_back(MakeEntry(Key(0, i), uint64_t(i + 1), "old"));
  }
  for (int i = 0; i < 300; i += 2) {
    mid.push_back(MakeEntry(Key(0, i), uint64_t(1000 + i), "mid"));
  }
  for (int i = 0; i < 300; i += 3) {
    newest.push_back(i % 2 == 0
                         ? MakeEntry(Key(0, i), uint64_t(2000 + i), "",
                                     ValueType::kTombstone)
                         : MakeEntry(Key(0, i), uint64_t(2000 + i), "new"));
  }
  std::vector<std::shared_ptr<SSTable>> inputs{
      BuildTable(dir, "l0a.sst", newest), BuildTable(dir, "l0b.sst", mid),
      BuildTable(dir, "l1.sst", oldest)};

  // Reference: one span, one thread.
  std::string ref_dir = TempDir("parallel_ref_serial");
  auto ref_job = MakeJob(ref_dir, inputs, 4096);
  auto ref = RunSubcompaction(ref_job, KeySpan{});
  ASSERT_TRUE(ref.status.ok());

  // Partitioned: the same merge cut into >= 2 spans, run concurrently.
  auto boundaries = PickSubcompactionBoundaries(inputs, 4);
  ASSERT_GE(boundaries.size(), 1u);
  auto spans = SpansFromBoundaries(boundaries);
  auto job = MakeJob(dir, inputs, 4096);
  std::vector<SubcompactionResult> results(spans.size());
  std::vector<std::thread> threads;
  threads.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    threads.emplace_back(
        [&, i] { results[i] = RunSubcompaction(job, spans[i]); });
  }
  for (auto& t : threads) t.join();

  std::vector<std::shared_ptr<SSTable>> parallel_outputs;
  uint64_t consumed = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.ok());
    consumed += r.entries_read;
    parallel_outputs.insert(parallel_outputs.end(), r.outputs.begin(),
                            r.outputs.end());
  }
  EXPECT_EQ(consumed, ref.entries_read);
  // The concatenated merged byte streams are identical: partitioning
  // changed only WHERE the work ran, not WHAT was produced.
  EXPECT_EQ(DrainTables(parallel_outputs), DrainTables(ref.outputs));
}

// ------------------------------------------------------ engine behavior

TEST(LeveledCompactionTest, CompactionRewritesOnlyOverlappingTables) {
  KVStoreOptions opts;
  opts.dir = TempDir("overlap_only");
  opts.memtable_max_bytes = 16 << 10;
  opts.l0_compaction_trigger = 100;  // only explicit compactions
  opts.l1_target_table_bytes = 8 << 10;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();

  const std::string value(128, 'a');
  // Family 0 -> L1.
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(db->Put(Key(0, i), value).ok());
  ASSERT_TRUE(db->CompactAll().ok());
  ASSERT_EQ(db->l0_file_count(), 0u);
  ASSERT_GT(db->l1_file_count(), 1u);  // small target => partitioned L1

  std::set<std::string> family0_files;
  for (const auto& e : fs::directory_iterator(opts.dir)) {
    if (e.path().extension() == ".sst") {
      family0_files.insert(e.path().filename().string());
    }
  }
  const uint64_t bytes_after_first = db->stats().bytes_compacted;

  // Family 9 has a disjoint key range: compacting it must leave every
  // family-0 table file in place and rewrite only family-9 data.
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(db->Put(Key(9, i), value).ok());
  ASSERT_TRUE(db->CompactAll().ok());
  for (const auto& f : family0_files) {
    EXPECT_TRUE(fs::exists(opts.dir + "/" + f))
        << "non-overlapping table was rewritten: " << f;
  }
  const uint64_t delta = db->stats().bytes_compacted - bytes_after_first;
  // The second compaction's rewrite cost is bounded by family 9's size,
  // not the database size (families are the same size, so rewriting
  // both would roughly double the delta).
  EXPECT_LT(delta, bytes_after_first + bytes_after_first / 2);
  EXPECT_GT(delta, 0u);

  // Both families fully readable through the partitioned level.
  std::string v;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db->Get(Key(0, i), &v).ok());
    ASSERT_TRUE(db->Get(Key(9, i), &v).ok());
  }
}

TEST(LeveledCompactionTest, RangePruningProbesOneL1Table) {
  KVStoreOptions opts;
  opts.dir = TempDir("range_prune");
  opts.memtable_max_bytes = 16 << 10;
  opts.l0_compaction_trigger = 100;
  opts.l1_target_table_bytes = 4 << 10;  // many small L1 tables
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();

  const std::string value(64, 'a');
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(db->Put(Key(0, i), value).ok());
  ASSERT_TRUE(db->CompactAll().ok());
  ASSERT_EQ(db->l0_file_count(), 0u);
  const size_t l1_tables = db->l1_file_count();
  ASSERT_GT(l1_tables, 3u);

  const uint64_t checks_before = db->stats().bloom_checks;
  const int kProbes = 200;
  std::string v;
  for (int i = 0; i < kProbes; ++i) {
    ASSERT_TRUE(db->Get(Key(0, i * 3), &v).ok());
  }
  const uint64_t checks = db->stats().bloom_checks - checks_before;
  // Binary search on the L1 ranges probes exactly one table per read;
  // without pruning this would be ~l1_tables bloom checks per read.
  EXPECT_EQ(checks, uint64_t(kProbes));

  // A key below every range and one above it probe no table at all.
  EXPECT_TRUE(db->Get("a-before-everything", &v).IsNotFound());
  EXPECT_TRUE(db->Get("zz-after-everything", &v).IsNotFound());
  EXPECT_EQ(db->stats().bloom_checks - checks_before, uint64_t(kProbes));
}

TEST(LeveledCompactionTest, AbortedSubcompactionLeavesNoOrphans) {
  ScriptedIoFaults faults;
  KVStoreOptions opts;
  opts.dir = TempDir("abort_orphans");
  opts.memtable_max_bytes = 16 << 10;
  opts.l0_compaction_trigger = 100;
  opts.l1_target_table_bytes = 8 << 10;  // forces several sub-compactions
  opts.table_faults = &faults;

  auto live_sst_files = [&opts] {
    std::set<std::string> files;
    for (const auto& e : fs::directory_iterator(opts.dir)) {
      if (e.path().extension() == ".sst") {
        files.insert(e.path().filename().string());
      }
    }
    return files;
  };

  {
    auto store = KVStore::Open(opts);
    ASSERT_TRUE(store.ok());
    KVStore* db = store.value().get();
    const std::string value(128, 'a');
    for (int i = 0; i < 500; ++i) ASSERT_TRUE(db->Put(Key(0, i), value).ok());
    ASSERT_TRUE(db->Flush().ok());
    const auto before = live_sst_files();

    // Tear the first output write of the compaction: one sub-compaction
    // aborts while its siblings may have finished whole tables.
    faults.TearWriteAfter(0, /*keep_bytes=*/512);
    Status s = db->CompactAll();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(faults.torn_writes(), 1u);

    // All-or-nothing: the failed compaction's outputs (finished and
    // torn alike) are gone; the input tables are exactly what remains.
    EXPECT_EQ(live_sst_files(), before);
    EXPECT_GT(db->l0_file_count(), 0u);
  }

  // After recovery no orphan outputs exist either, the data is intact,
  // and a retried compaction (without the fault) succeeds.
  opts.table_faults = nullptr;
  auto reopened = KVStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  KVStore* db = reopened.value().get();
  std::string v;
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(db->Get(Key(0, i), &v).ok());
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->l0_file_count(), 0u);
  EXPECT_GT(db->l1_file_count(), 0u);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(db->Get(Key(0, i), &v).ok());
}

TEST(LeveledCompactionTest, SubcompactionsRunInParallelOnSharedPool) {
  ThreadPool pool(4);
  KVStoreOptions opts;
  opts.dir = TempDir("parallel_subs");
  opts.memtable_max_bytes = 32 << 10;
  opts.l0_compaction_trigger = 100;
  opts.l1_target_table_bytes = 8 << 10;
  opts.max_subcompactions = 4;
  opts.background_pool = &pool;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();

  const std::string value(200, 'a');
  for (int i = 0; i < 800; ++i) ASSERT_TRUE(db->Put(Key(0, i), value).ok());
  ASSERT_TRUE(db->CompactAll().ok());

  auto stats = db->stats();
  EXPECT_GE(stats.compactions, 1u);
  // Input size (~170 KB) over the 8 KB table target caps well above
  // max_subcompactions, so the compaction split into 4 slices.
  EXPECT_GE(stats.subcompactions, 4u);
  EXPECT_GT(db->l1_file_count(), 3u);
  std::string v;
  for (int i = 0; i < 800; ++i) ASSERT_TRUE(db->Get(Key(0, i), &v).ok());
}

TEST(LeveledCompactionTest, NewOptionsValidatedAtOpen) {
  {
    KVStoreOptions opts;
    opts.dir = TempDir("bad_target");
    opts.l1_target_table_bytes = 0;
    auto store = KVStore::Open(opts);
    ASSERT_FALSE(store.ok());
    EXPECT_TRUE(store.status().IsInvalidArgument());
  }
  for (int subs : {0, -2}) {
    KVStoreOptions opts;
    opts.dir = TempDir("bad_subs");
    opts.max_subcompactions = subs;
    auto store = KVStore::Open(opts);
    ASSERT_FALSE(store.ok());
    EXPECT_TRUE(store.status().IsInvalidArgument());
  }
}

// ------------------------------------------------- format compatibility

TEST(FormatCompatTest, OpensLegacyV1FooterTables) {
  std::string dir = TempDir("v1_footer");
  // Hand-craft a v1-format table: data + index + bloom + 6-word footer
  // ending in the legacy magic, no range block.
  std::vector<InternalEntry> entries;
  for (int i = 0; i < 50; ++i) {
    entries.push_back(MakeEntry(Key(0, i), uint64_t(i + 1), "v1value"));
  }
  std::string data, index;
  uint64_t index_count = 0;
  BloomFilter bloom(entries.size(), 10);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i % SSTable::kIndexInterval == 0) {
      PutVarint32(&index, uint32_t(entries[i].user_key.size()));
      index.append(entries[i].user_key);
      PutFixed64(&index, data.size());
      ++index_count;
    }
    bloom.Add(entries[i].user_key);
    EncodeEntryRef(entries[i], &data);
  }
  const std::string bloom_bytes = bloom.Serialize();
  std::string footer;
  PutFixed64(&footer, data.size());
  PutFixed64(&footer, index_count);
  PutFixed64(&footer, data.size() + index.size());
  PutFixed64(&footer, bloom_bytes.size());
  PutFixed64(&footer, entries.size());
  PutFixed64(&footer, SSTable::kMagic);
  const std::string path = dir + "/legacy.sst";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data << index << bloom_bytes << footer;
    ASSERT_TRUE(out.good());
  }

  // The v1 table opens (max key recovered by the legacy tail scan) and
  // serves reads; a freshly built table uses the v2 footer.
  auto legacy = SSTable::Open(path);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value()->entry_count(), entries.size());
  EXPECT_EQ(legacy.value()->min_key(), Key(0, 0));
  EXPECT_EQ(legacy.value()->max_key(), Key(0, 49));
  std::string value;
  bool tomb = true;
  ASSERT_TRUE(
      legacy.value()->Get(Key(0, 17), ~SequenceNumber{0}, &value, &tomb).ok());
  EXPECT_FALSE(tomb);
  EXPECT_EQ(value, "v1value");

  auto modern = SSTable::Build(dir + "/modern.sst", entries);
  ASSERT_TRUE(modern.ok());
  EXPECT_EQ(modern.value()->min_key(), Key(0, 0));
  EXPECT_EQ(modern.value()->max_key(), Key(0, 49));
}

TEST(FormatCompatTest, UpgradesOldSingleRunManifest) {
  KVStoreOptions opts;
  opts.dir = TempDir("old_manifest");
  opts.memtable_max_bytes = 16 << 10;
  opts.l0_compaction_trigger = 100;
  {
    auto store = KVStore::Open(opts);
    ASSERT_TRUE(store.ok());
    KVStore* db = store.value().get();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db->Put(Key(0, i), "value" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
    ASSERT_TRUE(db->Put(Key(0, 500), "l0resident").ok());
    ASSERT_TRUE(db->Flush().ok());
  }

  // Rewrite the manifest in the pre-leveled format: no magic line, no
  // key ranges — exactly what the old engine left on disk.
  const std::string manifest_path = opts.dir + "/MANIFEST";
  std::vector<std::pair<int, uint64_t>> tables;
  uint64_t next_file = 0, next_seq = 0;
  {
    std::ifstream in(manifest_path);
    std::string magic;
    ASSERT_TRUE(bool(in >> magic));
    ASSERT_EQ(magic, "DELUGEMANIFEST2");
    ASSERT_TRUE(bool(in >> next_file >> next_seq));
    int level;
    uint64_t number;
    while (in >> level >> number) {
      if (level == 1) {
        std::string hex_min, hex_max;
        ASSERT_TRUE(bool(in >> hex_min >> hex_max));
      }
      tables.emplace_back(level, number);
    }
  }
  ASSERT_FALSE(tables.empty());
  {
    std::ofstream out(manifest_path, std::ios::trunc);
    out << next_file << " " << next_seq << "\n";
    for (const auto& [level, number] : tables) {
      out << level << " " << number << "\n";
    }
    ASSERT_TRUE(out.good());
  }

  // The old-format manifest recovers: every key readable, level shape
  // preserved, and the store keeps working (upgrading the manifest to
  // the range-aware format on its next write).
  auto reopened = KVStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  KVStore* db = reopened.value().get();
  std::string v;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Get(Key(0, i), &v).ok()) << i;
    EXPECT_EQ(v, "value" + std::to_string(i));
  }
  ASSERT_TRUE(db->Get(Key(0, 500), &v).ok());
  EXPECT_EQ(v, "l0resident");
  ASSERT_TRUE(db->CompactAll().ok());
  {
    std::ifstream in(manifest_path);
    std::string magic;
    ASSERT_TRUE(bool(in >> magic));
    EXPECT_EQ(magic, "DELUGEMANIFEST2");
  }
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(db->Get(Key(0, i), &v).ok());
}

}  // namespace
}  // namespace deluge::storage

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/rng.h"
#include "storage/block_store.h"
#include "storage/bloom.h"
#include "storage/format.h"
#include "storage/kv_store.h"
#include "storage/memtable.h"
#include "storage/object_store.h"
#include "storage/skiplist.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace deluge::storage {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / ("deluge_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- Format

TEST(FormatTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  std::string_view v(buf);
  uint32_t a = 0;
  uint64_t b = 0;
  ASSERT_TRUE(GetFixed32(&v, &a));
  ASSERT_TRUE(GetFixed64(&v, &b));
  EXPECT_EQ(a, 0xDEADBEEF);
  EXPECT_EQ(b, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(v.empty());
}

TEST(FormatTest, VarintRoundTrip) {
  std::string buf;
  uint64_t values[] = {0, 1, 127, 128, 16383, 16384, 1ull << 32, ~0ull};
  for (uint64_t x : values) PutVarint64(&buf, x);
  std::string_view v(buf);
  for (uint64_t x : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&v, &got));
    EXPECT_EQ(got, x);
  }
}

TEST(FormatTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  std::string_view v(buf.data(), buf.size() - 1);
  uint64_t got = 0;
  EXPECT_FALSE(GetVarint64(&v, &got));
  std::string_view empty;
  uint32_t f = 0;
  EXPECT_FALSE(GetFixed32(&empty, &f));
}

TEST(FormatTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  std::string_view v(buf), s;
  ASSERT_TRUE(GetLengthPrefixed(&v, &s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(GetLengthPrefixed(&v, &s));
  EXPECT_EQ(s, "");
}

// -------------------------------------------------------------- SkipList

struct IntCmp {
  int operator()(int a, int b) const { return a < b ? -1 : (a > b ? 1 : 0); }
};

TEST(SkipListTest, InsertAndContains) {
  SkipList<int, IntCmp> list;
  for (int x : {5, 1, 9, 3, 7}) list.Insert(x);
  EXPECT_EQ(list.size(), 5u);
  EXPECT_TRUE(list.Contains(5));
  EXPECT_TRUE(list.Contains(1));
  EXPECT_FALSE(list.Contains(2));
}

TEST(SkipListTest, IterationIsSorted) {
  SkipList<int, IntCmp> list;
  Rng rng(7);
  std::set<int> expected;
  for (int i = 0; i < 500; ++i) {
    int v = int(rng.Uniform(10000));
    if (expected.insert(v).second) list.Insert(v);
  }
  SkipList<int, IntCmp>::Iterator it(&list);
  auto eit = expected.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++eit) {
    ASSERT_NE(eit, expected.end());
    EXPECT_EQ(it.key(), *eit);
  }
  EXPECT_EQ(eit, expected.end());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  SkipList<int, IntCmp> list;
  for (int x : {10, 20, 30}) list.Insert(x);
  SkipList<int, IntCmp>::Iterator it(&list);
  it.Seek(15);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 20);
  it.Seek(30);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 30);
  it.Seek(31);
  EXPECT_FALSE(it.Valid());
}

// ----------------------------------------------------------------- Bloom

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.Add("key" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain("key" + std::to_string(i)));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) bloom.Add("key" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("absent" + std::to_string(i))) ++fp;
  }
  EXPECT_LT(fp, 300);  // ~1% expected; 3% bound is generous
}

TEST(BloomTest, SerializeRoundTrip) {
  BloomFilter bloom(100);
  bloom.Add("alpha");
  bloom.Add("beta");
  BloomFilter restored = BloomFilter::Deserialize(bloom.Serialize());
  EXPECT_TRUE(restored.MayContain("alpha"));
  EXPECT_TRUE(restored.MayContain("beta"));
  EXPECT_EQ(restored.bit_count(), bloom.bit_count());
}

TEST(BloomTest, CorruptDeserializeIsSafe) {
  BloomFilter f = BloomFilter::Deserialize("short");
  EXPECT_TRUE(f.MayContain("anything"));  // degenerate: always maybe
}

// ------------------------------------------------------------------- WAL

TEST(WalTest, AppendAndReplay) {
  std::string dir = TempDir("wal1");
  std::string path = dir + "/wal.log";
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append("first").ok());
    ASSERT_TRUE(wal.Append("second", /*sync=*/true).ok());
  }
  std::vector<std::string> records;
  auto n = WriteAheadLog::Replay(
      path, [&](std::string_view r) { records.emplace_back(r); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);
  EXPECT_EQ(records, (std::vector<std::string>{"first", "second"}));
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  std::string dir = TempDir("wal2");
  std::string path = dir + "/wal.log";
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append("good").ok());
    ASSERT_TRUE(wal.Append("will-be-torn").ok());
  }
  // Truncate the last 5 bytes to simulate a crash mid-write.
  auto size = fs::file_size(path);
  fs::resize_file(path, size - 5);

  std::vector<std::string> records;
  auto n = WriteAheadLog::Replay(
      path, [&](std::string_view r) { records.emplace_back(r); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(records[0], "good");
}

TEST(WalTest, CorruptRecordStopsReplay) {
  std::string dir = TempDir("wal3");
  std::string path = dir + "/wal.log";
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append("good").ok());
    ASSERT_TRUE(wal.Append("bad").ok());
  }
  // Flip a payload byte of the second record.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  f.put('X');
  f.close();

  size_t count = 0;
  auto n = WriteAheadLog::Replay(path, [&](std::string_view) { ++count; });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(count, 1u);
}

TEST(WalTest, ResetTruncates) {
  std::string dir = TempDir("wal4");
  std::string path = dir + "/wal.log";
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.Append("data").ok());
  EXPECT_GT(wal.size_bytes(), 0u);
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.size_bytes(), 0u);
  size_t count = 0;
  WriteAheadLog::Replay(path, [&](std::string_view) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(WalTest, MissingFileReplaysNothing) {
  auto n = WriteAheadLog::Replay("/nonexistent/path/wal.log",
                                 [](std::string_view) { FAIL(); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

// -------------------------------------------------------------- MemTable

constexpr size_t kMemTableBudget = 64u << 10;

TEST(MemTableTest, PutThenGet) {
  MemTable mt(kMemTableBudget);
  mt.Add(1, ValueType::kValue, "k", "v1");
  std::string value;
  bool tomb = false;
  ASSERT_TRUE(mt.Get("k", KVStore::kMaxSequence, &value, &tomb));
  EXPECT_FALSE(tomb);
  EXPECT_EQ(value, "v1");
}

TEST(MemTableTest, NewestVersionWins) {
  MemTable mt(kMemTableBudget);
  mt.Add(1, ValueType::kValue, "k", "old");
  mt.Add(2, ValueType::kValue, "k", "new");
  std::string value;
  bool tomb = false;
  ASSERT_TRUE(mt.Get("k", KVStore::kMaxSequence, &value, &tomb));
  EXPECT_EQ(value, "new");
}

TEST(MemTableTest, SnapshotSeesOldVersion) {
  MemTable mt(kMemTableBudget);
  mt.Add(1, ValueType::kValue, "k", "old");
  mt.Add(5, ValueType::kValue, "k", "new");
  std::string value;
  bool tomb = false;
  ASSERT_TRUE(mt.Get("k", /*snapshot=*/3, &value, &tomb));
  EXPECT_EQ(value, "old");
}

TEST(MemTableTest, TombstoneVisible) {
  MemTable mt(kMemTableBudget);
  mt.Add(1, ValueType::kValue, "k", "v");
  mt.Add(2, ValueType::kTombstone, "k", "");
  std::string value;
  bool tomb = false;
  ASSERT_TRUE(mt.Get("k", KVStore::kMaxSequence, &value, &tomb));
  EXPECT_TRUE(tomb);
}

TEST(MemTableTest, MissingKey) {
  MemTable mt(kMemTableBudget);
  mt.Add(1, ValueType::kValue, "a", "v");
  std::string value;
  bool tomb = false;
  EXPECT_FALSE(mt.Get("b", KVStore::kMaxSequence, &value, &tomb));
}

TEST(MemTableTest, FilterNeverHidesAnAddedKey) {
  // A 4 KB budget (a 1 Kbit filter) for 2000 keys: the filter is
  // saturated with false positives, yet every added key (and its newest
  // visible version) must be found and an absent key must still miss.
  MemTable mt(/*budget_bytes=*/4096);
  for (int i = 0; i < 2000; ++i) {
    mt.Add(SequenceNumber(i + 1), ValueType::kValue, "key" + std::to_string(i),
           "v" + std::to_string(i));
  }
  mt.Add(5000, ValueType::kTombstone, "key7", "");
  std::string value;
  bool tomb = false;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(mt.Get("key" + std::to_string(i), KVStore::kMaxSequence,
                       &value, &tomb));
    EXPECT_EQ(tomb, i == 7);
    if (i != 7) {
      EXPECT_EQ(value, "v" + std::to_string(i));
    }
  }
  ASSERT_TRUE(mt.Get("key7", 4999, &value, &tomb));
  EXPECT_FALSE(tomb);
  EXPECT_EQ(value, "v7");
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(mt.Get("absent" + std::to_string(i), KVStore::kMaxSequence,
                        &value, &tomb));
  }
}

// --------------------------------------------------------------- SSTable

std::vector<InternalEntry> MakeEntries(int n, SequenceNumber seq_base = 1) {
  std::vector<InternalEntry> entries;
  for (int i = 0; i < n; ++i) {
    InternalEntry e;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%05d", i);
    e.user_key = buf;
    e.seq = seq_base;
    e.type = ValueType::kValue;
    e.value = "value" + std::to_string(i);
    entries.push_back(e);
  }
  return entries;
}

TEST(SSTableTest, BuildOpenGet) {
  std::string dir = TempDir("sst1");
  auto entries = MakeEntries(100);
  auto table = SSTable::Build(dir + "/t.sst", entries);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value()->entry_count(), 100u);

  std::string value;
  bool tomb = true;
  ASSERT_TRUE(
      table.value()->Get("key00042", KVStore::kMaxSequence, &value, &tomb).ok());
  EXPECT_FALSE(tomb);
  EXPECT_EQ(value, "value42");
  EXPECT_TRUE(table.value()
                  ->Get("key99999", KVStore::kMaxSequence, &value, &tomb)
                  .IsNotFound());
}

TEST(SSTableTest, MinMaxKeys) {
  std::string dir = TempDir("sst2");
  auto table = SSTable::Build(dir + "/t.sst", MakeEntries(50));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->min_key(), "key00000");
  EXPECT_EQ(table.value()->max_key(), "key00049");
}

TEST(SSTableTest, IteratorScansAll) {
  std::string dir = TempDir("sst3");
  auto entries = MakeEntries(257);  // crosses index intervals
  auto table = SSTable::Build(dir + "/t.sst", entries);
  ASSERT_TRUE(table.ok());
  SSTable::Iterator it(table.value().get());
  size_t count = 0;
  std::string prev;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_GE(it.entry().user_key, prev);
    prev = it.entry().user_key;
    ++count;
  }
  EXPECT_EQ(count, 257u);
}

TEST(SSTableTest, SeekPositionsAtLowerBound) {
  std::string dir = TempDir("sst4");
  auto table = SSTable::Build(dir + "/t.sst", MakeEntries(100));
  ASSERT_TRUE(table.ok());
  SSTable::Iterator it(table.value().get());
  it.Seek("key00050");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.entry().user_key, "key00050");
  it.Seek("key000505");  // between 50 and 51
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.entry().user_key, "key00051");
}

TEST(SSTableTest, SnapshotFiltersVersions) {
  std::string dir = TempDir("sst5");
  std::vector<InternalEntry> entries;
  for (SequenceNumber seq : {30, 20, 10}) {  // newest first, internal order
    InternalEntry e;
    e.user_key = "k";
    e.seq = seq;
    e.type = ValueType::kValue;
    e.value = "v" + std::to_string(seq);
    entries.push_back(e);
  }
  auto table = SSTable::Build(dir + "/t.sst", entries);
  ASSERT_TRUE(table.ok());
  std::string value;
  bool tomb = false;
  ASSERT_TRUE(table.value()->Get("k", 25, &value, &tomb).ok());
  EXPECT_EQ(value, "v20");
  ASSERT_TRUE(table.value()->Get("k", 5, &value, &tomb).IsNotFound());
}

TEST(SSTableTest, EmptyTable) {
  std::string dir = TempDir("sst6");
  auto table = SSTable::Build(dir + "/t.sst", {});
  ASSERT_TRUE(table.ok());
  std::string value;
  bool tomb = false;
  EXPECT_TRUE(table.value()
                  ->Get("x", KVStore::kMaxSequence, &value, &tomb)
                  .IsNotFound());
  SSTable::Iterator it(table.value().get());
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
}

TEST(SSTableTest, CorruptFileRejected) {
  std::string dir = TempDir("sst7");
  std::string path = dir + "/bad.sst";
  std::ofstream(path) << "this is not an sstable at all, not even close....";
  auto table = SSTable::Open(path);
  EXPECT_FALSE(table.ok());
}

TEST(SSTableTest, VersionsStraddlingIndexBoundaryReturnNewest) {
  // Regression: many versions of one key span an index-block boundary,
  // so an index point's key EQUALS the lookup target while newer
  // versions live in the previous block.  Seek must start early enough.
  std::string dir = TempDir("sst_straddle");
  std::vector<InternalEntry> entries;
  InternalEntry a;
  a.user_key = "a";
  a.seq = 1000;
  a.value = "va";
  entries.push_back(a);
  // 40 versions of "b", newest (seq 40) first — crosses index interval 16.
  for (int v = 40; v >= 1; --v) {
    InternalEntry b;
    b.user_key = "b";
    b.seq = SequenceNumber(v);
    b.value = "vb" + std::to_string(v);
    entries.push_back(b);
  }
  auto table = SSTable::Build(dir + "/t.sst", entries);
  ASSERT_TRUE(table.ok());
  std::string found;
  bool tomb = false;
  ASSERT_TRUE(
      table.value()->Get("b", KVStore::kMaxSequence, &found, &tomb).ok());
  EXPECT_EQ(found, "vb40");  // the NEWEST version, not a mid-run one
  ASSERT_TRUE(table.value()->Get("b", 25, &found, &tomb).ok());
  EXPECT_EQ(found, "vb25");
}

TEST(SSTableTest, InPlaceProbeAssemblesRecordsAcrossChunks) {
  // 40 KB values: most records straddle a 64 KB read chunk, so the probe
  // must assemble them from two chunks (and keep the second buffered for
  // the next record).  Each value comes back whole, and versions and
  // tombstones resolve as they do inside one chunk — with and without a
  // block cache.
  std::string dir = TempDir("sst_chunks");
  std::vector<InternalEntry> entries;
  for (int i = 0; i < 12; ++i) {
    InternalEntry e;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "big%02d", i);
    e.user_key = buf;
    e.seq = 5;
    e.value = std::string(40 << 10, char('a' + i)) + std::to_string(i);
    entries.push_back(e);
  }
  for (SequenceNumber seq : {30, 20}) {  // "m": deleted at 30, put at 20
    InternalEntry e;
    e.user_key = "m";
    e.seq = seq;
    e.type = seq == 30 ? ValueType::kTombstone : ValueType::kValue;
    e.value = seq == 30 ? "" : std::string(50 << 10, 'm');
    entries.push_back(e);
  }
  BlockCache cache(4 << 20);
  for (BlockCache* c : {static_cast<BlockCache*>(nullptr), &cache}) {
    auto table = SSTable::Build(dir + "/t.sst", entries, 10, nullptr, c);
    ASSERT_TRUE(table.ok());
    ASSERT_GT(table.value()->file_size(), 4 * SSTable::kReadChunkSize);
    std::string value;
    bool tomb = true;
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(table.value()
                      ->Get(entries[size_t(i)].user_key, KVStore::kMaxSequence,
                            &value, &tomb)
                      .ok());
      EXPECT_FALSE(tomb);
      EXPECT_EQ(value, entries[size_t(i)].value);
    }
    ASSERT_TRUE(
        table.value()->Get("m", KVStore::kMaxSequence, &value, &tomb).ok());
    EXPECT_TRUE(tomb);
    ASSERT_TRUE(table.value()->Get("m", 25, &value, &tomb).ok());
    EXPECT_FALSE(tomb);
    EXPECT_EQ(value, std::string(50 << 10, 'm'));
    EXPECT_TRUE(table.value()->Get("m", 10, &value, &tomb).IsNotFound());
    EXPECT_TRUE(table.value()
                    ->Get("big05x", KVStore::kMaxSequence, &value, &tomb)
                    .IsNotFound());
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST(SSTableTest, BloomSkipsAbsentKeys) {
  std::string dir = TempDir("sst8");
  auto table = SSTable::Build(dir + "/t.sst", MakeEntries(1000));
  ASSERT_TRUE(table.ok());
  obs::Counter checks, useful;
  table.value()->set_probe_counters(&checks, &useful);
  std::string value;
  bool tomb = false;
  for (int i = 0; i < 500; ++i) {
    table.value()->Get("missing" + std::to_string(i), KVStore::kMaxSequence,
                       &value, &tomb);
  }
  // The overwhelming majority of absent probes must be answered by the
  // bloom filter without touching the data region.
  EXPECT_EQ(checks.Value(), 500u);
  EXPECT_GT(useful.Value(), 450u);
}

// --------------------------------------------------------------- KVStore

TEST(KVStoreTest, PutGetDelete) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv1");
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  KVStore* db = store.value().get();

  ASSERT_TRUE(db->Put("alpha", "1").ok());
  ASSERT_TRUE(db->Put("beta", "2").ok());
  std::string v;
  ASSERT_TRUE(db->Get("alpha", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(db->Delete("alpha").ok());
  EXPECT_TRUE(db->Get("alpha", &v).IsNotFound());
  ASSERT_TRUE(db->Get("beta", &v).ok());
}

TEST(KVStoreTest, EmptyKeyRejected) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv2");
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store.value()->Put("", "x").IsInvalidArgument());
}

TEST(KVStoreTest, OverwriteReturnsLatest) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv3");
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string v;
  ASSERT_TRUE(db->Get("k", &v).ok());
  EXPECT_EQ(v, "v9");
}

TEST(KVStoreTest, FlushMovesDataToL0AndGetStillWorks) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv4");
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->l0_file_count(), 1u);
  std::string v;
  ASSERT_TRUE(db->Get("key42", &v).ok());
  EXPECT_EQ(v, "v42");
}

TEST(KVStoreTest, AutomaticFlushAndCompaction) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv5");
  opts.memtable_max_bytes = 2048;  // tiny: force many flushes
  opts.l0_compaction_trigger = 3;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        db->Put("key" + std::to_string(i % 500), std::string(32, 'x')).ok());
  }
  auto st = db->stats();
  EXPECT_GT(st.flushes, 0u);
  EXPECT_GT(st.compactions, 0u);
  // All 500 distinct keys still readable.
  std::string v;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db->Get("key" + std::to_string(i), &v).ok()) << i;
  }
}

TEST(KVStoreTest, DeleteSurvivesFlushAndCompaction) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv6");
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  ASSERT_TRUE(db->Put("doomed", "v").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Delete("doomed").ok());
  ASSERT_TRUE(db->Flush().ok());
  std::string v;
  EXPECT_TRUE(db->Get("doomed", &v).IsNotFound());
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_TRUE(db->Get("doomed", &v).IsNotFound());
  EXPECT_EQ(db->l0_file_count(), 0u);
}

TEST(KVStoreTest, RecoveryFromWal) {
  std::string dir = TempDir("kv7");
  {
    KVStoreOptions opts;
    opts.dir = dir;
    auto store = KVStore::Open(opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put("persist", "me").ok());
    // No flush: data only in WAL + memtable at "crash".
  }
  KVStoreOptions opts;
  opts.dir = dir;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  std::string v;
  ASSERT_TRUE(store.value()->Get("persist", &v).ok());
  EXPECT_EQ(v, "me");
}

TEST(KVStoreTest, RecoveryFromSSTablesAndWal) {
  std::string dir = TempDir("kv8");
  {
    KVStoreOptions opts;
    opts.dir = dir;
    auto store = KVStore::Open(opts);
    ASSERT_TRUE(store.ok());
    KVStore* db = store.value().get();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Put("flushed" + std::to_string(i), "x").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("inwal", "y").ok());
  }
  KVStoreOptions opts;
  opts.dir = dir;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  std::string v;
  ASSERT_TRUE(store.value()->Get("flushed25", &v).ok());
  ASSERT_TRUE(store.value()->Get("inwal", &v).ok());
  EXPECT_EQ(v, "y");
}

TEST(KVStoreTest, SequenceMonotoneAcrossRecovery) {
  std::string dir = TempDir("kv9");
  SequenceNumber before;
  {
    KVStoreOptions opts;
    opts.dir = dir;
    auto store = KVStore::Open(opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put("a", "1").ok());
    ASSERT_TRUE(store.value()->Put("b", "2").ok());
    before = store.value()->last_sequence();
  }
  KVStoreOptions opts;
  opts.dir = dir;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Put("c", "3").ok());
  EXPECT_GT(store.value()->last_sequence(), before);
}

TEST(KVStoreTest, IteratorMergedViewSortedAndDeduped) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv10");
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  ASSERT_TRUE(db->Put("b", "old").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Put("b", "new").ok());
  ASSERT_TRUE(db->Put("c", "3").ok());
  ASSERT_TRUE(db->Delete("c").ok());

  auto it = db->NewIterator();
  std::vector<std::pair<std::string, std::string>> got;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    got.emplace_back(it.key(), it.value());
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(got[1], (std::pair<std::string, std::string>{"b", "new"}));
}

TEST(KVStoreTest, IteratorSeek) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv11");
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  for (char c = 'a'; c <= 'e'; ++c) {
    ASSERT_TRUE(db->Put(std::string(1, c), "v").ok());
  }
  auto it = db->NewIterator();
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "c");
  it.Seek("cc");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("z");
  EXPECT_FALSE(it.Valid());
}

TEST(KVStoreTest, LargeWorkloadRandomizedMatchesReference) {
  KVStoreOptions opts;
  opts.dir = TempDir("kv12");
  opts.memtable_max_bytes = 4096;
  opts.l0_compaction_trigger = 3;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  std::map<std::string, std::string> reference;
  Rng rng(99);
  for (int op = 0; op < 3000; ++op) {
    std::string key = "k" + std::to_string(rng.Uniform(200));
    if (rng.Bernoulli(0.2)) {
      reference.erase(key);
      ASSERT_TRUE(db->Delete(key).ok());
    } else {
      std::string value = "v" + std::to_string(op);
      reference[key] = value;
      ASSERT_TRUE(db->Put(key, value).ok());
    }
  }
  for (const auto& [k, v] : reference) {
    std::string got;
    ASSERT_TRUE(db->Get(k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
  // Scan must match reference exactly.
  auto it = db->NewIterator();
  auto rit = reference.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++rit) {
    ASSERT_NE(rit, reference.end());
    EXPECT_EQ(it.key(), rit->first);
    EXPECT_EQ(it.value(), rit->second);
  }
  EXPECT_EQ(rit, reference.end());
}

// ------------------------------------------------------------ ObjectStore

TEST(ObjectStoreTest, PutGetDeleteHead) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("scene/room1.pc", "pointclouddata", "model/pc").ok());
  std::string data;
  ASSERT_TRUE(store.Get("scene/room1.pc", &data).ok());
  EXPECT_EQ(data, "pointclouddata");

  ObjectInfo info;
  ASSERT_TRUE(store.Head("scene/room1.pc", &info).ok());
  EXPECT_EQ(info.size, data.size());
  EXPECT_EQ(info.content_type, "model/pc");
  EXPECT_EQ(info.version, 1u);

  ASSERT_TRUE(store.Delete("scene/room1.pc").ok());
  EXPECT_TRUE(store.Get("scene/room1.pc", &data).IsNotFound());
}

TEST(ObjectStoreTest, VersionBumpsOnReplace) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("obj", "v1").ok());
  ASSERT_TRUE(store.Put("obj", "v2-longer").ok());
  ObjectInfo info;
  ASSERT_TRUE(store.Head("obj", &info).ok());
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(store.total_bytes(), 9u);
}

TEST(ObjectStoreTest, RangeReads) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("blob", "0123456789").ok());
  std::string part;
  ASSERT_TRUE(store.GetRange("blob", 2, 3, &part).ok());
  EXPECT_EQ(part, "234");
  ASSERT_TRUE(store.GetRange("blob", 8, 100, &part).ok());
  EXPECT_EQ(part, "89");
  EXPECT_TRUE(store.GetRange("blob", 11, 1, &part).code() ==
              StatusCode::kOutOfRange);
}

TEST(ObjectStoreTest, ListByPrefix) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("a/1", "x").ok());
  ASSERT_TRUE(store.Put("a/2", "x").ok());
  ASSERT_TRUE(store.Put("b/1", "x").ok());
  auto listed = store.List("a/");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].name, "a/1");
  EXPECT_EQ(listed[1].name, "a/2");
  EXPECT_EQ(store.List().size(), 3u);
}

TEST(ObjectStoreTest, EmptyNameRejected) {
  ObjectStore store;
  EXPECT_TRUE(store.Put("", "x").IsInvalidArgument());
}

// ------------------------------------------------------------- BlockStore

TEST(BlockStoreTest, AllocateWriteReadFree) {
  BlockStore store(8, 64);
  auto block = store.Allocate();
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(store.Write(block.value(), "hello").ok());
  std::string data;
  ASSERT_TRUE(store.Read(block.value(), &data).ok());
  EXPECT_EQ(data.size(), 64u);  // zero-padded to block size
  EXPECT_EQ(data.substr(0, 5), "hello");
  ASSERT_TRUE(store.Free(block.value()).ok());
  EXPECT_TRUE(store.Read(block.value(), &data).IsInvalidArgument());
}

TEST(BlockStoreTest, ExhaustionAndReuse) {
  BlockStore store(2, 16);
  auto b1 = store.Allocate();
  auto b2 = store.Allocate();
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  EXPECT_TRUE(store.Allocate().status().IsResourceExhausted());
  ASSERT_TRUE(store.Free(b1.value()).ok());
  auto b3 = store.Allocate();
  ASSERT_TRUE(b3.ok());
  EXPECT_EQ(b3.value(), b1.value());
}

TEST(BlockStoreTest, OversizeWriteRejected) {
  BlockStore store(1, 8);
  auto b = store.Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(store.Write(b.value(), "123456789").IsInvalidArgument());
}

TEST(BlockStoreTest, UnwrittenBlockReadsAsZeros) {
  BlockStore store(1, 4);
  auto b = store.Allocate();
  ASSERT_TRUE(b.ok());
  std::string data;
  ASSERT_TRUE(store.Read(b.value(), &data).ok());
  EXPECT_EQ(data, std::string(4, '\0'));
}

TEST(BlockStoreTest, DoubleFreeRejected) {
  BlockStore store(2, 8);
  auto b = store.Allocate();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(store.Free(b.value()).ok());
  EXPECT_TRUE(store.Free(b.value()).IsInvalidArgument());
  EXPECT_TRUE(store.Free(99).IsInvalidArgument());
}

// --- BlockCache --------------------------------------------------------

BlockCache::ChunkPtr Chunk(size_t bytes, char fill) {
  return std::make_shared<const std::string>(bytes, fill);
}

TEST(BlockCacheTest, LookupHitAndMissAccounting) {
  BlockCache cache(1 << 20, /*num_shards=*/1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  cache.Insert(1, 0, Chunk(100, 'a'));
  auto got = cache.Lookup(1, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 100u);
  EXPECT_EQ((*got)[0], 'a');
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Same chunk index, different table: a distinct key.
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard with the 64 KB minimum shard budget; 20 KB chunks mean
  // at most three resident.
  BlockCache cache(1, /*num_shards=*/1);
  cache.Insert(1, 0, Chunk(20 << 10, 'a'));
  cache.Insert(1, 1, Chunk(20 << 10, 'b'));
  cache.Insert(1, 2, Chunk(20 << 10, 'c'));
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch chunk 0 so chunk 1 becomes the eviction victim.
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 3, Chunk(20 << 10, 'd'));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);   // evicted (LRU)
  EXPECT_NE(cache.Lookup(1, 0), nullptr);   // survived (recently used)
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_NE(cache.Lookup(1, 3), nullptr);
  EXPECT_LE(cache.size_bytes(), 64u << 10);
}

TEST(BlockCacheTest, OversizedChunkBypassesCache) {
  BlockCache cache(1, /*num_shards=*/1);  // 64 KB shard minimum
  cache.Insert(1, 0, Chunk(20 << 10, 'a'));
  // Larger than the whole shard budget: passed through, not cached,
  // and resident entries stay put.
  cache.Insert(1, 1, Chunk(128 << 10, 'x'));
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
}

TEST(BlockCacheTest, InsertReplacesExistingKey) {
  BlockCache cache(1 << 20, /*num_shards=*/1);
  cache.Insert(7, 3, Chunk(100, 'o'));
  cache.Insert(7, 3, Chunk(200, 'n'));
  auto got = cache.Lookup(7, 3);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 200u);
  EXPECT_EQ((*got)[0], 'n');
  EXPECT_EQ(cache.size_bytes(), 200u);
}

TEST(BlockCacheTest, ShardsSplitCapacityAndKeys) {
  BlockCache cache(4 << 20, /*num_shards=*/4);
  EXPECT_EQ(cache.num_shards(), 4u);
  // Many tables land across shards; total stays within capacity and
  // every entry remains addressable.
  for (uint64_t t = 1; t <= 64; ++t) {
    cache.Insert(t, 0, Chunk(4 << 10, char('a' + t % 26)));
  }
  EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
  size_t found = 0;
  for (uint64_t t = 1; t <= 64; ++t) {
    if (cache.Lookup(t, 0) != nullptr) ++found;
  }
  EXPECT_EQ(found, 64u);  // well under capacity: nothing evicted
}

TEST(BlockCacheTest, EraseTableDropsAllItsChunks) {
  BlockCache cache(1 << 20, /*num_shards=*/4);
  for (uint64_t c = 0; c < 8; ++c) {
    cache.Insert(1, c, Chunk(1 << 10, 'a'));
    cache.Insert(2, c, Chunk(1 << 10, 'b'));
  }
  cache.EraseTable(1);
  for (uint64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(cache.Lookup(1, c), nullptr);
    EXPECT_NE(cache.Lookup(2, c), nullptr);
  }
  EXPECT_EQ(cache.size_bytes(), 8u << 10);
}

TEST(BlockCacheTest, KvStoreReadsPopulateAndHitCache) {
  KVStoreOptions opts;
  opts.dir = TempDir("cache_kv");
  opts.block_cache_bytes = 1 << 20;
  auto store = KVStore::Open(opts);
  ASSERT_TRUE(store.ok());
  KVStore* db = store.value().get();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  std::string v;
  ASSERT_TRUE(db->Get("key50", &v).ok());
  auto after_first = db->stats();
  EXPECT_GT(after_first.cache_misses, 0u);  // cold read filled the cache
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Get("key50", &v).ok());
  }
  auto after_hot = db->stats();
  EXPECT_GT(after_hot.cache_hits, after_first.cache_hits);
  EXPECT_EQ(after_hot.cache_misses, after_first.cache_misses);
}

}  // namespace
}  // namespace deluge::storage

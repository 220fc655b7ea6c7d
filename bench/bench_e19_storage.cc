// E19 — concurrent LSM storage engine (the durable KV tier of Fig. 7's
// disaggregated cloud storage layer).
//
// Claims validated: (a) group commit amortizes the WAL fsync across
// concurrent committers — with 8 syncing writers one leader sync covers
// a whole commit group, vs one fdatasync per write when group commit is
// disabled; (b) application-level WriteBatch gets the same effect
// single-threaded: commit cost per op falls with batch size; (c) the
// sharded block cache turns repeat point reads into memory hits —
// read throughput vs cache budget, with hit rates reported; (d) writes
// scale past one thread because memtable flushes and L0→L1 compactions
// run on a background pool, off the commit path; (e) point reads scale
// with reader threads, alone or racing a writer, because they pin a
// published read view instead of taking the store mutex.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <filesystem>
#include <memory>
#include <string>

#include "common/rng.h"
#include "storage/kv_store.h"

namespace {

using namespace deluge;           // NOLINT
using namespace deluge::storage;  // NOLINT

std::string FreshDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("deluge_e19_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// One store shared by all benchmark threads; created/destroyed by
// thread 0 (the library barriers the timing loop, so every thread sees
// a fully constructed store).
std::unique_ptr<KVStore> g_db;

std::string ThreadKey(int thread, uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%02d-%012llu", thread,
                static_cast<unsigned long long>(i));
  return buf;
}

void ReportWriteCounters(benchmark::State& state, uint64_t commits) {
  auto stats = g_db->stats();
  state.counters["wal_syncs"] = double(stats.wal_syncs);
  state.counters["syncs_per_commit"] =
      commits > 0 ? double(stats.wal_syncs) / double(commits) : 0.0;
  state.counters["flushes"] = double(stats.flushes);
  state.counters["compactions"] = double(stats.compactions);
  state.counters["write_stalls"] = double(stats.write_stalls);
}

// --- (a) group commit vs per-write commit, syncing WAL ----------------
//
// Every Put is durably committed (sync_wal).  Arg 0/1 = group commit
// off/on; thread count sweeps 1..8.  The headline comparison is
// /8 threads, arg 1 vs arg 0.

void BM_E19_SyncPut(benchmark::State& state) {
  const bool group_commit = state.range(0) != 0;
  if (state.thread_index() == 0) {
    KVStoreOptions opts;
    opts.dir = FreshDir("sync_put");
    opts.sync_wal = true;
    opts.group_commit = group_commit;
    opts.memtable_max_bytes = 8u << 20;  // keep flushes off the hot loop
    g_db = std::move(KVStore::Open(opts).value());
  }
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g_db->Put(ThreadKey(state.thread_index(), i++), value));
  }
  state.SetItemsProcessed(int64_t(i));
  if (state.thread_index() == 0) {
    ReportWriteCounters(state, g_db->stats().puts);
    g_db.reset();
  }
}
BENCHMARK(BM_E19_SyncPut)
    ->ArgNames({"group"})
    ->Arg(0)
    ->Arg(1)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- (b) WriteBatch size sweep, single committer ----------------------

void BM_E19_SyncWriteBatch(benchmark::State& state) {
  const size_t batch_ops = size_t(state.range(0));
  KVStoreOptions opts;
  opts.dir = FreshDir("batch");
  opts.sync_wal = true;
  opts.memtable_max_bytes = 8u << 20;
  auto db = std::move(KVStore::Open(opts).value());
  const std::string value(100, 'v');
  uint64_t i = 0;
  WriteBatch batch;
  for (auto _ : state) {
    batch.Clear();
    for (size_t k = 0; k < batch_ops; ++k) {
      batch.Put(ThreadKey(0, i++), value);
    }
    benchmark::DoNotOptimize(db->Write(batch));
  }
  state.SetItemsProcessed(int64_t(i));
  state.counters["ops_per_sync"] = double(batch_ops);
}
BENCHMARK(BM_E19_SyncWriteBatch)
    ->ArgNames({"batch_ops"})
    ->RangeMultiplier(8)
    ->Range(1, 512)
    ->Unit(benchmark::kMicrosecond);

// --- (d) non-durable writes: background flush off the commit path -----

void BM_E19_AsyncPut(benchmark::State& state) {
  if (state.thread_index() == 0) {
    KVStoreOptions opts;
    opts.dir = FreshDir("async_put");
    opts.sync_wal = false;
    opts.memtable_max_bytes = 1u << 20;  // real flush/compaction churn
    opts.l0_compaction_trigger = 4;
    g_db = std::move(KVStore::Open(opts).value());
  }
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g_db->Put(ThreadKey(state.thread_index(), i++), value));
  }
  state.SetItemsProcessed(int64_t(i));
  if (state.thread_index() == 0) {
    ReportWriteCounters(state, g_db->stats().puts);
    g_db.reset();
  }
}
BENCHMARK(BM_E19_AsyncPut)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- (c) point reads vs block-cache budget ----------------------------
//
// A compacted store of 20k keys read with a zipf-ish hot set; arg =
// cache budget in KB (0 disables the cache: every probe is positional
// file I/O).

constexpr int kReadKeys = 20000;

void BM_E19_PointGet(benchmark::State& state) {
  const size_t cache_kb = size_t(state.range(0));
  if (state.thread_index() == 0) {
    KVStoreOptions opts;
    opts.dir = FreshDir("reads");
    opts.block_cache_bytes = cache_kb << 10;
    opts.memtable_max_bytes = 1u << 20;
    auto db = std::move(KVStore::Open(opts).value());
    const std::string value(128, 'v');
    for (int i = 0; i < kReadKeys; ++i) {
      db->Put(ThreadKey(0, uint64_t(i)), value);
    }
    db->CompactAll();
    g_db = std::move(db);
  }
  Rng rng(uint64_t(42 + state.thread_index()));
  std::string v;
  uint64_t gets = 0;
  for (auto _ : state) {
    // 90% of reads hit a 5% hot set; the tail sweeps the keyspace.
    uint64_t k = rng.Uniform(10) < 9 ? rng.Uniform(kReadKeys / 20)
                                     : rng.Uniform(kReadKeys);
    benchmark::DoNotOptimize(g_db->Get(ThreadKey(0, k), &v));
    ++gets;
  }
  state.SetItemsProcessed(int64_t(gets));
  if (state.thread_index() == 0) {
    auto stats = g_db->stats();
    uint64_t lookups = stats.cache_hits + stats.cache_misses;
    state.counters["cache_hit_rate"] =
        lookups > 0 ? double(stats.cache_hits) / double(lookups) : 0.0;
    state.counters["bloom_negatives"] = double(stats.bloom_useful);
    state.counters["disk_probes"] =
        double(stats.bloom_checks - stats.bloom_useful);
    g_db.reset();
  }
}
BENCHMARK(BM_E19_PointGet)
    ->ArgNames({"cache_kb"})
    ->Arg(0)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- point reads racing a writer ---------------------------------------
//
// The same store and hot set as BM_E19_PointGet (16 MB cache), but
// thread 0 overwrites hot keys with async puts while the other threads
// read them: reads hit the memtable the writer is inserting into and
// the tables its flushes and compactions keep replacing.  Reads take no
// store lock, so they neither queue behind the commit leader's insert
// nor stall it.  `gets` and `puts` are aggregate rates; every thread
// runs the same iteration count, so the mix is fixed at threads-1 gets
// per put and the slower side sets the time.

void BM_E19_GetDuringWrites(benchmark::State& state) {
  if (state.thread_index() == 0) {
    KVStoreOptions opts;
    opts.dir = FreshDir("reads_writes");
    opts.block_cache_bytes = 16u << 20;
    opts.memtable_max_bytes = 1u << 20;
    auto db = std::move(KVStore::Open(opts).value());
    const std::string value(128, 'v');
    for (int i = 0; i < kReadKeys; ++i) {
      db->Put(ThreadKey(0, uint64_t(i)), value);
    }
    db->CompactAll();
    g_db = std::move(db);
  }
  const bool writer = state.thread_index() == 0;
  Rng rng(uint64_t(42 + state.thread_index()));
  const std::string value(128, 'w');
  std::string v;
  uint64_t ops = 0;
  for (auto _ : state) {
    uint64_t k = rng.Uniform(10) < 9 ? rng.Uniform(kReadKeys / 20)
                                     : rng.Uniform(kReadKeys);
    if (writer) {
      benchmark::DoNotOptimize(g_db->Put(ThreadKey(0, k), value));
    } else {
      benchmark::DoNotOptimize(g_db->Get(ThreadKey(0, k), &v));
    }
    ++ops;
  }
  state.counters[writer ? "puts" : "gets"] =
      benchmark::Counter(double(ops), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) {
    state.counters["flushes"] = double(g_db->stats().flushes);
    g_db.reset();
  }
}
BENCHMARK(BM_E19_GetDuringWrites)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- write amplification under a range-localized ingest ---------------
//
// Metaverse ingest is spatially clustered: each producer writes its own
// key range, so successive L0 batches carry non-overlapping ranges.
// Range-partitioned leveled compaction only rewrites the L1 slice a
// flush actually overlaps, so bytes_compacted tracks the overlapped
// range, not the database size (the old single-run engine rewrote the
// whole DB every compaction).  Arg = max_subcompactions (1 = serial
// merge, 4 = parallel slices); the headline counter is write_amp =
// bytes_compacted / bytes_flushed.

void BM_E19_WriteAmp(benchmark::State& state) {
  const int subcompactions = int(state.range(0));
  const std::string value(256, 'v');
  constexpr int kRounds = 24, kPutsPerRound = 5000;
  constexpr int kKeysPerRange = 5000;
  KVStoreStats stats;
  size_t l1_tables = 0;
  for (auto _ : state) {
    KVStoreOptions opts;
    opts.dir = FreshDir("write_amp");
    opts.memtable_max_bytes = 256u << 10;
    opts.l0_compaction_trigger = 4;
    opts.max_subcompactions = subcompactions;
    // Tables roll at 512 KB so a ~2 MB range merge splits into several
    // concurrent slices (and overlap picking stays fine-grained).
    opts.l1_target_table_bytes = 512u << 10;
    auto db = std::move(KVStore::Open(opts).value());
    Rng rng(7);
    char key[32];
    // Each round is one producer writing its own disjoint key range;
    // every flush within a round is confined to that range, so a
    // compaction's L0 set overlaps only that range's slice of L1.
    for (int round = 0; round < kRounds; ++round) {
      const int range = round;
      for (int i = 0; i < kPutsPerRound; ++i) {
        std::snprintf(
            key, sizeof(key), "r%02d-%08llu", range,
            static_cast<unsigned long long>(rng.Uniform(kKeysPerRange)));
        benchmark::DoNotOptimize(db->Put(key, value));
      }
    }
    db->Flush();
    db->CompactAll();
    stats = db->stats();
    l1_tables = db->l1_file_count();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kRounds *
                          kPutsPerRound);
  state.counters["write_amp"] =
      stats.bytes_flushed > 0
          ? double(stats.bytes_compacted) / double(stats.bytes_flushed)
          : 0.0;
  state.counters["bytes_compacted_mb"] =
      double(stats.bytes_compacted) / (1024.0 * 1024.0);
  // Per-level physical breakdown of the same traffic: L0 is flush
  // output, L1 is compaction rewrite — the L1 share is where leveled
  // compaction's amplification actually lands on disk.
  state.counters["l0_write_mb"] =
      double(stats.l0_write_bytes) / (1024.0 * 1024.0);
  state.counters["l1_write_mb"] =
      double(stats.l1_write_bytes) / (1024.0 * 1024.0);
  state.counters["l1_write_share"] =
      stats.l0_write_bytes + stats.l1_write_bytes > 0
          ? double(stats.l1_write_bytes) /
                double(stats.l0_write_bytes + stats.l1_write_bytes)
          : 0.0;
  state.counters["compactions"] = double(stats.compactions);
  state.counters["subcompactions"] = double(stats.subcompactions);
  state.counters["l1_tables"] = double(l1_tables);
  state.counters["write_stalls"] = double(stats.write_stalls);
  state.counters["stall_ms"] = double(stats.stall_time_us) / 1000.0;
}
BENCHMARK(BM_E19_WriteAmp)
    ->ArgNames({"subcompactions"})
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- snapshot scan over a multi-level store ---------------------------

void BM_E19_SnapshotScan(benchmark::State& state) {
  KVStoreOptions opts;
  opts.dir = FreshDir("scan");
  opts.memtable_max_bytes = 64u << 10;  // many tables before compaction
  opts.l0_compaction_trigger = 4;
  auto db = std::move(KVStore::Open(opts).value());
  const std::string value(128, 'v');
  for (int i = 0; i < 5000; ++i) {
    db->Put(ThreadKey(0, uint64_t(i)), value);
  }
  db->Flush();
  size_t entries = 0;
  for (auto _ : state) {
    auto it = db->NewIterator();
    entries = 0;
    for (it.SeekToFirst(); it.Valid(); it.Next()) ++entries;
    benchmark::DoNotOptimize(entries);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(entries));
}
BENCHMARK(BM_E19_SnapshotScan)->Unit(benchmark::kMillisecond);

}  // namespace

DELUGE_BENCH_MAIN();

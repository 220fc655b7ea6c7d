// twin_store: concurrent clients against one local LSM store.
//
// Three closed-loop clients (the driver thread plus two more; the store's
// background pool adds one = 4 threads) share one `storage::KVStore`
// (sync_wal=false, 8 MB block cache, 4 MB memtables):
//   client 0 commits a durable kTelemetry `WriteBatch` of 8 puts every
//       5 ms (a telemetry flush; the QoS policy forces the commit group's
//       WAL fdatasync, and async puts queued behind it ride that group);
//   clients 1 and 2 run a closed-loop seeded mix of 25% kBulk async `Put`
//       (no sync) and 75% Zipf(0.99)-skewed point `Get` over every key.
// Pacing the fdatasync'ing committer keeps the shared disk's fsync
// latency, which varies several-fold from minute to minute on a shared
// host, from setting the whole store's throughput.
// The working set (160k keys x ~210 B ≈ 4x the block cache) means hot
// keys hit the cache and cold keys miss; flushes and compactions run
// during the timed phase.  Clients write disjoint key sets, so every
// key has one well-defined last value.
//
// Audit: every read must return a well-formed value of its key; after
// the run every key is read back and compared with its expected last
// value.
//
// Histograms: h[0] WriteBatch commit, h[1] Get, h[2] async Put (ns).
// End to end, "primary" is the Get and "secondary" the durable commit.

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "storage/kv_store.h"

namespace perfbench {
namespace {

using namespace deluge;           // NOLINT
using namespace deluge::storage;  // NOLINT

constexpr int kClients = 3;
constexpr int kSetups = 21;  // an open takes about 0.5 ms
constexpr int kBatchPuts = 8;
constexpr size_t kValueBytes = 200;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kSpanEveryOps = 32;
constexpr int64_t kCommitPeriodNs = 5'000'000;
enum : size_t { kCommitNs = 0, kGetNs = 1, kPutNs = 2 };

std::string Key(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%08llu", (unsigned long long)i);
  return buf;
}

/// "<index>:<version>:" plus deterministic filler up to kValueBytes.
std::string Value(uint64_t i, uint32_t version) {
  char head[40];
  const int n = std::snprintf(head, sizeof(head), "%llu:%u:",
                              (unsigned long long)i, version);
  std::string v(head, size_t(n));
  const char fill = char('a' + (i + version) % 26);
  v.resize(kValueBytes, fill);
  return v;
}

/// True when `v` is a value some writer could have written under key i.
bool WellFormed(uint64_t i, const std::string& v) {
  unsigned long long idx = 0;
  unsigned ver = 0;
  if (v.size() != kValueBytes ||
      std::sscanf(v.c_str(), "%llu:%u:", &idx, &ver) != 2 || idx != i) {
    return false;
  }
  return v == Value(i, ver);
}

double CompactBusyMs() {
  double total_us = 0.0;
  for (const obs::MetricSample& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name == "storage.compact_us") {
      total_us += m.hist.mean() * double(m.hist.count());
    }
  }
  return total_us / 1000.0;
}

struct Twin {
  ThreadPool bg{1};
  std::string dir;
  std::unique_ptr<KVStore> db;
  uint64_t keys = 0;
  /// Per client, the version last written to each of its keys.
  std::vector<std::vector<uint32_t>> versions;

  /// Opens the store in `dir` (closing any open one first).
  Status Open() {
    db.reset();
    KVStoreOptions opts;
    opts.dir = dir;
    opts.background_pool = &bg;
    auto opened = KVStore::Open(opts);
    if (!opened.ok()) return opened.status();
    db = std::move(opened).value();
    return Status::OK();
  }
};

/// The seeded input: every key written once, then compacted into L1.
Status Prefill(Twin* t) {
  std::filesystem::remove_all(t->dir);
  std::filesystem::create_directories(t->dir);
  Status s = t->Open();
  if (!s.ok()) return s;
  WriteBatch batch;
  for (uint64_t i = 0; i < t->keys; ++i) {
    batch.Put(Key(i), Value(i, 0));
    if (batch.count() == 1000 || i + 1 == t->keys) {
      s = t->db->Write(batch);
      if (!s.ok()) return s;
      batch.Clear();
    }
  }
  t->versions.assign(kClients, std::vector<uint32_t>(t->keys, 0));
  return t->db->CompactAll();
}

struct ClientTally {
  uint64_t ops = 0, batches = 0, failed = 0;
};

/// One client until `end_ns`, recording into the window of each
/// operation's start: client 0 paced, the others closed-loop.
void ClientLoop(Twin* t, int client, uint64_t seed, int64_t end_ns,
                Windows* windows, bool record_spans, ClientTally* tally) {
  Rng rng(seed * 1000003ull + uint64_t(client) * 7919ull + 17);
  std::vector<uint32_t>& mine = t->versions[size_t(client)];
  const uint64_t own = (t->keys - uint64_t(client) + kClients - 1) / kClients;
  WriteBatch batch;
  std::string v;
  WriteOptions durable;
  durable.qos = QosClass::kTelemetry;
  WriteOptions bulk;
  bulk.qos = QosClass::kBulk;
  int64_t next_commit = NowNs();
  while (NowNs() < end_ns) {
    if (client == 0) {
      next_commit += kCommitPeriodNs;
      if (next_commit >= end_ns) break;
      windows->SampleSteal(NowNs());
      SleepUntilNs(next_commit);
    }
    const uint64_t r = client == 0 ? 0 : 10 + rng.Uniform(100);
    const char* name;
    Status st;
    const int64_t t0 = NowNs();
    Slot& s = windows->At(t0).Local();
    if (r < 10) {
      batch.Clear();
      for (int k = 0; k < kBatchPuts; ++k) {
        const uint64_t i = rng.Uniform(own) * kClients + uint64_t(client);
        batch.Put(Key(i), Value(i, ++mine[i]));
      }
      st = t->db->Write(batch, durable);
      s.h[kCommitNs].Record(NowNs() - t0);
      ++tally->batches;
      name = "Write";
    } else if (r < 35) {
      const uint64_t i = rng.Uniform(own) * kClients + uint64_t(client);
      st = t->db->Put(Key(i), Value(i, ++mine[i]), bulk);
      s.h[kPutNs].Record(NowNs() - t0);
      name = "Put";
    } else {
      const uint64_t i = rng.Zipf(t->keys, kZipfTheta);
      st = t->db->Get(Key(i), &v);
      s.h[kGetNs].Record(NowNs() - t0);
      if (st.ok() && !WellFormed(i, v)) ++tally->failed;
      name = "Get";
    }
    const int64_t t1 = NowNs();
    if (!st.ok()) ++tally->failed;
    ++s.ops;
    if (record_spans && tally->ops % kSpanEveryOps == 0) {
      const uint64_t req = (uint64_t(client) << 48) | tally->ops;
      const uint64_t root = NextSpanId();
      s.spans.push_back({req, root, 0, "", "op", t0, t1});
      s.spans.push_back({req, NextSpanId(), root, "storage", name, t0, t1});
    }
    ++tally->ops;
  }
}

/// Runs every client until `end_ns` (the driver thread is client 0).
/// `*threads` gets the process thread count while the clients run.
ClientTally RunClients(Twin* t, uint64_t seed, int64_t end_ns,
                       Windows* windows, bool record_spans, int* threads_seen) {
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> threads;
  for (int c = 1; c < kClients; ++c) {
    threads.emplace_back(ClientLoop, t, c, seed, end_ns, windows,
                         record_spans, &tallies[size_t(c)]);
  }
  *threads_seen = ThreadCount();
  ClientLoop(t, 0, seed, end_ns, windows, record_spans, &tallies[0]);
  for (std::thread& th : threads) th.join();
  windows->SampleSteal(NowNs());
  ClientTally sum;
  for (const ClientTally& x : tallies) {
    sum.ops += x.ops;
    sum.batches += x.batches;
    sum.failed += x.failed;
  }
  return sum;
}

}  // namespace

int RunTwinStore(const Args& args, Result* out) {
  const uint64_t keys = args.smoke ? 4000 : 160000;
  const std::string root =
      args.work_dir + "/twin_store-" + std::to_string(::getpid());

  // The prefill builds the input once; set-up is opening the filled store
  // (manifest, table footers, indexes and filters), repeated and its
  // median reported.
  auto t = std::make_unique<Twin>();
  t->dir = root + "/db";
  t->keys = keys;
  const int64_t p0 = NowNs();
  Status s = Prefill(t.get());
  const double prefill_s = double(NowNs() - p0) / 1e9;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups && s.ok(); ++i) {
    t->db.reset();
    const int64_t t0 = NowNs();
    s = t->Open();
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "twin_store: set-up failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  const int64_t start = NowNs();
  const int64_t end = start + int64_t(args.seconds * 1e9);
  const int64_t mid = args.trace ? start + (end - start) / 2 : end;
  Windows wa(start, mid), wb(mid, end);
  int threads = 0;
  const ClientTally a = RunClients(t.get(), args.seed, mid, &wa, false,
                                   &threads);
  const int64_t t_mid = NowNs();
  const KVStoreStats st_mid = t->db->stats();
  const double compact_mid = CompactBusyMs();
  const double cpu_mid = CpuSeconds();
  ClientTally b;
  if (args.trace) {
    b = RunClients(t.get(), args.seed + 1, end, &wb, true, &threads);
  }
  const int64_t t_end = NowNs();
  const double cpu_end = CpuSeconds();
  const KVStoreStats st_end = t->db->stats();
  const double compact_end = CompactBusyMs();

  // Read-back audit of every key.
  uint64_t wrong = 0;
  std::string v;
  for (uint64_t i = 0; i < keys; ++i) {
    const uint32_t want = t->versions[i % kClients][i];
    Status s = t->db->Get(Key(i), &v);
    if (args.fault == "corrupt_readback" && i == keys / 2) v[0] ^= 1;
    if (!s.ok() || v != Value(i, want)) ++wrong;
  }
  out->attempted = a.ops + b.ops;
  if (a.failed + b.failed > 0) {
    out->Fail("reads or writes failed or returned malformed values",
              a.failed + b.failed);
  }
  if (wrong > 0) {
    out->Fail(std::to_string(wrong) + " keys read back a stale or wrong value",
              wrong);
  }

  const Slot ma = wa.All();
  const double window_s = double(t_mid - start) / 1e9 / double(wa.size());
  const auto pct = [](size_t h, double p) {
    return [h, p](const Slot& s) {
      return s.h[h].count() == 0 ? -1.0 : s.h[h].Percentile(p) / 1e3;
    };
  };
  const auto rate = [window_s](const Slot& s) {
    return s.ops == 0 ? -1.0 : double(s.ops) / window_s;
  };
  out->E2e("setup_s", Median(setup_s), "s");
  out->E2e("peak_rss_mb", PeakRssMb(), "MB");
  out->Layer("e2e.ops_per_s", wa.Median(rate), "1/s");
  out->E2e("latency_p50_us", wa.Median(pct(kGetNs, 50)), "us");
  out->Layer("e2e.latency_p99_us", wa.Median(pct(kGetNs, 99)), "us");
  out->Layer("e2e.secondary_p50_us", wa.Median(pct(kCommitNs, 50)), "us");
  out->Layer("e2e.secondary_p99_us", wa.Median(pct(kCommitNs, 99)), "us");
  out->Detail("store_ops_per_s", wa.Median(rate), "1/s");
  out->Detail("commit_p50_us", wa.Median(pct(kCommitNs, 50)), "us");
  out->Detail("commit_p99_us", wa.Median(pct(kCommitNs, 99)), "us");
  out->Detail("commit_samples", double(ma.h[kCommitNs].count()), "count");
  out->Detail("get_p50_us", wa.Median(pct(kGetNs, 50)), "us");
  out->Detail("get_p99_us", wa.Median(pct(kGetNs, 99)), "us");
  out->Detail("get_samples", double(ma.h[kGetNs].count()), "count");
  out->Detail("put_p50_us", wa.Median(pct(kPutNs, 50)), "us");
  out->Detail("whole_phase.store_ops_per_s",
              double(a.ops) / (double(t_mid - start) / 1e9), "1/s");
  out->Detail("windows", double(wa.size()), "count");
  out->Detail("steal_ticks", double(wa.steal_ticks()), "count");
  out->Detail("prefill_s", prefill_s, "s");
  out->Detail("keys", double(keys), "count");
  out->Detail("keys_audited", double(keys), "count");
  out->Detail("driver_threads", double(threads), "count");

  if (args.trace) {
    const Slot mb = wb.All();
    const double wall_b = double(t_end - t_mid) / 1e9;
    const uint64_t hits = st_end.cache_hits - st_mid.cache_hits;
    const uint64_t misses = st_end.cache_misses - st_mid.cache_misses;
    const uint64_t checks = st_end.bloom_checks - st_mid.bloom_checks;
    const uint64_t useful = st_end.bloom_useful - st_mid.bloom_useful;
    const uint64_t flushed = st_end.bytes_flushed - st_mid.bytes_flushed;
    out->Layer("core.cpu_util",
               (cpu_end - cpu_mid) / (wall_b * double(kClients + 1)), "ratio");
    out->Layer("storage.cache_hit_ratio",
               double(hits) / double(std::max<uint64_t>(1, hits + misses)),
               "ratio");
    out->Layer("storage.bloom_useful_ratio",
               double(useful) / double(std::max<uint64_t>(1, checks)), "ratio");
    out->Layer("storage.syncs_per_commit",
               double(st_end.wal_syncs - st_mid.wal_syncs) /
                   double(std::max<uint64_t>(1, b.batches)),
               "ratio");
    out->Layer("storage.write_stall_ms",
               double(st_end.stall_time_us - st_mid.stall_time_us) / 1e3, "ms");
    out->Layer("storage.write_amp",
               double(st_end.bytes_compacted - st_mid.bytes_compacted) /
                   double(std::max<uint64_t>(1, flushed)),
               "ratio");
    out->Layer("storage.compact_busy_ms", compact_end - compact_mid, "ms");
    out->Layer("driver.threads", double(threads), "count");
    out->Layer("trace.overhead_ratio",
               wb.Median(pct(kGetNs, 50)) /
                   std::max(1e-9, wa.Median(pct(kGetNs, 50))),
               "ratio");
    out->Detail("traced.commit_p50_us", wb.Median(pct(kCommitNs, 50)), "us");
    out->Detail("traced.flushes", double(st_end.flushes - st_mid.flushes),
                "count");
    out->Detail("traced.compactions",
                double(st_end.compactions - st_mid.compactions), "count");
    ReportSelfTimes(mb.spans, {}, 0.0, out);
    const std::string path = args.work_dir + "/twin_store.spans.jsonl";
    if (DumpSpans(path, mb.spans)) out->notes.push_back("spans: " + path);
  }
  t->db.reset();
  std::filesystem::remove_all(root);
  return 0;
}

}  // namespace perfbench

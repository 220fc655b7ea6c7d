#ifndef DELUGE_STORAGE_KV_STORE_H_
#define DELUGE_STORAGE_KV_STORE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/qos.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "storage/block_cache.h"
#include "storage/fault_injection.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace deluge::storage {

/// Construction-time configuration for a `KVStore`.
struct KVStoreOptions {
  /// Directory for WAL, SSTables, and the manifest (created if missing).
  std::string dir;
  /// Memtable flush threshold in bytes (must be positive).
  size_t memtable_max_bytes = 4u << 20;
  /// Number of L0 files that triggers a merge into L1 (must be positive).
  int l0_compaction_trigger = 4;
  /// L1 output tables roll to a new file at this data size (must be
  /// positive).  Bounds both per-table size (so compactions can pick
  /// overlapping tables instead of rewriting one giant run) and the
  /// streaming builder's memory.
  uint64_t l1_target_table_bytes = 2u << 20;
  /// Upper bound on concurrent per-key-range sub-compactions within one
  /// compaction (must be positive).  The effective count also scales
  /// with input size — small merges stay single-table, single-threaded.
  int max_subcompactions = 4;
  /// fdatasync the WAL on every commit (durability vs throughput).
  bool sync_wal = false;
  /// Bloom filter density for new SSTables (must be positive).
  int bloom_bits_per_key = 10;
  /// Block-cache budget for SSTable read chunks; 0 disables the cache.
  size_t block_cache_bytes = 8u << 20;
  /// When true (default), concurrent committers join a leader/follower
  /// commit group: one WAL write + one fdatasync covers the batch.
  /// False forces per-write commit (the ablation knob for E19).
  bool group_commit = true;
  /// Pool running background flushes and compactions.  Not owned; must
  /// outlive the store.  When null the store runs a private 2-thread
  /// pool.
  ThreadPool* background_pool = nullptr;
  /// Test hook: fault injector for SSTable builds (flush/compaction
  /// output files).  Not owned.
  IoFaultInjector* table_faults = nullptr;
};

/// Per-write options.  The QoS class maps onto the group-commit vs
/// async-ack durability split (DESIGN.md §13): classes whose policy row
/// sets `durable_commit` (kTelemetry by default) force the commit
/// group's WAL sync even when the store runs `sync_wal = false`, while
/// other classes ride the store default.  One durable writer in a
/// commit group upgrades the whole group — followers get durability for
/// free, the group still pays at most one fdatasync.
struct WriteOptions {
  QosClass qos = QosClass::kBulk;
  /// Policy table consulted for `durable_commit`; null = process default.
  const QosPolicy* policy = nullptr;

  bool WantsSync() const {
    return (policy != nullptr ? *policy : QosPolicy::Default())
        .target(qos)
        .durable_commit;
  }
};

/// Operational counters (a consistent-enough snapshot; internally the
/// store keeps these as atomics so readers never take the write lock).
struct KVStoreStats {
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t gets = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_compacted = 0;
  /// Logical bytes flushed from memtables into L0 — the write-amp
  /// denominator (storage.write_amp = bytes_compacted / bytes_flushed).
  uint64_t bytes_flushed = 0;
  /// Physical SSTable bytes written per level (storage.l0_write_bytes /
  /// storage.l1_write_bytes).  L0 is flush output, L1 is compaction
  /// output; their sum is the total table-file write traffic, and the
  /// L1 share is the rewrite cost leveled compaction pays for read
  /// locality.
  uint64_t l0_write_bytes = 0;
  uint64_t l1_write_bytes = 0;
  /// Per-key-range compaction slices executed (>= compactions; the gap
  /// is the parallelism the range partitioning bought).
  uint64_t subcompactions = 0;
  /// Commit groups whose leader had to stall for a memtable slot.
  uint64_t write_stalls = 0;
  /// Total time commit leaders spent stalled waiting for a memtable
  /// slot, in microseconds.
  uint64_t stall_time_us = 0;
  /// WAL sync calls actually issued (vs commits: the group-commit win).
  uint64_t wal_syncs = 0;
  /// Block-cache counters (zero when the cache is disabled).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Filter effectiveness (storage.bloom_checks / storage.bloom_useful):
  /// filters consulted, and consultations that skipped a table probe.
  /// Their difference is the number of probes that searched a table.
  uint64_t bloom_checks = 0;
  uint64_t bloom_useful = 0;
};

/// A batch of writes applied atomically (one commit, one WAL sync, one
/// CRC-covered WAL record — recovery replays the batch all-or-nothing,
/// never a prefix).  Cheap to build; reusable after `Clear`.
class WriteBatch {
 public:
  void Put(std::string_view key, std::string_view value) {
    ops_.push_back(Op{ValueType::kValue, std::string(key),
                     std::string(value)});
    bytes_ += key.size() + value.size() + 16;
  }
  void Delete(std::string_view key) {
    ops_.push_back(Op{ValueType::kTombstone, std::string(key), ""});
    bytes_ += key.size() + 16;
  }
  size_t count() const { return ops_.size(); }
  size_t approximate_bytes() const { return bytes_; }
  void Clear() {
    ops_.clear();
    bytes_ = 0;
  }

 private:
  friend class KVStore;
  struct Op {
    ValueType type;
    std::string key;
    std::string value;
  };
  std::vector<Op> ops_;
  size_t bytes_ = 0;
};

/// A log-structured merge key-value store — Deluge's durable "KV store"
/// tier from the disaggregated cloud-storage layer (Fig. 7 of the paper).
///
/// Two levels, leveled-compaction style: L0 holds flushed memtables
/// (possibly overlapping, searched newest-first); L1 is a range
/// partition — multiple bounded SSTables, sorted by key range and
/// non-overlapping, so a point read probes at most one of them (binary
/// search on the ranges).  When L0 reaches the trigger, compaction picks
/// the whole L0 set plus only the L1 tables whose ranges overlap it,
/// streams a k-way merge (O(k) memory, never O(DB)), drops shadowed
/// versions and tombstones, and splits large merges into per-key-range
/// sub-compactions that run in parallel on the background pool.  L1
/// tables outside the overlap are untouched — write amplification
/// tracks overlap size, not database size.
/// Crash recovery replays the WAL into a fresh memtable; the MANIFEST
/// file records the live table set (with L1 key ranges) atomically
/// (write-temp + rename) and still reads the older single-run format.
/// WAL framing and the SSTable data/index regions are byte-compatible
/// with the serial engine; SSTable footers gained a version that
/// persists the key range (old tables still open).
///
/// Thread-safety: all public methods are safe to call concurrently.
/// Writers join a leader/follower commit group (one WAL append + at most
/// one fdatasync per group); full memtables are handed to a background
/// pool for flushing while writers continue into a fresh memtable
/// (bounded stall when both memtables are full); L0→L1 compaction runs
/// off the write path and installs its result under a short critical
/// section.  Reads never take the store mutex: every install publishes
/// an immutable read view (memtables + table lists), and `Get` pins the
/// current one through its thread's stripe slot, reads at the last
/// committed sequence number, probes the memtables lock-free and the
/// SSTables in place in the shared block cache.  See DESIGN.md §8
/// "Storage concurrency model".
class KVStore {
 public:
  static constexpr SequenceNumber kMaxSequence = ~SequenceNumber{0};

  /// Opens (or creates) a store in `options.dir`, recovering any previous
  /// state from the manifest and WAL(s) — including completing a flush
  /// that was interrupted by a crash.  Rejects invalid options with
  /// InvalidArgument.
  static Result<std::unique_ptr<KVStore>> Open(const KVStoreOptions& options);

  /// Drains in-flight background flush/compaction before closing.
  ~KVStore();
  KVStore(const KVStore&) = delete;
  KVStore& operator=(const KVStore&) = delete;

  Status Put(std::string_view key, std::string_view value,
             const WriteOptions& opts = {});
  Status Delete(std::string_view key, const WriteOptions& opts = {});

  /// Commits every operation in `batch` atomically: one commit-group
  /// slot, one WAL append, at most one sync.  `opts.qos` decides
  /// durability (see `WriteOptions`) and which `{qos=...}` commit
  /// histogram the latency lands in.
  Status Write(const WriteBatch& batch, const WriteOptions& opts = {});

  /// Point lookup of the newest visible version.
  Status Get(std::string_view key, std::string* value);

  /// Seals the memtable and waits for its background flush to finish
  /// (no-op when empty).
  Status Flush();

  /// Flushes, then synchronously drains L0 into the leveled L1 partition
  /// (waiting out any in-flight background compaction first).  Small
  /// stores end up as one L1 table; larger ones as several bounded,
  /// non-overlapping tables.
  Status CompactAll();

  /// A merged snapshot scan over the whole store in key order, newest
  /// version per key, tombstones elided.  The iterator materializes the
  /// merge at creation time and stays valid independent of later writes.
  class Iterator {
   public:
    bool Valid() const { return pos_ < entries_.size(); }
    void Next() { ++pos_; }
    const std::string& key() const { return entries_[pos_].user_key; }
    const std::string& value() const { return entries_[pos_].value; }
    void Seek(std::string_view key);
    void SeekToFirst() { pos_ = 0; }

   private:
    friend class KVStore;
    std::vector<InternalEntry> entries_;
    size_t pos_ = 0;
  };

  /// Creates a snapshot iterator (O(total entries) at creation).  The
  /// scan reads a pinned read view, so commits proceed meanwhile.
  Iterator NewIterator();

  KVStoreStats stats() const;
  size_t l0_file_count() const;
  size_t l1_file_count() const;
  SequenceNumber last_sequence() const;
  const BlockCache* block_cache() const { return block_cache_.get(); }

 private:
  explicit KVStore(const KVStoreOptions& options);

  /// The sources a read consults, frozen at one install: the mutable
  /// memtable (safe to read while the commit leader inserts), the sealed
  /// one being flushed, and both table levels.  Immutable once published;
  /// its references keep sealed memtables and replaced tables (with
  /// their open fds) alive until the last reader lets go.
  struct ReadView {
    std::shared_ptr<const MemTable> mem;
    std::shared_ptr<const MemTable> imm;  // may be null
    std::vector<std::shared_ptr<SSTable>> l0;  // newest first
    std::vector<std::shared_ptr<SSTable>> l1;  // ascending, disjoint

    /// Newest version of `key` visible at `snapshot`, searching newest
    /// source first.
    Status Get(std::string_view key, SequenceNumber snapshot,
               std::string* value) const;
  };

  /// One queued committer (or a seal request when `batch` is null).
  /// The front of `writers_` is the group leader; followers sleep on
  /// their own cv until the leader commits for them.
  struct Writer {
    explicit Writer(const WriteBatch* b, QosClass q = QosClass::kBulk,
                    bool s = false)
        : batch(b), qos(q), sync(s) {}
    const WriteBatch* batch;
    QosClass qos;
    bool sync;  ///< this writer's class requires a durable commit
    Status status;
    bool done = false;
    std::condition_variable cv;
  };

  Status Recover();
  /// Joins the commit queue; leaders commit the whole group.
  Status CommitWriter(Writer* w);
  /// Leader-only, mu_ held: ensures the memtable has room, sealing a
  /// full one to imm_ (rotating the WAL) and stalling — bounded by the
  /// background flush — when both memtables are full.  With
  /// `force_seal`, seals a non-empty memtable regardless of size.
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock,
                          bool force_seal);
  /// mu_ held, imm_ empty: wal.log -> wal.imm.log, fresh wal.log,
  /// mem_ -> imm_, schedules the background flush.
  Status SealMemtableLocked();
  void ScheduleBackground(void (KVStore::*method)());
  void BackgroundFlushTask();
  void BackgroundCompactTask();
  Status DoFlush();
  Status DoCompaction();
  void MaybeScheduleCompactionLocked();
  Status WriteManifestLocked();
  /// Refreshes the per-level table-count gauges (mu_ held).
  void UpdateLevelGaugesLocked();
  /// Publishes bytes_compacted / bytes_flushed to the write_amp gauge.
  void UpdateWriteAmpGauge();
  /// Streams a memtable into a new SSTable via the incremental builder
  /// (sorted scan, no materialized entry vector).  On success the table
  /// has the registry probe counters attached and `*logical_bytes`
  /// holds the entries' logical size (the write-amp denominator).
  Result<std::shared_ptr<SSTable>> BuildTableFromMemtable(
      MemTable* mem, uint64_t file_number, IoFaultInjector* faults,
      uint64_t* logical_bytes);
  /// Deletes *.sst files in dir not referenced by the manifest (wreckage
  /// of flushes/compactions that crashed mid-build).
  void RemoveOrphanTablesLocked();
  std::string TableFileName(uint64_t number) const;
  std::string WalPath() const { return options_.dir + "/wal.log"; }
  std::string ImmWalPath() const { return options_.dir + "/wal.imm.log"; }

  /// Sorts + dedupes gathered entries, newest version per key.  When
  /// `drop_tombstones` is set, deletion markers are elided (legal only
  /// when merging the complete table set).
  static std::vector<InternalEntry> MergeEntries(
      std::vector<InternalEntry> all, bool drop_tombstones);
  /// Gathers every entry of `view` with seq <= `snapshot`.
  static std::vector<InternalEntry> GatherAll(const ReadView& view,
                                              SequenceNumber snapshot);
  /// mu_ held: publishes a read view of the current mem_/imm_/l0_/l1_.
  /// Called after every change to them.
  void PublishViewLocked();
  /// Pins the current read view and the sequence number reads see.
  /// View first: every table and memtable in it holds only entries that
  /// were published by the time it was, so the pair reads a prefix of
  /// the commit order no older than the moment of the call.
  std::shared_ptr<const ReadView> PinView(SequenceNumber* snapshot) const;

  /// One reader stripe's handle on the current view.  Pinning a single
  /// shared view would make every reader write its reference count and
  /// guard — lines bounced between all reading cores.  Instead each
  /// stripe (`obs::ThisThreadStripe`) pins through its own slot: its own
  /// lock, its own handle and count, its own cache lines.  The handles
  /// share the view.  (E19: 1.5× the cache-hit get rate of one
  /// mutex-guarded pin at 4 reader threads.)
  struct alignas(64) ViewPin {
    std::shared_ptr<const ReadView> view;
  };
  struct alignas(64) PinSlot {
    std::mutex mu;  // held only to copy or swap `pin`
    std::shared_ptr<const ViewPin> pin;
  };

  KVStoreOptions options_;

  // Lock hierarchy: mu_ protects all mutable state below; the WAL is
  // written only by the current commit-group leader (queue leadership
  // substitutes for a lock, so the append+sync runs with mu_ released);
  // background tasks reacquire mu_ only for state installs.
  mutable std::mutex mu_;
  std::deque<Writer*> writers_;        // commit queue; front = leader
  std::condition_variable bg_cv_;      // flush/compaction completion
  std::shared_ptr<MemTable> mem_;      // mutable memtable
  std::shared_ptr<MemTable> imm_;      // sealed, being flushed (or null)
  WriteAheadLog wal_;                  // covers mem_; imm_ is covered by
                                       // wal.imm.log until its flush lands
  // l0_: newest-first flushed memtables (ranges may overlap).
  // l1_: the leveled partition — ascending by min_key, ranges disjoint;
  // compactions splice sub-ranges of it, reads binary-search it.
  std::deque<std::shared_ptr<SSTable>> l0_;
  std::vector<std::shared_ptr<SSTable>> l1_;
  SequenceNumber next_seq_ = 1;
  uint64_t next_file_number_ = 1;
  // The read side, written under mu_ and read without it.  visible_seq_
  // is the last sequence number whose commit group is wholly in mem_; a
  // leader publishes it after its inserts, so a lock-free reader never
  // sees part of a WriteBatch.
  mutable PinSlot pins_[obs::kStripes];  // every slot pins the same view
  std::atomic<SequenceNumber> visible_seq_{0};
  // flush_scheduled_ means "exactly one flush task is queued or running
  // and owns imm_"; it is set where the task is scheduled and cleared
  // only by DoFlush, in the same critical sections that change imm_.
  bool flush_scheduled_ = false;
  bool compaction_running_ = false;
  // Background task bodies in flight (incremented at Submit under mu_,
  // decremented as the task's last act); the destructor waits on this,
  // not on the flags above, so it cannot race a task's tail.
  int bg_inflight_ = 0;
  bool shutting_down_ = false;
  Status bg_error_;  // sticky until the next successful flush

  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // == owned_pool_.get() or options pool

  // Registry-backed counters (metrics "storage.*").  The scope member
  // precedes nothing that uses it at destruction time; handles stay
  // valid for the store's lifetime.
  obs::StatsScope obs_{"storage"};
  obs::StatsView<KVStoreStats> view_{obs_};
  obs::Counter* puts_ = view_.counter("puts", &KVStoreStats::puts);
  obs::Counter* deletes_ = view_.counter("deletes", &KVStoreStats::deletes);
  obs::Counter* gets_ = view_.counter("gets", &KVStoreStats::gets);
  obs::Counter* flushes_ = view_.counter("flushes", &KVStoreStats::flushes);
  obs::Counter* compactions_ =
      view_.counter("compactions", &KVStoreStats::compactions);
  obs::Counter* bytes_written_ =
      view_.counter("bytes_written", &KVStoreStats::bytes_written);
  obs::Counter* bytes_compacted_ =
      view_.counter("bytes_compacted", &KVStoreStats::bytes_compacted);
  obs::Counter* bytes_flushed_ =
      view_.counter("bytes_flushed", &KVStoreStats::bytes_flushed);
  // Physical per-level breakdown of the write-amp numerator: bytes of
  // SSTable file actually written into each level (flush outputs land
  // in L0, compaction outputs in L1).
  obs::Counter* l0_write_bytes_ =
      view_.counter("l0_write_bytes", &KVStoreStats::l0_write_bytes);
  obs::Counter* l1_write_bytes_ =
      view_.counter("l1_write_bytes", &KVStoreStats::l1_write_bytes);
  obs::Counter* subcompactions_ =
      view_.counter("subcompactions", &KVStoreStats::subcompactions);
  obs::Counter* write_stalls_ =
      view_.counter("write_stalls", &KVStoreStats::write_stalls);
  obs::Counter* stall_time_us_ =
      view_.counter("stall_time_us", &KVStoreStats::stall_time_us);
  obs::Counter* wal_syncs_ =
      view_.counter("wal_syncs", &KVStoreStats::wal_syncs);
  // Filter effectiveness, aggregated across tables (tables hold bare
  // pointers to these; the scope outlives every table the store opens).
  obs::Counter* bloom_checks_ =
      view_.counter("bloom_checks", &KVStoreStats::bloom_checks);
  obs::Counter* bloom_useful_ =
      view_.counter("bloom_useful", &KVStoreStats::bloom_useful);
  // Level shape and rewrite cost, refreshed at every install.
  obs::Gauge* l0_tables_ = obs_.gauge("l0_tables", obs::Gauge::Agg::kLast);
  obs::Gauge* l1_tables_ = obs_.gauge("l1_tables", obs::Gauge::Agg::kLast);
  obs::Gauge* write_amp_ = obs_.gauge("write_amp", obs::Gauge::Agg::kLast);
  // Stage-duration histograms (µs): commit covers the leader's
  // WAL-append + memtable-insert section; flush/compact cover the
  // background tasks end to end.
  obs::ConcurrentHistogram* commit_us_ = obs_.histogram("commit_us");
  obs::ConcurrentHistogram* flush_us_ = obs_.histogram("flush_us");
  obs::ConcurrentHistogram* compact_us_ = obs_.histogram("compact_us");
  // Per-class commit latency (enqueue -> committed, leaders and
  // followers alike) — the storage hop of the {qos=...} SLO accounting.
  obs::ConcurrentHistogram* commit_qos_us_[kQosClassCount] = {};
  // Commit-group syncs forced by a durable class on a sync_wal=false
  // store (vs `wal_syncs`, which counts every sync issued).
  obs::Counter* qos_forced_syncs_ = nullptr;
};

}  // namespace deluge::storage

#endif  // DELUGE_STORAGE_KV_STORE_H_

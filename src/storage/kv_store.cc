#include "storage/kv_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "obs/trace.h"
#include "storage/compaction.h"

namespace deluge::storage {

namespace fs = std::filesystem;

namespace {

/// Upper bound on one commit group's payload: keeps follower latency
/// bounded when a firehose of writers piles onto the queue.
constexpr size_t kMaxGroupBytes = 1u << 20;

// WAL record payload: one record per committed WriteBatch, holding the
// batch's ops back to back.  Per-op encoding:
//   [fixed64 seq][u8 type][varint klen][key][varint vlen][value]
// A single-op batch is byte-identical to the old one-record-per-op
// format, and the record's CRC makes a batch all-or-nothing on replay:
// a torn frame drops the whole batch, never a recovered prefix of it —
// Write()'s atomicity contract holds across crashes.
void AppendWalOp(std::string* rec, SequenceNumber seq, ValueType type,
                 std::string_view key, std::string_view value) {
  PutFixed64(rec, seq);
  rec->push_back(static_cast<char>(type));
  PutLengthPrefixed(rec, key);
  PutLengthPrefixed(rec, value);
}

// Consumes one op from the front of `*rec`; false once exhausted.
bool DecodeWalOp(std::string_view* rec, SequenceNumber* seq, ValueType* type,
                 std::string_view* key, std::string_view* value) {
  uint64_t s = 0;
  if (!GetFixed64(rec, &s) || rec->empty()) return false;
  *seq = s;
  *type = static_cast<ValueType>(rec->front());
  rec->remove_prefix(1);
  return GetLengthPrefixed(rec, key) && GetLengthPrefixed(rec, value);
}

// Manifest v2 key-range fields: keys are arbitrary binary, the manifest
// is whitespace-delimited text — hex-encode, with "-" for the empty
// string (which would otherwise vanish between the delimiters).
std::string HexKey(const std::string& key) {
  if (key.empty()) return "-";
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(key.size() * 2);
  for (unsigned char c : key) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

bool UnhexKey(const std::string& hex, std::string* key) {
  key->clear();
  if (hex == "-") return true;
  if (hex.size() % 2 != 0) return false;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  key->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    key->push_back(static_cast<char>(hi << 4 | lo));
  }
  return true;
}

// First line of the range-aware manifest format.  A file that starts
// with a number instead is the original single-run format.
constexpr char kManifestMagicV2[] = "DELUGEMANIFEST2";

}  // namespace

KVStore::KVStore(const KVStoreOptions& options)
    : options_(options),
      mem_(std::make_shared<MemTable>(options_.memtable_max_bytes)) {
  if (options_.block_cache_bytes > 0) {
    block_cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
  }
  if (options_.background_pool != nullptr) {
    pool_ = options_.background_pool;
  } else {
    // Private pool: one slot for the flush, one so a compaction can
    // overlap it.
    owned_pool_ = std::make_unique<ThreadPool>(2);
    pool_ = owned_pool_.get();
  }
  for (QosClass c : kAllQosClasses) {
    commit_qos_us_[uint8_t(c)] =
        obs_.histogram("commit_us", {{"qos", QosClassName(c)}});
  }
  qos_forced_syncs_ = obs_.counter("qos_forced_syncs");
}

KVStore::~KVStore() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    // Wait on the task bodies themselves, not the scheduling flags: a
    // task clears its flag before its last touch of `this`, so on an
    // external pool the flags alone would let destruction race the tail
    // of a still-running task.
    while (bg_inflight_ > 0) bg_cv_.wait(lock);
  }
  owned_pool_.reset();  // joins the private pool before members die
}

Result<std::unique_ptr<KVStore>> KVStore::Open(const KVStoreOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("KVStoreOptions.dir must be set");
  }
  if (options.memtable_max_bytes == 0) {
    return Status::InvalidArgument(
        "KVStoreOptions.memtable_max_bytes must be positive");
  }
  if (options.l0_compaction_trigger <= 0) {
    return Status::InvalidArgument(
        "KVStoreOptions.l0_compaction_trigger must be positive");
  }
  if (options.bloom_bits_per_key <= 0) {
    return Status::InvalidArgument(
        "KVStoreOptions.bloom_bits_per_key must be positive");
  }
  if (options.l1_target_table_bytes == 0) {
    return Status::InvalidArgument(
        "KVStoreOptions.l1_target_table_bytes must be positive");
  }
  if (options.max_subcompactions <= 0) {
    return Status::InvalidArgument(
        "KVStoreOptions.max_subcompactions must be positive");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) return Status::IOError("cannot create dir " + options.dir);

  auto store = std::unique_ptr<KVStore>(new KVStore(options));
  Status s = store->Recover();
  if (!s.ok()) return s;
  return store;
}

std::string KVStore::TableFileName(uint64_t number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu.sst",
                static_cast<unsigned long long>(number));
  return options_.dir + "/" + buf;
}

void KVStore::RemoveOrphanTablesLocked() {
  std::vector<std::string> live;
  for (const auto& t : l0_) live.push_back(t->path());
  for (const auto& t : l1_) live.push_back(t->path());
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() != ".sst") continue;
    std::string path = entry.path().string();
    if (std::find(live.begin(), live.end(), path) == live.end()) {
      // Wreckage of a flush/compaction that crashed mid-build; the
      // manifest never referenced it.
      std::remove(path.c_str());
    }
  }
}

Status KVStore::Recover() {
  // 1. Manifest.  v2 leads with a magic line and carries hex-encoded L1
  // key ranges; the original format leads straight with "next_file
  // next_seq" and lists a single L1 run — both recover, so a store
  // written by the pre-leveled engine upgrades in place on its first
  // manifest rewrite.
  const std::string manifest_path = options_.dir + "/MANIFEST";
  std::ifstream manifest(manifest_path);
  if (manifest.good()) {
    std::string first;
    if (manifest >> first) {
      const bool v2 = first == kManifestMagicV2;
      if (v2) {
        manifest >> next_file_number_ >> next_seq_;
      } else {
        next_file_number_ = std::strtoull(first.c_str(), nullptr, 10);
        manifest >> next_seq_;
      }
      int level;
      uint64_t number;
      while (manifest >> level >> number) {
        std::string decoded;
        if (v2 && level == 1) {
          // The manifest's range copy is advisory (the table footer is
          // authoritative) but must parse: garbage here means a damaged
          // manifest, not a missing feature.
          std::string hex_min, hex_max;
          if (!(manifest >> hex_min >> hex_max) ||
              !UnhexKey(hex_min, &decoded) || !UnhexKey(hex_max, &decoded)) {
            return Status::Corruption("manifest L1 entry has a bad range");
          }
        }
        auto table = SSTable::Open(TableFileName(number), block_cache_.get());
        if (!table.ok()) return table.status();
        table.value()->set_probe_counters(bloom_checks_, bloom_useful_);
        if (level == 0) {
          l0_.push_back(table.value());  // manifest lists newest first
        } else {
          l1_.push_back(table.value());
        }
      }
    }
  }
  // The read path binary-searches l1_ by range; order it regardless of
  // the manifest's listing order (a v0 manifest has one run at most, but
  // nothing is lost by never trusting the order on disk).
  std::sort(l1_.begin(), l1_.end(),
            [](const std::shared_ptr<SSTable>& a,
               const std::shared_ptr<SSTable>& b) {
              return a->min_key() < b->min_key();
            });

  // 2. Unreferenced .sst files are wreckage of an interrupted
  // flush/compaction build; their data is still covered by the WALs or
  // the old table set, so they are safe to drop.
  RemoveOrphanTablesLocked();

  SequenceNumber max_seq = next_seq_ > 0 ? next_seq_ - 1 : 0;

  // 3. Complete an interrupted background flush: wal.imm.log covers a
  // sealed memtable whose SSTable never reached the manifest.  Replay
  // it and finish the flush now, so acknowledged writes survive a crash
  // at any point of the flush pipeline.
  if (fs::exists(ImmWalPath())) {
    MemTable imm(options_.memtable_max_bytes);
    auto replayed = WriteAheadLog::Replay(
        ImmWalPath(), [&imm, &max_seq](std::string_view rec) {
          SequenceNumber seq;
          ValueType type;
          std::string_view key, value;
          while (DecodeWalOp(&rec, &seq, &type, &key, &value)) {
            imm.Add(seq, type, key, value);
            max_seq = std::max(max_seq, seq);
          }
        });
    if (!replayed.ok()) return replayed.status();
    if (imm.entry_count() > 0) {
      uint64_t number = next_file_number_++;
      uint64_t logical = 0;
      auto table = BuildTableFromMemtable(&imm, number, /*faults=*/nullptr,
                                          &logical);
      if (!table.ok()) return table.status();
      l0_.push_front(table.value());  // newer than every manifest table
      bytes_flushed_->Add(logical);
      l0_write_bytes_->Add(table.value()->file_size());
      next_seq_ = std::max(next_seq_, max_seq + 1);
      Status s = WriteManifestLocked();  // durable before dropping the log
      if (!s.ok()) return s;
    }
    std::remove(ImmWalPath().c_str());
  }
  UpdateLevelGaugesLocked();

  // 4. Active WAL replay into the fresh memtable.
  uint64_t valid_prefix = 0;
  auto replayed = WriteAheadLog::Replay(
      WalPath(),
      [this, &max_seq](std::string_view rec) {
        SequenceNumber seq;
        ValueType type;
        std::string_view key, value;
        while (DecodeWalOp(&rec, &seq, &type, &key, &value)) {
          mem_->Add(seq, type, key, value);
          max_seq = std::max(max_seq, seq);
        }
      },
      &valid_prefix);
  if (!replayed.ok()) return replayed.status();
  next_seq_ = max_seq + 1;

  // A crash mid-append leaves a torn frame at the tail.  Cut it before
  // reuse: appending behind the garbage would make every post-recovery
  // commit unreachable on the NEXT replay (which stops at the tear) —
  // silent loss of acknowledged writes one crash later.
  auto wal_size = FileSize(WalPath());
  if (wal_size.ok() && wal_size.value() > valid_prefix) {
    Status s = TruncateFile(WalPath(), valid_prefix);
    if (!s.ok()) return s;
  }
  visible_seq_.store(next_seq_ - 1, std::memory_order_release);
  PublishViewLocked();
  return wal_.Open(WalPath());
}

// ----------------------------------------------------------- Write path

Status KVStore::Put(std::string_view key, std::string_view value,
                    const WriteOptions& opts) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  WriteBatch batch;
  batch.Put(key, value);
  Writer w(&batch, opts.qos, opts.WantsSync());
  return CommitWriter(&w);
}

Status KVStore::Delete(std::string_view key, const WriteOptions& opts) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  WriteBatch batch;
  batch.Delete(key);
  Writer w(&batch, opts.qos, opts.WantsSync());
  return CommitWriter(&w);
}

Status KVStore::Write(const WriteBatch& batch, const WriteOptions& opts) {
  if (batch.ops_.empty()) return Status::OK();
  // A batch is one WAL record; replay rejects records over 64 MB as
  // corruption, so an oversized batch would be acknowledged yet
  // unrecoverable.  Refuse it up front (56 MB leaves margin for the
  // per-op framing overhead).
  if (batch.approximate_bytes() > (56u << 20)) {
    return Status::InvalidArgument("WriteBatch exceeds 56 MB");
  }
  for (const auto& op : batch.ops_) {
    if (op.key.empty()) return Status::InvalidArgument("empty key");
  }
  Writer w(&batch, opts.qos, opts.WantsSync());
  return CommitWriter(&w);
}

Status KVStore::CommitWriter(Writer* w) {
  const int64_t enqueued_us = obs::SteadyNowMicros();
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(w);
  while (!w->done && w != writers_.front()) w->cv.wait(lock);
  if (w->done) {
    // A leader committed for us; the recorded latency includes the
    // group wait, which is what a caller of Put/Write experiences.
    if (w->batch != nullptr) {
      commit_qos_us_[uint8_t(w->qos)]->Record(obs::SteadyNowMicros() -
                                              enqueued_us);
    }
    return w->status;
  }

  // This writer is the group leader.
  obs::Span span("storage.commit");
  obs::ScopedTimer timer(commit_us_);
  Status s = MakeRoomForWrite(lock, /*force_seal=*/w->batch == nullptr);

  Writer* last = w;
  std::vector<const WriteBatch*> group;
  size_t group_ops = 0;
  // One durable writer upgrades the whole group: the group shares one
  // WAL append, so its sync covers every member's record.
  bool group_sync = options_.sync_wal || w->sync;
  if (s.ok() && w->batch != nullptr) {
    group.push_back(w->batch);
    group_ops = w->batch->ops_.size();
    if (options_.group_commit) {
      size_t group_bytes = w->batch->approximate_bytes();
      for (auto it = writers_.begin() + 1;
           it != writers_.end() && group_bytes < kMaxGroupBytes; ++it) {
        Writer* follower = *it;
        if (follower->batch == nullptr) break;  // seal requests ride alone
        group.push_back(follower->batch);
        group_ops += follower->batch->ops_.size();
        group_bytes += follower->batch->approximate_bytes();
        group_sync = group_sync || follower->sync;
        last = follower;
      }
    }
  }

  if (s.ok() && group_ops > 0) {
    SequenceNumber first_seq = next_seq_;
    next_seq_ += group_ops;

    // WAL append + sync run with mu_ released: queue leadership is the
    // WAL's exclusive-writer guarantee, and readers/background tasks
    // may proceed meanwhile.
    lock.unlock();
    // One WAL record per batch (not per op): the frame CRC then covers
    // the whole batch, so replay applies it all-or-nothing.  The WAL
    // takes slices of the encoded records — no re-serialisation.
    std::vector<std::string> records;
    records.reserve(group.size());
    SequenceNumber seq = first_seq;
    for (const WriteBatch* b : group) {
      std::string rec;
      rec.reserve(b->approximate_bytes() + 16);
      for (const auto& op : b->ops_) {
        AppendWalOp(&rec, seq++, op.type, op.key, op.value);
      }
      records.push_back(std::move(rec));
    }
    std::vector<common::Slice> record_slices(records.begin(), records.end());
    s = wal_.AppendBatch(record_slices, group_sync);
    if (s.ok() && group_sync) {
      wal_syncs_->Add(1);
      if (!options_.sync_wal) qos_forced_syncs_->Add(1);
    }
    lock.lock();

    if (s.ok()) {
      seq = first_seq;
      for (const WriteBatch* b : group) {
        for (const auto& op : b->ops_) {
          mem_->Add(seq++, op.type, op.key, op.value);
          if (op.type == ValueType::kValue) {
            puts_->Add(1);
            bytes_written_->Add(op.key.size() + op.value.size());
          } else {
            deletes_->Add(1);
          }
        }
      }
      // Readers see the group only now, whole: until this store their
      // snapshot hides the entries inserted above.
      visible_seq_.store(seq - 1, std::memory_order_release);
    }
  }

  // Retire the group and hand leadership to the next queued writer.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != w) {
      ready->status = s;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last) break;
  }
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  if (w->batch != nullptr) {
    commit_qos_us_[uint8_t(w->qos)]->Record(obs::SteadyNowMicros() -
                                            enqueued_us);
  }
  return s;
}

Status KVStore::MakeRoomForWrite(std::unique_lock<std::mutex>& lock,
                                 bool force_seal) {
  while (true) {
    if (!force_seal &&
        mem_->ApproximateBytes() < options_.memtable_max_bytes) {
      return Status::OK();
    }
    if (imm_ != nullptr) {
      // Both memtables full: stall, bounded by the background flush.
      write_stalls_->Add(1);
      if (!flush_scheduled_ && !shutting_down_) {
        // A previous flush failed and left imm_ in place; retry it.
        flush_scheduled_ = true;
        ScheduleBackground(&KVStore::BackgroundFlushTask);
      }
      const auto stall_start = std::chrono::steady_clock::now();
      bg_cv_.wait(lock);
      stall_time_us_->Add(uint64_t(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - stall_start)
              .count()));
      continue;
    }
    if (force_seal && mem_->entry_count() == 0) return Status::OK();
    return SealMemtableLocked();
  }
}

Status KVStore::SealMemtableLocked() {
  // Rotate the WAL: the sealed memtable stays covered by wal.imm.log
  // until its flush lands; writers continue into a fresh wal.log.  Only
  // the commit-group leader reaches here, so nobody is appending.
  wal_.Close();
  std::error_code ec;
  fs::rename(WalPath(), ImmWalPath(), ec);
  if (ec) return Status::IOError("WAL rotation failed in " + options_.dir);
  Status s = wal_.Open(WalPath());
  if (!s.ok()) return s;
  imm_ = std::move(mem_);
  mem_ = std::make_shared<MemTable>(options_.memtable_max_bytes);
  PublishViewLocked();
  flush_scheduled_ = true;
  ScheduleBackground(&KVStore::BackgroundFlushTask);
  return Status::OK();
}

void KVStore::ScheduleBackground(void (KVStore::*method)()) {
  ++bg_inflight_;  // mu_ is held by every caller
  pool_->Submit([this, method] {
    (this->*method)();
    std::lock_guard<std::mutex> lock(mu_);
    --bg_inflight_;
    bg_cv_.notify_all();
  });
}

void KVStore::BackgroundFlushTask() {
  // flush_scheduled_ and bg_error_ are managed inside DoFlush, in the
  // same critical sections that change imm_ — clearing the flag here,
  // after the fact, would let a seal that slipped in between schedule a
  // second flush while this one still counts as "done".
  Status s = DoFlush();
  std::lock_guard<std::mutex> lock(mu_);
  if (s.ok()) {
    MaybeScheduleCompactionLocked();
  } else {
    DELUGE_LOG_WARN("background flush failed: %s", s.ToString().c_str());
  }
  bg_cv_.notify_all();
}

Status KVStore::DoFlush() {
  obs::Span span("storage.flush");
  obs::ScopedTimer timer(flush_us_);
  std::unique_lock<std::mutex> lock(mu_);
  std::shared_ptr<MemTable> imm = imm_;
  if (imm == nullptr) {
    flush_scheduled_ = false;
    return Status::OK();
  }
  uint64_t number = next_file_number_++;
  lock.unlock();

  // Build off-lock: writers keep committing into mem_ meanwhile.  The
  // memtable streams straight into the table builder — no materialized
  // entry vector between them.
  uint64_t logical_bytes = 0;
  auto table = BuildTableFromMemtable(imm.get(), number,
                                      options_.table_faults, &logical_bytes);

  lock.lock();
  if (!table.ok()) {
    // imm_ stays in place, still covered by wal.imm.log; clearing the
    // flag under the same lock lets a stalled writer schedule the retry.
    flush_scheduled_ = false;
    bg_error_ = table.status();
    return table.status();
  }
  l0_.push_front(table.value());
  Status s = WriteManifestLocked();
  if (!s.ok()) {
    // The table never became durably referenced: roll the install back
    // and keep imm_ (and wal.imm.log) for the retry.  Resetting imm_
    // here would let the next seal rename wal.log onto wal.imm.log, and
    // a crash would then orphan-delete the table while its covering WAL
    // is gone — acknowledged writes lost to a transient manifest error.
    l0_.pop_front();
    flush_scheduled_ = false;
    bg_error_ = s;
    lock.unlock();
    std::remove(TableFileName(number).c_str());
    if (block_cache_ != nullptr) {
      block_cache_->EraseTable(table.value()->table_id());
    }
    return s;
  }
  imm_.reset();
  PublishViewLocked();
  flush_scheduled_ = false;
  bg_error_ = Status::OK();
  flushes_->Add(1);
  bytes_flushed_->Add(logical_bytes);
  l0_write_bytes_->Add(table.value()->file_size());
  UpdateLevelGaugesLocked();
  UpdateWriteAmpGauge();
  // Retire the sealed memtable's WAL inside the same critical section
  // that installs its table: the manifest above durably lists the table,
  // and WAL rotation (SealMemtableLocked) also runs under mu_ and only
  // once imm_ is null — so this remove can never hit a freshly rotated
  // wal.imm.log, which would be the only durable copy of the NEXT
  // sealed memtable.
  std::remove(ImmWalPath().c_str());
  return Status::OK();
}

void KVStore::MaybeScheduleCompactionLocked() {
  if (shutting_down_ || compaction_running_) return;
  if (l0_.size() < size_t(options_.l0_compaction_trigger)) return;
  compaction_running_ = true;
  ScheduleBackground(&KVStore::BackgroundCompactTask);
}

void KVStore::BackgroundCompactTask() {
  Status s = DoCompaction();
  std::lock_guard<std::mutex> lock(mu_);
  compaction_running_ = false;
  if (s.ok()) {
    MaybeScheduleCompactionLocked();  // more L0 may have piled up
  } else {
    // State is untouched on failure; the next flush re-triggers.
    DELUGE_LOG_WARN("background compaction failed: %s", s.ToString().c_str());
  }
  bg_cv_.notify_all();
}

Status KVStore::DoCompaction() {
  obs::Span span("storage.compact");
  obs::ScopedTimer timer(compact_us_);
  std::unique_lock<std::mutex> lock(mu_);
  const size_t n_l0 = l0_.size();
  // With no L0 there is nothing to push down: the leveled L1 is already
  // sorted and non-overlapping.
  if (n_l0 == 0) return Status::OK();

  // Input picking: every L0 table, plus only the contiguous run of L1
  // tables whose key ranges overlap the L0 set's span.  Because l1_ is
  // sorted by min_key with disjoint ranges, the overlapping tables form
  // a contiguous slice [overlap_lo, overlap_hi); everything outside it
  // is untouched — the rewrite cost tracks overlap size, not database
  // size.
  std::string l0_min, l0_max;
  bool have_span = false;
  for (const auto& t : l0_) {
    if (t->entry_count() == 0) continue;
    if (!have_span || t->min_key() < l0_min) l0_min = t->min_key();
    if (!have_span || t->max_key() > l0_max) l0_max = t->max_key();
    have_span = true;
  }
  size_t overlap_lo = 0, overlap_hi = 0;
  if (have_span) {
    while (overlap_lo < l1_.size() && l1_[overlap_lo]->max_key() < l0_min) {
      ++overlap_lo;
    }
    overlap_hi = overlap_lo;
    while (overlap_hi < l1_.size() && l1_[overlap_hi]->min_key() <= l0_max) {
      ++overlap_hi;
    }
  }

  // Newest first: all of L0 (already newest-first), then the L1 slice —
  // the merge's source-order tie-break then implements shadowing.
  std::vector<std::shared_ptr<SSTable>> inputs(l0_.begin(), l0_.end());
  inputs.insert(inputs.end(), l1_.begin() + std::ptrdiff_t(overlap_lo),
                l1_.begin() + std::ptrdiff_t(overlap_hi));

  uint64_t expected_entries = 0;
  uint64_t input_bytes = 0;
  for (const auto& t : inputs) {
    expected_entries += t->entry_count();
    input_bytes += t->file_size();
  }

  // Size-aware split: never more slices than the data would fill with
  // target-sized tables, so small merges stay one table on one thread.
  const uint64_t size_cap = std::max<uint64_t>(
      1, input_bytes / std::max<uint64_t>(1, options_.l1_target_table_bytes));
  const size_t max_parts = size_t(std::min<uint64_t>(
      uint64_t(options_.max_subcompactions), size_cap));
  lock.unlock();

  // Merge + build off-lock.  The inputs are immutable tables read via
  // positional I/O, so concurrent Gets on them are unaffected.  Newer
  // L0 tables flushed while we merge are NOT in `inputs` and survive
  // the install below untouched.  Dropping tombstones is legal because
  // L1 is the bottom level and every table overlapping the merged range
  // is an input — anything newer shadows us, anything a tombstone
  // shadowed is in the inputs.
  CompactionJob job;
  job.inputs = inputs;
  job.target_table_bytes = options_.l1_target_table_bytes;
  job.bloom_bits_per_key = options_.bloom_bits_per_key;
  job.faults = options_.table_faults;
  job.cache = block_cache_.get();
  job.next_output_path = [this] {
    std::lock_guard<std::mutex> path_lock(mu_);
    return TableFileName(next_file_number_++);
  };

  const auto spans =
      SpansFromBoundaries(PickSubcompactionBoundaries(inputs, max_parts));
  std::vector<SubcompactionResult> results(spans.size());
  // Disjoint key spans stream concurrently on the shared pool; the
  // caller participates, so this also makes progress when the pool is
  // busy (or is the 2-thread private pool already running this task).
  ParallelFor(pool_, spans.size(),
              [&](size_t i) { results[i] = RunSubcompaction(job, spans[i]); });

  Status failure;
  uint64_t consumed_entries = 0;
  uint64_t out_bytes = 0;
  std::vector<std::shared_ptr<SSTable>> outputs;
  for (auto& r : results) {
    if (!r.status.ok() && failure.ok()) failure = r.status;
    consumed_entries += r.entries_read;
    out_bytes += r.bytes_out;
    // Span order is key order, so concatenation keeps outputs sorted
    // and disjoint.
    outputs.insert(outputs.end(), r.outputs.begin(), r.outputs.end());
  }
  if (failure.ok() && consumed_entries != expected_entries) {
    // A scan that did not end cleanly must abort the whole compaction:
    // installing a partial merge would unlink input tables that still
    // hold durable, acknowledged data.  (Sub-compaction spans partition
    // the keyspace, so the consumed total must match exactly.)
    failure = Status::Corruption(
        "compaction input scan truncated: read " +
        std::to_string(consumed_entries) + " of " +
        std::to_string(expected_entries) + " entries");
  }
  if (!failure.ok()) {
    // All-or-nothing: drop every finished output of every slice.  The
    // readers close with their shared_ptrs; unlink reclaims the files
    // now instead of waiting for the next recovery's orphan sweep.
    for (auto& table : outputs) {
      std::string path = table->path();
      uint64_t id = table->table_id();
      table.reset();
      std::remove(path.c_str());
      if (block_cache_ != nullptr) block_cache_->EraseTable(id);
    }
    return failure;
  }
  for (const auto& t : outputs) {
    t->set_probe_counters(bloom_checks_, bloom_useful_);
  }

  // Short critical section: splice the outputs over the inputs (the
  // compacted L0 tables are the *oldest* suffix of l0_; the replaced L1
  // slice sits where the outputs' span belongs, so sortedness and
  // disjointness of l1_ are preserved).
  lock.lock();
  std::vector<std::string> obsolete_paths;
  std::vector<uint64_t> obsolete_ids;
  for (const auto& t : inputs) {
    obsolete_paths.push_back(t->path());
    obsolete_ids.push_back(t->table_id());
  }
  l0_.erase(l0_.end() - std::ptrdiff_t(n_l0), l0_.end());
  std::vector<std::shared_ptr<SSTable>> new_l1;
  new_l1.reserve(l1_.size() - (overlap_hi - overlap_lo) + outputs.size());
  new_l1.insert(new_l1.end(), l1_.begin(),
                l1_.begin() + std::ptrdiff_t(overlap_lo));
  new_l1.insert(new_l1.end(), outputs.begin(), outputs.end());
  new_l1.insert(new_l1.end(), l1_.begin() + std::ptrdiff_t(overlap_hi),
                l1_.end());
  l1_ = std::move(new_l1);
  PublishViewLocked();
  compactions_->Add(1);
  subcompactions_->Add(spans.size());
  bytes_compacted_->Add(out_bytes);
  l1_write_bytes_->Add(out_bytes);
  UpdateLevelGaugesLocked();
  UpdateWriteAmpGauge();
  Status s = WriteManifestLocked();
  lock.unlock();
  if (!s.ok()) return s;

  // Readers holding table refs keep valid fds past the unlink.
  for (const auto& path : obsolete_paths) std::remove(path.c_str());
  if (block_cache_ != nullptr) {
    for (uint64_t id : obsolete_ids) block_cache_->EraseTable(id);
  }
  return Status::OK();
}

// ------------------------------------------------------------ Read path

std::shared_ptr<const KVStore::ReadView> KVStore::PinView(
    SequenceNumber* snapshot) const {
  PinSlot& slot = pins_[obs::ThisThreadStripe()];
  std::shared_ptr<const ViewPin> pin;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    pin = slot.pin;
  }
  *snapshot = visible_seq_.load(std::memory_order_acquire);
  // Aliasing: the caller holds the stripe's handle, not the view's own
  // count.
  const ReadView* view = pin->view.get();
  return std::shared_ptr<const ReadView>(std::move(pin), view);
}

void KVStore::PublishViewLocked() {
  auto view = std::make_shared<ReadView>();
  view->mem = mem_;
  view->imm = imm_;
  view->l0.assign(l0_.begin(), l0_.end());
  view->l1 = l1_;
  // Stripes switch one by one, all under mu_: a reader still pinning the
  // old view reads a prefix no newer commit can extend (commits need mu_
  // too), the same as a reader that pinned just before the publish.
  for (PinSlot& slot : pins_) {
    auto pin = std::make_shared<const ViewPin>(ViewPin{view});
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.pin.swap(pin);  // the old handle drops after the unlock
  }
}

Status KVStore::Get(std::string_view key, std::string* value) {
  obs::Span span("storage.get");
  gets_->Add(1);
  SequenceNumber snapshot = 0;
  const std::shared_ptr<const ReadView> view = PinView(&snapshot);
  return view->Get(key, snapshot, value);
}

Status KVStore::ReadView::Get(std::string_view key, SequenceNumber snapshot,
                              std::string* value) const {
  bool tombstone = false;
  if (mem->Get(key, snapshot, value, &tombstone) ||
      (imm != nullptr && imm->Get(key, snapshot, value, &tombstone))) {
    return tombstone ? Status::NotFound() : Status::OK();
  }
  // Table probes: positional reads through the block cache; the view's
  // references keep every table open past a concurrent compaction.
  for (const auto& table : l0) {  // newest first
    // Cheap range gate before the bloom: L0 tables may overlap, but a
    // key outside a table's span cannot be in it.
    if (key < table->min_key() || key > table->max_key()) continue;
    Status s = table->Get(key, snapshot, value, &tombstone);
    if (s.ok()) return tombstone ? Status::NotFound() : Status::OK();
    if (!s.IsNotFound()) return s;
  }
  // L1 ranges are sorted and disjoint: binary search finds the single
  // table that can hold the key, so probes (and bloom checks) stay O(1)
  // no matter how many tables the level splits into.
  auto it = std::upper_bound(
      l1.begin(), l1.end(), key,
      [](std::string_view k, const std::shared_ptr<SSTable>& t) {
        return k < t->min_key();
      });
  if (it != l1.begin() && key <= (*(it - 1))->max_key()) {
    Status s = (*(it - 1))->Get(key, snapshot, value, &tombstone);
    if (s.ok()) return tombstone ? Status::NotFound() : Status::OK();
    if (!s.IsNotFound()) return s;
  }
  return Status::NotFound();
}

// ------------------------------------------------- Flush / compaction API

Status KVStore::Flush() {
  Writer seal(nullptr);
  Status s = CommitWriter(&seal);
  if (!s.ok()) return s;
  std::unique_lock<std::mutex> lock(mu_);
  while ((imm_ != nullptr || flush_scheduled_) && bg_error_.ok()) {
    bg_cv_.wait(lock);
  }
  return bg_error_;
}

Status KVStore::CompactAll() {
  Status s = Flush();
  if (!s.ok()) return s;
  std::unique_lock<std::mutex> lock(mu_);
  while (compaction_running_) bg_cv_.wait(lock);
  compaction_running_ = true;  // claim the compaction slot, run inline
  lock.unlock();
  s = DoCompaction();
  lock.lock();
  compaction_running_ = false;
  bg_cv_.notify_all();
  return s;
}

// --------------------------------------------------------------- Merges

std::vector<InternalEntry> KVStore::MergeEntries(
    std::vector<InternalEntry> all, bool drop_tombstones) {
  // Sort by internal order and deduplicate keeping the newest version
  // per key.  At simulation scale a sort-based merge is simpler than a
  // k-way heap and equally correct.
  std::stable_sort(all.begin(), all.end(),
                   [](const InternalEntry& a, const InternalEntry& b) {
                     return InternalEntryComparator()(a, b) < 0;
                   });
  std::vector<InternalEntry> out;
  out.reserve(all.size());
  std::string_view last_key;
  bool have_last = false;
  for (auto& e : all) {
    if (have_last && e.user_key == last_key) {
      continue;  // older version of the same key
    }
    have_last = true;
    last_key = e.user_key;
    if (drop_tombstones && e.type == ValueType::kTombstone) {
      // Newest version is a delete: key is gone.  (last_key remains set
      // so older versions are still skipped.)
      continue;
    }
    out.push_back(std::move(e));
    last_key = out.back().user_key;  // re-point after move
  }
  return out;
}

std::vector<InternalEntry> KVStore::GatherAll(const ReadView& view,
                                              SequenceNumber snapshot) {
  std::vector<InternalEntry> all;
  // The mutable memtable may hold a group whose commit is still being
  // inserted; the snapshot drops it.  Tables hold only entries published
  // before the view was, so they need no filter.
  auto drain_mem = [&all, snapshot](const MemTable* m) {
    MemTable::Iterator it(m);
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      if (it.entry().seq <= snapshot) all.push_back(it.entry());
    }
  };
  drain_mem(view.mem.get());
  if (view.imm != nullptr) drain_mem(view.imm.get());
  auto drain = [&all](const std::shared_ptr<SSTable>& t) {
    SSTable::Iterator it(t.get());
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      all.push_back(it.entry());
    }
    if (!it.status().ok()) {
      DELUGE_LOG_WARN("snapshot scan of %s stopped early: %s",
                      t->path().c_str(), it.status().ToString().c_str());
    }
  };
  for (const auto& t : view.l0) drain(t);
  for (const auto& t : view.l1) drain(t);
  return all;
}

KVStore::Iterator KVStore::NewIterator() {
  SequenceNumber snapshot = 0;
  const std::shared_ptr<const ReadView> view = PinView(&snapshot);
  Iterator it;
  it.entries_ =
      MergeEntries(GatherAll(*view, snapshot), /*drop_tombstones=*/true);
  return it;
}

void KVStore::Iterator::Seek(std::string_view key) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key,
                             [](const InternalEntry& e, std::string_view k) {
                               return e.user_key < k;
                             });
  pos_ = size_t(it - entries_.begin());
}

// ---------------------------------------------------------------- State

Status KVStore::WriteManifestLocked() {
  const std::string tmp = options_.dir + "/MANIFEST.tmp";
  const std::string final_path = options_.dir + "/MANIFEST";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) return Status::IOError("cannot write manifest");
    out << kManifestMagicV2 << "\n";
    out << next_file_number_ << " " << next_seq_ << "\n";
    auto number_of = [](const std::string& path) {
      // .../NNNNNN.sst -> NNNNNN
      size_t slash = path.find_last_of('/');
      return std::stoull(path.substr(slash + 1));
    };
    for (const auto& t : l0_) out << 0 << " " << number_of(t->path()) << "\n";
    // L1 in range order, each with its hex-encoded key span — the
    // partition is inspectable (and checkable) without opening tables.
    for (const auto& t : l1_) {
      out << 1 << " " << number_of(t->path()) << " " << HexKey(t->min_key())
          << " " << HexKey(t->max_key()) << "\n";
    }
    if (!out.good()) return Status::IOError("manifest write failed");
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) return Status::IOError("manifest rename failed");
  return Status::OK();
}

void KVStore::UpdateLevelGaugesLocked() {
  l0_tables_->Set(double(l0_.size()));
  l1_tables_->Set(double(l1_.size()));
}

void KVStore::UpdateWriteAmpGauge() {
  const uint64_t flushed = bytes_flushed_->Value();
  if (flushed == 0) return;
  write_amp_->Set(double(bytes_compacted_->Value()) / double(flushed));
}

Result<std::shared_ptr<SSTable>> KVStore::BuildTableFromMemtable(
    MemTable* mem, uint64_t file_number, IoFaultInjector* faults,
    uint64_t* logical_bytes) {
  SSTableBuilder builder(TableFileName(file_number),
                         options_.bloom_bits_per_key, faults);
  uint64_t logical = 0;
  MemTable::Iterator it(mem);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    logical += it.entry().ApproximateSize();
    Status s = builder.Add(it.entry());
    if (!s.ok()) return s;
  }
  auto table = builder.Finish(block_cache_.get());
  if (!table.ok()) return table.status();
  table.value()->set_probe_counters(bloom_checks_, bloom_useful_);
  *logical_bytes = logical;
  return table;
}

KVStoreStats KVStore::stats() const {
  KVStoreStats s = view_.Read();
  if (block_cache_ != nullptr) {
    s.cache_hits = block_cache_->hits();
    s.cache_misses = block_cache_->misses();
  }
  return s;
}

size_t KVStore::l0_file_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return l0_.size();
}

size_t KVStore::l1_file_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return l1_.size();
}

SequenceNumber KVStore::last_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

}  // namespace deluge::storage

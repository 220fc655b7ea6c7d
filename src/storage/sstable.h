#ifndef DELUGE_STORAGE_SSTABLE_H_
#define DELUGE_STORAGE_SSTABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/block_cache.h"
#include "storage/bloom.h"
#include "storage/fault_injection.h"
#include "storage/format.h"

namespace deluge::storage {

/// An immutable sorted run on disk.
///
/// File layout (format v2):
/// ```
///   data:   repeated [varint klen][key][fixed64 seq][u8 type]
///                    [varint vlen][value]
///   index:  every kIndexInterval-th entry: [varint klen][key][fixed64 off]
///   bloom:  serialized BloomFilter over user keys
///   range:  [varint klen][min_key][varint klen][max_key]
///   footer: fixed64 x7: index_off, index_count, bloom_off, bloom_len,
///           range_off, entry_count, magic (kMagicV2)
/// ```
/// The v1 format lacks the range block and has a 6-word footer ending in
/// `kMagic`; `Open` still reads it, recovering `max_key_` by scanning
/// from the last index point (v2 tables skip that tail scan entirely —
/// the key range is in the footer).  Data and index regions are
/// byte-identical across versions.
///
/// Readers keep the sparse index and bloom filter in memory; point lookups
/// do one bounded forward scan from the preceding index point, decoding
/// records in place in the cached chunk — only the value found is copied.
///
/// Thread-safety: fully thread-safe after Open.  All file reads are
/// positional (`pread` on a shared fd), so concurrent `Get`s and
/// iterators never contend on a seek pointer; probe counters are
/// atomics.  Reads go through fixed-size aligned chunks that an
/// optional shared `BlockCache` can serve without touching the disk.
class SSTable {
 public:
  static constexpr uint64_t kMagic = 0xDE11A6E0DB5557ULL;    // v1 (legacy)
  static constexpr uint64_t kMagicV2 = 0xDE11A6E0DB5558ULL;  // v2 (+range)
  static constexpr size_t kIndexInterval = 16;
  /// Granularity of data-region reads and of block-cache entries.
  static constexpr size_t kReadChunkSize = 64 * 1024;

  ~SSTable();

  SSTable(const SSTable&) = delete;
  SSTable& operator=(const SSTable&) = delete;

  /// Writes `entries` (already sorted by InternalEntryComparator) to
  /// `path` and returns an opened reader.  A convenience wrapper over
  /// `SSTableBuilder` for callers that already hold the full entry set
  /// (tests, small fixtures); streaming producers use the builder
  /// directly.  `faults`, when set, can tear the file write (crash
  /// mid-build); the partial file fails Open with Corruption, never a
  /// silently short table.  `cache`, when set, is attached to the
  /// returned reader (not owned).
  static Result<std::shared_ptr<SSTable>> Build(
      const std::string& path, const std::vector<InternalEntry>& entries,
      int bloom_bits_per_key = 10, IoFaultInjector* faults = nullptr,
      BlockCache* cache = nullptr);

  /// Opens an existing table (v1 or v2), loading its index, bloom
  /// filter, and key range.  Every open assigns a process-unique
  /// `table_id` (the block-cache namespace for this reader).
  static Result<std::shared_ptr<SSTable>> Open(const std::string& path,
                                               BlockCache* cache = nullptr);

  /// Finds the newest version of `key` with seq <= snapshot.  Returns
  /// NotFound if the key is absent from this table.  On success
  /// `*is_tombstone` tells a delete from a put, and a put's value is
  /// copied into `*value` — the only copy the probe makes: the scan from
  /// the index point compares keys in place in the cached chunk.
  Status Get(std::string_view key, SequenceNumber snapshot,
             std::string* value, bool* is_tombstone) const;

 private:
  /// One data-region record decoded in place: views into the chunk (or
  /// spill buffer) it was read from.
  struct RecordView {
    std::string_view key;
    SequenceNumber seq = 0;
    ValueType type = ValueType::kValue;
    std::string_view value;
  };

  /// Decodes records in place from aligned chunks.  Holds the chunk under
  /// the last record (which keeps it alive past a cache eviction) and a
  /// spill buffer for a record that straddles a chunk boundary; the views
  /// `Read` returns stay valid until its next call.
  class RecordCursor {
   public:
    explicit RecordCursor(const SSTable* table) : table_(table) {}
    /// Decodes the record at `offset` (< the data-region end) into
    /// `*rec`; returns the bytes it occupies, or 0 on an I/O error or a
    /// record cut off by the end of the data region (cause in `*status`).
    size_t Read(uint64_t offset, RecordView* rec, Status* status);

   private:
    const SSTable* table_;
    BlockCache::ChunkPtr chunk_;  // chunk holding the last record read
    uint64_t chunk_off_ = 0;      // file offset of chunk_'s first byte
    std::string spill_;           // assembly buffer for boundary records
  };

 public:
  /// Streaming iterator over all entries in internal order.
  ///
  /// Buffers one read chunk and decodes consecutive entries from it
  /// without re-reading; only a record that crosses the chunk boundary
  /// triggers further I/O.  Each iterator carries its own buffer, so
  /// concurrent iterators over one table are safe.
  class Iterator {
   public:
    explicit Iterator(const SSTable* table);
    bool Valid() const { return valid_; }
    void SeekToFirst();
    /// Positions at the first entry >= (key, seq = max).  Entries before
    /// it are skipped in place, without being copied out.
    void Seek(std::string_view key);
    void Next();
    const InternalEntry& entry() const { return current_; }
    /// OK while the scan is healthy, including after a clean end of
    /// table.  An I/O error or truncated record invalidates the iterator
    /// and parks the cause here — callers that must distinguish "done"
    /// from "failed" (compaction input scans!) check this after the
    /// loop; treating an error as EOF would install a truncated merge.
    const Status& status() const { return status_; }

   private:
    /// Reads the record at next_offset_ into `*rec` and advances past
    /// it; false at the end of the data region or on an error.
    bool ReadNext(RecordView* rec);
    /// Copies `rec` into current_ and marks the iterator valid.
    void Load(const RecordView& rec);

    const SSTable* table_;
    uint64_t next_offset_ = 0;
    RecordCursor cursor_;
    InternalEntry current_;
    bool valid_ = false;
    Status status_;  // first scan error; OK on clean EOF
  };

  const std::string& path() const { return path_; }
  uint64_t table_id() const { return table_id_; }
  uint64_t entry_count() const { return entry_count_; }
  uint64_t file_size() const { return data_end_; }
  const std::string& min_key() const { return min_key_; }
  const std::string& max_key() const { return max_key_; }

  /// Up to `max_samples` evenly spaced keys from the in-memory sparse
  /// index, in ascending order — cheap split-point candidates for
  /// range-partitioned sub-compactions.  No I/O.
  std::vector<std::string> IndexSampleKeys(size_t max_samples) const;

  /// Hooks this table's bloom-probe outcomes into registry counters
  /// (storage.bloom_checks / storage.bloom_useful — the only probe
  /// counters: striped, so concurrent readers of one hot table do not
  /// bounce a shared counter line).  Called by the owning store before
  /// the table is published to readers; the counters must outlive every
  /// probe (the store's StatsScope does).
  void set_probe_counters(obs::Counter* checks, obs::Counter* useful) {
    bloom_checks_ = checks;
    bloom_useful_ = useful;
  }

 private:
  friend class SSTableBuilder;
  SSTable() = default;

  struct IndexEntry {
    std::string key;
    uint64_t offset;
  };

  Status LoadFooterAndIndex();
  /// Data offset of the last index point whose key is strictly below
  /// `key` (or of the first record): where a scan for `key` starts.
  uint64_t ScanStart(std::string_view key) const;
  /// Reads exactly [offset, offset+n) from the file (positional; no
  /// shared seek state).
  Status ReadAt(uint64_t offset, size_t n, char* dst) const;
  /// Returns the aligned data-region chunk with the given index, from
  /// the cache when attached, else from disk (populating the cache).
  /// nullptr when the chunk is out of range or the read fails; a read
  /// failure additionally stores its cause in `*status` when given, so
  /// callers can tell an I/O error apart from end-of-data.
  BlockCache::ChunkPtr ReadChunk(uint64_t chunk_index,
                                 Status* status = nullptr) const;

  std::string path_;
  int fd_ = -1;
  uint64_t table_id_ = 0;
  BlockCache* cache_ = nullptr;  // not owned; may be null
  std::vector<IndexEntry> index_;
  BloomFilter bloom_{1};
  uint64_t data_end_ = 0;  // offset where data region ends (index begins)
  uint64_t entry_count_ = 0;
  std::string min_key_;
  std::string max_key_;
  // Registry promotion of the per-table atomics above (null = not wired).
  obs::Counter* bloom_checks_ = nullptr;
  obs::Counter* bloom_useful_ = nullptr;
};

/// Streaming SSTable writer: entries are appended in sorted order and
/// spill to disk in bounded buffered writes, so building a table costs
/// O(buffer + index + keys-for-bloom) memory — bounded by the roll
/// threshold of the producing compaction, never by the total database
/// size.  The sparse index and the key set (for the bloom filter, which
/// needs the final count) stay in memory until `Finish`.
///
/// Lifecycle: `Add`* then exactly one of `Finish` (writes index + bloom
/// + range + footer, returns an opened reader) or `Abandon` (closes and
/// unlinks the partial file).  The destructor abandons an unfinished
/// build.  Any I/O error is sticky: later calls return it unchanged.
class SSTableBuilder {
 public:
  SSTableBuilder(std::string path, int bloom_bits_per_key = 10,
                 IoFaultInjector* faults = nullptr);
  ~SSTableBuilder();

  SSTableBuilder(const SSTableBuilder&) = delete;
  SSTableBuilder& operator=(const SSTableBuilder&) = delete;

  /// Appends one entry; entries must arrive in InternalEntryComparator
  /// order (the caller is a sorted merge or memtable scan).
  Status Add(const InternalEntry& e);

  Result<std::shared_ptr<SSTable>> Finish(BlockCache* cache = nullptr);

  /// Closes and unlinks the partial file.  Safe to call after an error.
  void Abandon();

  /// Data-region bytes so far (written + buffered) — the roll signal.
  uint64_t data_bytes() const { return data_written_ + buffer_.size(); }
  uint64_t entry_count() const { return entry_count_; }
  const std::string& path() const { return path_; }

 private:
  /// Writes `bytes` through the fault injector; a torn or failed write
  /// is sticky.
  Status WriteRaw(std::string_view bytes);
  Status FlushBuffer();

  std::string path_;
  int fd_ = -1;
  int bloom_bits_per_key_;
  IoFaultInjector* faults_;
  std::string buffer_;          // pending data-region bytes
  uint64_t data_written_ = 0;   // data-region bytes already on disk
  std::string index_;
  uint64_t index_count_ = 0;
  uint64_t entry_count_ = 0;
  std::vector<std::string> keys_;  // bloom input (needs final count)
  std::string min_key_;
  std::string max_key_;
  Status status_;
  bool finished_ = false;
};

}  // namespace deluge::storage

#endif  // DELUGE_STORAGE_SSTABLE_H_

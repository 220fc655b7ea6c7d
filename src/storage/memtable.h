#ifndef DELUGE_STORAGE_MEMTABLE_H_
#define DELUGE_STORAGE_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/format.h"
#include "storage/skiplist.h"

namespace deluge::storage {

/// In-memory sorted write buffer: the mutable top of the LSM tree.
///
/// Holds versioned entries ordered by (key asc, seq desc).  When its
/// approximate size exceeds the store budget the owner flushes it to an
/// SSTable and starts a fresh one.
///
/// Thread-safety: one writer, many lock-free readers.  Calls to `Add`
/// (and `ApproximateBytes`) must be serialized by the owner — the store
/// inserts under its mutex — while `Get` and iterators may run on any
/// thread at the same time, without a lock (see `SkipList`).  A reader
/// may see some entries of a batch that is still being inserted; the
/// store hides them by reading at its published sequence number.
class MemTable {
 public:
  /// `budget_bytes` is the size at which the owner flushes the table.  It
  /// sizes a whole-key filter that lets `Get` skip the skip-list search
  /// for keys this memtable never held — most point reads, since a
  /// memtable holds a small slice of the keyspace.
  explicit MemTable(size_t budget_bytes);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Inserts a put or tombstone.
  void Add(SequenceNumber seq, ValueType type, std::string_view key,
           std::string_view value);

  /// Looks up the newest version of `key` with seq <= `snapshot`.
  /// Returns true when a version was found; `*found_value` is filled for
  /// puts, `*is_tombstone` set for deletes.
  bool Get(std::string_view key, SequenceNumber snapshot,
           std::string* found_value, bool* is_tombstone) const;

  size_t ApproximateBytes() const { return bytes_; }
  size_t entry_count() const { return list_.size(); }

  /// Iterator over all versions in internal order (flush, snapshot
  /// scans).
  class Iterator {
   public:
    explicit Iterator(const MemTable* mt) : it_(&mt->list_) {}
    bool Valid() const { return it_.Valid(); }
    void SeekToFirst() { it_.SeekToFirst(); }
    void Seek(std::string_view key, SequenceNumber seq);
    void Next() { it_.Next(); }
    const InternalEntry& entry() const { return it_.key(); }

   private:
    SkipList<InternalEntry, InternalEntryComparator>::Iterator it_;
  };

 private:
  /// False when `key` was never added (filter bits clear).
  bool MayContain(std::string_view key) const;

  SkipList<InternalEntry, InternalEntryComparator> list_;
  size_t bytes_ = 0;  // writer-only
  // Filter words.  The writer sets a key's bits (relaxed) before its
  // entry is linked and published, so a reader whose snapshot covers the
  // entry sees them: publication orders the bits too.  Only the writer
  // stores to them, so it ORs bits in with a plain load and store.
  std::vector<std::atomic<uint64_t>> filter_;  // power-of-two size
};

}  // namespace deluge::storage

#endif  // DELUGE_STORAGE_MEMTABLE_H_

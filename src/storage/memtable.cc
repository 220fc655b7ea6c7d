#include "storage/memtable.h"

#include <bit>
#include <utility>

#include "common/hash.h"

namespace deluge::storage {

namespace {

/// Filter density: one bit per 4 bytes of budget, so even the smallest
/// entries (a 1-byte key charges 25 bytes) get 6 bits.
constexpr size_t kBudgetBytesPerFilterBit = 4;
constexpr int kFilterProbes = 3;

// The filter bits that stand for `key`: kFilterProbes bits of one word
// of a power-of-two array of `words`, so a lookup or an insert touches
// one word.  The word and the bits come from independent hash bits.
struct FilterSlot {
  size_t word;
  uint64_t bits;
};
FilterSlot FilterSlotOf(std::string_view key, size_t words) {
  const uint64_t h = Hash64(key);
  uint64_t g = Mix64(h);
  uint64_t bits = 0;
  for (int i = 0; i < kFilterProbes; ++i, g >>= 6) {
    bits |= uint64_t{1} << (g & 63);
  }
  return {size_t(h & (words - 1)), bits};
}

}  // namespace

MemTable::MemTable(size_t budget_bytes)
    : filter_(std::bit_ceil((budget_bytes / kBudgetBytesPerFilterBit + 63) /
                            64)) {}

bool MemTable::MayContain(std::string_view key) const {
  const FilterSlot slot = FilterSlotOf(key, filter_.size());
  return (filter_[slot.word].load(std::memory_order_relaxed) & slot.bits) ==
         slot.bits;
}

void MemTable::Add(SequenceNumber seq, ValueType type, std::string_view key,
                   std::string_view value) {
  const FilterSlot slot = FilterSlotOf(key, filter_.size());
  std::atomic<uint64_t>& word = filter_[slot.word];
  word.store(word.load(std::memory_order_relaxed) | slot.bits,
             std::memory_order_relaxed);
  InternalEntry e;
  e.user_key.assign(key);
  e.seq = seq;
  e.type = type;
  e.value.assign(value);
  bytes_ += e.ApproximateSize();
  list_.Insert(std::move(e));
}

bool MemTable::Get(std::string_view key, SequenceNumber snapshot,
                   std::string* found_value, bool* is_tombstone) const {
  if (!MayContain(key)) return false;
  // Seek to the newest version visible at `snapshot`: entries sort by
  // (key asc, seq desc), so the first entry with this key and seq <=
  // snapshot is the answer.
  SkipList<InternalEntry, InternalEntryComparator>::Iterator it(&list_);
  it.Seek(LookupKey{key, snapshot});
  if (!it.Valid()) return false;
  const InternalEntry& e = it.key();
  if (e.user_key != key) return false;
  *is_tombstone = (e.type == ValueType::kTombstone);
  if (!*is_tombstone) found_value->assign(e.value);
  return true;
}

void MemTable::Iterator::Seek(std::string_view key, SequenceNumber seq) {
  it_.Seek(LookupKey{key, seq});
}

}  // namespace deluge::storage

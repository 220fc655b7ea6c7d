#ifndef DELUGE_STORAGE_FORMAT_H_
#define DELUGE_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace deluge::storage {

/// Monotonic version counter: every write to a KV store gets one.
using SequenceNumber = uint64_t;

/// Record kinds inside memtables, WAL batches, and SSTables.
enum class ValueType : uint8_t {
  kValue = 0,
  kTombstone = 1,
};

/// One logical record: a versioned (key, value) or deletion marker.
struct InternalEntry {
  std::string user_key;
  SequenceNumber seq = 0;
  ValueType type = ValueType::kValue;
  std::string value;

  /// Bytes charged against the memtable budget.
  size_t ApproximateSize() const {
    return user_key.size() + value.size() + 24;
  }
};

/// A point-lookup target: the newest version of `user_key` visible at
/// `seq`.  Orders against entries like an entry would, so lookups seek
/// without copying the key into an `InternalEntry`.
struct LookupKey {
  std::string_view user_key;
  SequenceNumber seq = 0;
};

/// Orders by (user_key ascending, seq descending): the newest version of a
/// key is encountered first in scans — the LSM-invariant ordering.
struct InternalEntryComparator {
  int operator()(const InternalEntry& a, const InternalEntry& b) const {
    return Compare(a, b.user_key, b.seq);
  }
  int operator()(const InternalEntry& a, const LookupKey& b) const {
    return Compare(a, b.user_key, b.seq);
  }

 private:
  static int Compare(const InternalEntry& a, std::string_view key,
                     SequenceNumber seq) {
    int c = std::string_view(a.user_key).compare(key);
    if (c != 0) return c;
    if (a.seq > seq) return -1;  // newer first
    if (a.seq < seq) return 1;
    return 0;
  }
};

// --------------------------------------------------------------------
// Varint / fixed-width coding (little-endian), LevelDB-style.

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);
/// Appends varint32 length followed by the bytes.
void PutLengthPrefixed(std::string* dst, std::string_view s);

/// Each Get* consumes from the front of `*input`; returns false on
/// malformed/truncated input (input position then unspecified).
bool GetFixed32(std::string_view* input, uint32_t* v);
bool GetFixed64(std::string_view* input, uint64_t* v);
bool GetVarint32(std::string_view* input, uint32_t* v);
bool GetVarint64(std::string_view* input, uint64_t* v);
bool GetLengthPrefixed(std::string_view* input, std::string_view* s);

}  // namespace deluge::storage

#endif  // DELUGE_STORAGE_FORMAT_H_

#ifndef DELUGE_STORAGE_BLOCK_CACHE_H_
#define DELUGE_STORAGE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace deluge::storage {

/// A sharded LRU cache over SSTable read chunks — the memory tier in
/// front of the disaggregated storage layer (Fig. 7 of the paper).
///
/// Keys are `(table_id, chunk_index)`: table ids are unique per opened
/// SSTable for the process lifetime, so entries for deleted tables can
/// never alias a new file.  Values are immutable byte chunks shared with
/// readers via `shared_ptr`, so an entry may be evicted while a reader
/// still decodes from it.
///
/// Thread-safety: fully thread-safe.  The key hash picks one of
/// `num_shards` independent LRU shards, each with its own mutex, so
/// concurrent `Get`s on different tables (or different regions of one
/// table) do not serialize on a single cache lock.  A hit writes only
/// its shard's cache lines: the counters live in the shard, and a chunk
/// already at the LRU front is not relinked.  (Readers of one hot chunk
/// still share its shard's lock.)
class BlockCache {
 public:
  using ChunkPtr = std::shared_ptr<const std::string>;

  /// `capacity_bytes` is the total budget across all shards; each shard
  /// gets an equal slice (at least one chunk's worth, so a tiny cache
  /// still admits entries rather than thrashing on insert).
  explicit BlockCache(size_t capacity_bytes, size_t num_shards = 16);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the cached chunk or nullptr; counts a hit or a miss.
  ChunkPtr Lookup(uint64_t table_id, uint64_t chunk_index);

  /// Inserts (or replaces) a chunk, evicting LRU entries from the
  /// target shard until it fits.  Chunks larger than a whole shard are
  /// passed through uncached.
  void Insert(uint64_t table_id, uint64_t chunk_index, ChunkPtr chunk);

  /// Drops every chunk belonging to `table_id` (called when a
  /// compaction deletes the table's file, so dead bytes don't squat in
  /// the LRU until natural eviction).
  void EraseTable(uint64_t table_id);

  /// Counter sums over the shards.
  uint64_t hits() const { return Sum(&Shard::hits); }
  uint64_t misses() const { return Sum(&Shard::misses); }
  uint64_t evictions() const { return Sum(&Shard::evictions); }
  /// Current cached bytes (sums shard counters; approximate under
  /// concurrent churn).
  size_t size_bytes() const;
  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Key {
    uint64_t table_id;
    uint64_t chunk_index;
    bool operator==(const Key& o) const {
      return table_id == o.table_id && chunk_index == o.chunk_index;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Cheap mix; table ids and chunk indexes are both small integers.
      uint64_t h = k.table_id * 0x9E3779B97F4A7C15ULL;
      h ^= k.chunk_index + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      return size_t(h);
    }
  };
  struct Entry {
    Key key;
    ChunkPtr chunk;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
    size_t bytes = 0;
    // Written under `mu`; atomic only so the sums can read them unlocked.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[KeyHash()(key) % shards_.size()];
  }
  uint64_t Sum(std::atomic<uint64_t> Shard::*counter) const;

  size_t capacity_bytes_;
  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace deluge::storage

#endif  // DELUGE_STORAGE_BLOCK_CACHE_H_

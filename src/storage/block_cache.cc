#include "storage/block_cache.h"

#include <algorithm>

namespace deluge::storage {

BlockCache::BlockCache(size_t capacity_bytes, size_t num_shards)
    : capacity_bytes_(capacity_bytes) {
  num_shards = std::max<size_t>(1, num_shards);
  // A shard must admit at least one typical 64 KB chunk or inserts
  // would evict themselves immediately.
  shard_capacity_ = std::max<size_t>(64 * 1024, capacity_bytes / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::ChunkPtr BlockCache::Lookup(uint64_t table_id,
                                        uint64_t chunk_index) {
  Key key{table_id, chunk_index};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  // A hot chunk is usually already the most recent: skip the relink
  // (and the neighbour-node writes it costs).
  if (it->second != shard.lru.begin()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
  return it->second->chunk;
}

void BlockCache::Insert(uint64_t table_id, uint64_t chunk_index,
                        ChunkPtr chunk) {
  if (chunk == nullptr || chunk->size() > shard_capacity_) return;
  Key key{table_id, chunk_index};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->chunk->size();
    it->second->chunk = std::move(chunk);
    shard.bytes += it->second->chunk->size();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(chunk)});
    shard.bytes += shard.lru.front().chunk->size();
    shard.map[key] = shard.lru.begin();
  }
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.chunk->size();
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void BlockCache::EraseTable(uint64_t table_id) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.table_id == table_id) {
        shard.bytes -= it->chunk->size();
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

uint64_t BlockCache::Sum(std::atomic<uint64_t> Shard::*counter) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += (shard.get()->*counter).load(std::memory_order_relaxed);
  }
  return total;
}

size_t BlockCache::size_bytes() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    total += shard_ptr->bytes;
  }
  return total;
}

}  // namespace deluge::storage

#ifndef DELUGE_RUNTIME_BUFFER_POOL_H_
#define DELUGE_RUNTIME_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>

#include "common/buffer.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "stream/tuple.h"

namespace deluge::runtime {

/// Buffer pool counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes_fetched = 0;

  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

/// A semantics-aware buffer pool for the cloud tier of Fig. 7.
///
/// Pages carry the space they serve (Section IV-F: "data from the real
/// space may be given higher priority over data from the virtual
/// space").  Eviction is LRU within a space class; virtual-space pages
/// absorb eviction pressure first, except that physical-page inserts
/// cannot reclaim the protected `virtual_share` fraction of capacity —
/// guaranteeing the virtual space a minimum working set while physical
/// data otherwise outranks it.
class BufferPool {
 public:
  /// Fetch callback: loads page `id` from the storage tier, returning
  /// its contents (simulations usually return a sized dummy buffer).
  using Fetcher = std::function<std::string(const std::string& id)>;

  BufferPool(uint64_t capacity_bytes, Fetcher fetcher,
             double virtual_share = 0.5);

  /// Returns the page contents, fetching and caching on miss.
  /// `space` tags the page's priority class on first fetch.
  Status Get(const std::string& id, stream::Space space, std::string* data);

  /// Installs/overwrites a page directly (write path).
  void Put(const std::string& id, stream::Space space, std::string data);

  /// Drops a page if cached.
  void Invalidate(const std::string& id);

  bool Contains(const std::string& id) const;

  // --- Payload slab integration (zero-copy event path) -----------------

  /// The slab arena backing refcounted payload Buffers (the process
  /// default arena — see `common::BufferArena`).  Exposed here because
  /// the buffer pool is the runtime's memory-tier owner: payload slabs
  /// whose refcount drops to zero return to this arena's free lists.
  static common::BufferArena& payload_arena();

  /// Copies `bytes` into a refcounted payload Buffer backed by
  /// `payload_arena()`.  When the last reference drops, the slab goes
  /// back to the arena free list instead of the heap.
  static common::Buffer AllocatePayload(common::Slice bytes);

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_; }
  BufferPoolStats stats() const { return view_.Read(); }

 private:
  struct Page {
    std::string id;
    std::string data;
    stream::Space space;
  };
  // Two LRU lists (front = most recent), one per space class.
  using LruList = std::list<Page>;

  void EvictUntilFits(uint64_t incoming_bytes, stream::Space incoming_space);
  void InsertPage(Page page);
  LruList& ListFor(stream::Space space) {
    return space == stream::Space::kPhysical ? physical_ : virtual_;
  }
  uint64_t BytesOf(const LruList& l) const;

  uint64_t capacity_;
  Fetcher fetcher_;
  double virtual_share_;
  LruList physical_;
  LruList virtual_;
  std::unordered_map<std::string, LruList::iterator> pages_;
  uint64_t used_bytes_ = 0;
  uint64_t virtual_bytes_ = 0;
  obs::StatsScope obs_{"bufferpool"};
  obs::StatsView<BufferPoolStats> view_{obs_};
  obs::Counter* hits_ = view_.counter("hits", &BufferPoolStats::hits);
  obs::Counter* misses_ = view_.counter("misses", &BufferPoolStats::misses);
  obs::Counter* evictions_ =
      view_.counter("evictions", &BufferPoolStats::evictions);
  obs::Counter* bytes_fetched_ =
      view_.counter("bytes_fetched", &BufferPoolStats::bytes_fetched);
};

}  // namespace deluge::runtime

#endif  // DELUGE_RUNTIME_BUFFER_POOL_H_

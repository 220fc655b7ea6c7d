#include "runtime/buffer_pool.h"

namespace deluge::runtime {

BufferPool::BufferPool(uint64_t capacity_bytes, Fetcher fetcher,
                       double virtual_share)
    : capacity_(capacity_bytes),
      fetcher_(std::move(fetcher)),
      virtual_share_(virtual_share) {}

common::BufferArena& BufferPool::payload_arena() {
  return *common::BufferArena::Default();
}

common::Buffer BufferPool::AllocatePayload(common::Slice bytes) {
  return common::Buffer::CopyOf(bytes, &payload_arena());
}

uint64_t BufferPool::BytesOf(const LruList& l) const {
  return &l == &virtual_ ? virtual_bytes_ : used_bytes_ - virtual_bytes_;
}

void BufferPool::EvictUntilFits(uint64_t incoming_bytes,
                                stream::Space incoming_space) {
  const uint64_t protected_virtual =
      uint64_t(virtual_share_ * double(capacity_));
  while (used_bytes_ + incoming_bytes > capacity_ &&
         (!physical_.empty() || !virtual_.empty())) {
    // Space-aware policy: virtual pages absorb eviction pressure first,
    // but physical-page inserts cannot reclaim the protected virtual
    // share — below it, physical LRU pages are evicted instead.
    LruList* victim_list = nullptr;
    bool virtual_protected =
        incoming_space == stream::Space::kPhysical &&
        virtual_bytes_ <= protected_virtual;
    if (!virtual_.empty() && !virtual_protected) {
      victim_list = &virtual_;
    } else if (!physical_.empty()) {
      victim_list = &physical_;
    } else {
      victim_list = &virtual_;
    }
    Page& victim = victim_list->back();
    used_bytes_ -= victim.data.size();
    if (victim_list == &virtual_) virtual_bytes_ -= victim.data.size();
    pages_.erase(victim.id);
    victim_list->pop_back();
    evictions_->Add(1);
  }
}

void BufferPool::InsertPage(Page page) {
  EvictUntilFits(page.data.size(), page.space);
  if (page.data.size() > capacity_) return;  // page larger than pool: skip
  used_bytes_ += page.data.size();
  if (page.space == stream::Space::kVirtual) {
    virtual_bytes_ += page.data.size();
  }
  LruList& list = ListFor(page.space);
  list.push_front(std::move(page));
  pages_[list.front().id] = list.begin();
}

Status BufferPool::Get(const std::string& id, stream::Space space,
                       std::string* data) {
  auto it = pages_.find(id);
  if (it != pages_.end()) {
    hits_->Add(1);
    // Move to front of its list.
    LruList& list = ListFor(it->second->space);
    list.splice(list.begin(), list, it->second);
    it->second = list.begin();
    *data = it->second->data;
    return Status::OK();
  }
  misses_->Add(1);
  if (!fetcher_) return Status::NotFound("no fetcher and page absent: " + id);
  std::string fetched = fetcher_(id);
  bytes_fetched_->Add(fetched.size());
  *data = fetched;
  InsertPage(Page{id, std::move(fetched), space});
  return Status::OK();
}

void BufferPool::Put(const std::string& id, stream::Space space,
                     std::string data) {
  Invalidate(id);
  InsertPage(Page{id, std::move(data), space});
}

void BufferPool::Invalidate(const std::string& id) {
  auto it = pages_.find(id);
  if (it == pages_.end()) return;
  LruList& list = ListFor(it->second->space);
  used_bytes_ -= it->second->data.size();
  if (it->second->space == stream::Space::kVirtual) {
    virtual_bytes_ -= it->second->data.size();
  }
  list.erase(it->second);
  pages_.erase(it);
}

bool BufferPool::Contains(const std::string& id) const {
  return pages_.count(id) > 0;
}

}  // namespace deluge::runtime

#include "storage/sstable.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

namespace deluge::storage {

namespace {

// Process-unique reader ids: the block-cache namespace.  Never reused,
// so cache entries of a deleted table can't alias a newly opened one.
std::atomic<uint64_t> g_next_table_id{1};

// Appends one data-region record for `e` to `out`.
void EncodeEntry(const InternalEntry& e, std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(e.user_key.size()));
  out->append(e.user_key);
  PutFixed64(out, e.seq);
  out->push_back(static_cast<char>(e.type));
  PutVarint32(out, static_cast<uint32_t>(e.value.size()));
  out->append(e.value);
}

}  // namespace

SSTable::~SSTable() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::shared_ptr<SSTable>> SSTable::Build(
    const std::string& path, const std::vector<InternalEntry>& entries,
    int bloom_bits_per_key, IoFaultInjector* faults, BlockCache* cache) {
  SSTableBuilder builder(path, bloom_bits_per_key, faults);
  for (const auto& e : entries) {
    Status s = builder.Add(e);
    if (!s.ok()) return s;
  }
  return builder.Finish(cache);
}

Result<std::shared_ptr<SSTable>> SSTable::Open(const std::string& path,
                                               BlockCache* cache) {
  auto table = std::shared_ptr<SSTable>(new SSTable());
  table->path_ = path;
  table->table_id_ = g_next_table_id.fetch_add(1, std::memory_order_relaxed);
  table->cache_ = cache;
  table->fd_ = ::open(path.c_str(), O_RDONLY);
  if (table->fd_ < 0) {
    return Status::IOError("cannot open SSTable " + path);
  }
  Status s = table->LoadFooterAndIndex();
  if (!s.ok()) return s;
  return table;
}

Status SSTable::ReadAt(uint64_t offset, size_t n, char* dst) const {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd_, dst + got, n - got, off_t(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread failed on " + path_ + ": " +
                             std::strerror(errno));
    }
    if (r == 0) return Status::IOError("short read on " + path_);
    got += size_t(r);
  }
  return Status::OK();
}

Status SSTable::LoadFooterAndIndex() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("fstat failed on " + path_);
  }
  uint64_t file_len = uint64_t(st.st_size);
  if (file_len < 48) return Status::Corruption("SSTable too small: " + path_);

  // The last word is the magic in both formats; it selects the footer
  // shape before anything else is parsed.
  char magic_buf[8];
  Status s = ReadAt(file_len - 8, 8, magic_buf);
  if (!s.ok()) return s;
  uint64_t magic = 0;
  {
    std::string_view mv(magic_buf, 8);
    GetFixed64(&mv, &magic);
  }
  const bool v2 = magic == kMagicV2;
  if (!v2 && magic != kMagic) {
    return Status::Corruption("bad magic in " + path_);
  }

  uint64_t index_off = 0, index_count = 0, bloom_off = 0, bloom_len = 0;
  uint64_t range_off = 0;
  const uint64_t footer_len = v2 ? 56 : 48;
  if (file_len < footer_len) {
    return Status::Corruption("SSTable too small: " + path_);
  }
  char footer_buf[56];
  s = ReadAt(file_len - footer_len, footer_len, footer_buf);
  if (!s.ok()) return s;
  std::string_view fv(footer_buf, footer_len);
  GetFixed64(&fv, &index_off);
  GetFixed64(&fv, &index_count);
  GetFixed64(&fv, &bloom_off);
  GetFixed64(&fv, &bloom_len);
  if (v2) GetFixed64(&fv, &range_off);
  GetFixed64(&fv, &entry_count_);
  if (!v2) range_off = file_len - footer_len;  // degenerate: empty block
  if (index_off > bloom_off || bloom_off + bloom_len > range_off ||
      range_off + footer_len > file_len) {
    return Status::Corruption("bad footer offsets in " + path_);
  }
  data_end_ = index_off;

  // Index block.
  const uint64_t index_len = bloom_off - index_off;
  std::string index_bytes(index_len, '\0');
  s = ReadAt(index_off, index_len, index_bytes.data());
  if (!s.ok()) return s;
  std::string_view iv(index_bytes);
  index_.clear();
  index_.reserve(index_count);
  for (uint64_t i = 0; i < index_count; ++i) {
    uint32_t klen = 0;
    if (!GetVarint32(&iv, &klen) || iv.size() < klen + 8) {
      return Status::Corruption("bad index entry in " + path_);
    }
    IndexEntry e;
    e.key.assign(iv.substr(0, klen));
    iv.remove_prefix(klen);
    GetFixed64(&iv, &e.offset);
    index_.push_back(std::move(e));
  }
  if (!index_.empty()) min_key_ = index_.front().key;

  // Bloom block.
  std::string bloom_bytes(bloom_len, '\0');
  s = ReadAt(bloom_off, bloom_len, bloom_bytes.data());
  if (!s.ok()) return s;
  bloom_ = BloomFilter::Deserialize(bloom_bytes);

  if (v2) {
    // Range block: the key range is persisted, so v2 tables open
    // without touching the data region at all.
    const uint64_t range_len = file_len - footer_len - range_off;
    std::string range_bytes(range_len, '\0');
    s = ReadAt(range_off, range_len, range_bytes.data());
    if (!s.ok()) return s;
    std::string_view rv(range_bytes);
    uint32_t klen = 0;
    if (!GetVarint32(&rv, &klen) || rv.size() < klen) {
      return Status::Corruption("bad range block in " + path_);
    }
    min_key_.assign(rv.substr(0, klen));
    rv.remove_prefix(klen);
    if (!GetVarint32(&rv, &klen) || rv.size() < klen) {
      return Status::Corruption("bad range block in " + path_);
    }
    max_key_.assign(rv.substr(0, klen));
    return Status::OK();
  }

  // v1 (legacy) tables carry no range block: recover the max key by
  // scanning forward from the last index point.  This per-open tail
  // scan is exactly what the v2 format exists to remove.
  if (entry_count_ > 0 && !index_.empty()) {
    Iterator it(this);
    it.Seek(index_.back().key);
    std::string last;
    while (it.Valid()) {
      last = it.entry().user_key;
      it.Next();
    }
    if (!it.status().ok()) return it.status();
    max_key_ = last;
  }
  return Status::OK();
}

std::vector<std::string> SSTable::IndexSampleKeys(size_t max_samples) const {
  std::vector<std::string> out;
  if (max_samples == 0 || index_.empty()) return out;
  const size_t n = std::min(max_samples, index_.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(index_[i * index_.size() / n].key);
  }
  return out;
}

BlockCache::ChunkPtr SSTable::ReadChunk(uint64_t chunk_index,
                                        Status* status) const {
  uint64_t offset = chunk_index * kReadChunkSize;
  if (offset >= data_end_) return nullptr;
  if (cache_ != nullptr) {
    auto chunk = cache_->Lookup(table_id_, chunk_index);
    if (chunk != nullptr) return chunk;
  }
  size_t n = size_t(std::min<uint64_t>(kReadChunkSize, data_end_ - offset));
  auto chunk = std::make_shared<std::string>(n, '\0');
  Status s = ReadAt(offset, n, chunk->data());
  if (!s.ok()) {
    if (status != nullptr) *status = s;
    return nullptr;
  }
  if (cache_ != nullptr) cache_->Insert(table_id_, chunk_index, chunk);
  return chunk;
}

uint64_t SSTable::ScanStart(std::string_view key) const {
  // Strict: an index point whose key EQUALS the target may be preceded by
  // newer versions of the same user key at the tail of the previous
  // block (entries sort by (key asc, seq desc)), so the scan must start
  // one block earlier.
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const IndexEntry& e, std::string_view k) { return e.key < k; });
  if (it != index_.begin()) --it;
  return it->offset;
}

Status SSTable::Get(std::string_view key, SequenceNumber snapshot,
                    std::string* value, bool* is_tombstone) const {
  if (index_.empty()) return Status::NotFound();
  if (bloom_checks_ != nullptr) bloom_checks_->Increment();
  if (!bloom_.MayContain(key)) {
    if (bloom_useful_ != nullptr) bloom_useful_->Increment();
    return Status::NotFound();
  }
  RecordCursor cursor(this);
  RecordView rec;
  Status status;
  for (uint64_t offset = ScanStart(key); offset < data_end_;) {
    const size_t n = cursor.Read(offset, &rec, &status);
    // An I/O error mid-probe must not masquerade as NotFound: the key
    // may well be in the unreadable region.
    if (n == 0) return status;
    const int c = rec.key.compare(key);
    if (c > 0) break;
    if (c == 0 && rec.seq <= snapshot) {
      *is_tombstone = rec.type == ValueType::kTombstone;
      if (!*is_tombstone) value->assign(rec.value);
      return Status::OK();
    }
    offset += n;
  }
  return Status::NotFound();
}

// --------------------------------------------------------- Record cursor

namespace {

// Decodes the record at the front of `data` into views; returns the bytes
// it occupies, or 0 when `data` ends inside it.
size_t DecodeRecord(std::string_view data, std::string_view* key,
                    SequenceNumber* seq, ValueType* type,
                    std::string_view* value) {
  std::string_view rest = data;
  uint32_t klen = 0;
  if (!GetVarint32(&rest, &klen) || rest.size() < uint64_t(klen) + 9) {
    return 0;
  }
  *key = rest.substr(0, klen);
  rest.remove_prefix(klen);
  GetFixed64(&rest, seq);
  *type = static_cast<ValueType>(static_cast<uint8_t>(rest.front()));
  rest.remove_prefix(1);
  uint32_t vlen = 0;
  if (!GetVarint32(&rest, &vlen) || rest.size() < vlen) return 0;
  *value = rest.substr(0, vlen);
  rest.remove_prefix(vlen);
  return data.size() - rest.size();
}

}  // namespace

size_t SSTable::RecordCursor::Read(uint64_t offset, RecordView* rec,
                                   Status* status) {
  auto decode = [rec](std::string_view data) {
    return DecodeRecord(data, &rec->key, &rec->seq, &rec->type, &rec->value);
  };
  // Fast path: the record decodes entirely from the held chunk —
  // consecutive records reuse one chunk read (and one cache lookup)
  // instead of issuing fresh I/O per record.
  if (chunk_ == nullptr || offset < chunk_off_ ||
      offset >= chunk_off_ + chunk_->size()) {
    chunk_ = table_->ReadChunk(offset / kReadChunkSize, status);
    if (chunk_ == nullptr) return 0;  // *status carries the I/O error
    chunk_off_ = (offset / kReadChunkSize) * kReadChunkSize;
  }
  const size_t in_chunk = size_t(offset - chunk_off_);
  size_t consumed =
      decode({chunk_->data() + in_chunk, chunk_->size() - in_chunk});
  if (consumed > 0) return consumed;

  // The record crosses the chunk boundary: assemble it from consecutive
  // aligned chunks (each individually cacheable) until it decodes or the
  // data region is exhausted (truncated record => corruption).
  spill_.assign(chunk_->data() + in_chunk, chunk_->size() - in_chunk);
  uint64_t next_chunk = chunk_off_ / kReadChunkSize + 1;
  while (next_chunk * kReadChunkSize < table_->data_end_) {
    BlockCache::ChunkPtr more = table_->ReadChunk(next_chunk, status);
    if (more == nullptr) return 0;
    spill_.append(*more);
    ++next_chunk;
    consumed = decode(spill_);
    if (consumed > 0) {
      // Keep the last chunk: the next record starts inside it.
      chunk_ = std::move(more);
      chunk_off_ = (next_chunk - 1) * kReadChunkSize;
      return consumed;
    }
  }
  // The data region ended mid-record: damage, not a clean EOF (callers
  // stop at the data-region end before ever reading there).
  *status = Status::Corruption("truncated record in " + table_->path_);
  return 0;
}

// ------------------------------------------------------------- Iterator

SSTable::Iterator::Iterator(const SSTable* table)
    : table_(table), cursor_(table) {}

void SSTable::Iterator::SeekToFirst() {
  next_offset_ = 0;
  status_ = Status::OK();
  Next();
}

void SSTable::Iterator::Seek(std::string_view key) {
  status_ = Status::OK();
  valid_ = false;
  if (table_->index_.empty()) return;
  next_offset_ = table_->ScanStart(key);
  RecordView rec;
  while (ReadNext(&rec)) {
    if (rec.key >= key) return Load(rec);
  }
}

void SSTable::Iterator::Next() {
  RecordView rec;
  valid_ = false;
  if (ReadNext(&rec)) Load(rec);
}

void SSTable::Iterator::Load(const RecordView& rec) {
  current_.user_key.assign(rec.key);
  current_.seq = rec.seq;
  current_.type = rec.type;
  current_.value.assign(rec.value);
  valid_ = true;
}

bool SSTable::Iterator::ReadNext(RecordView* rec) {
  if (next_offset_ >= table_->data_end_) return false;
  const size_t n = cursor_.Read(next_offset_, rec, &status_);
  next_offset_ += n;
  return n > 0;
}

// ------------------------------------------------------------- Builder

namespace {
// Pending data-region bytes spill to disk at this size; together with
// the producing compaction's roll threshold it bounds builder memory.
constexpr size_t kBuilderBufferBytes = 256 * 1024;
}  // namespace

SSTableBuilder::SSTableBuilder(std::string path, int bloom_bits_per_key,
                               IoFaultInjector* faults)
    : path_(std::move(path)),
      bloom_bits_per_key_(bloom_bits_per_key),
      faults_(faults) {
  // O_TRUNC: a crashed build's partial file with the same number is
  // simply overwritten on retry.  Offsets are 64-bit throughout — the
  // writer never seeks, readers use positional I/O.
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    status_ = Status::IOError("cannot create SSTable " + path_ + ": " +
                              std::strerror(errno));
  }
}

SSTableBuilder::~SSTableBuilder() {
  if (!finished_) Abandon();
}

Status SSTableBuilder::Add(const InternalEntry& e) {
  if (!status_.ok()) return status_;
  if (entry_count_ % SSTable::kIndexInterval == 0) {
    PutVarint32(&index_, static_cast<uint32_t>(e.user_key.size()));
    index_.append(e.user_key);
    PutFixed64(&index_, data_bytes());
    ++index_count_;
  }
  if (entry_count_ == 0) min_key_ = e.user_key;
  max_key_ = e.user_key;  // sorted input: the latest key is the max
  // Adjacent versions of one user key need a single bloom entry.
  if (keys_.empty() || keys_.back() != e.user_key) {
    keys_.push_back(e.user_key);
  }
  EncodeEntry(e, &buffer_);
  ++entry_count_;
  if (buffer_.size() >= kBuilderBufferBytes) return FlushBuffer();
  return status_;
}

Status SSTableBuilder::WriteRaw(std::string_view bytes) {
  if (!status_.ok()) return status_;
  size_t to_write = bytes.size();
  if (faults_ != nullptr) to_write = faults_->BeforeWrite(bytes.size());
  size_t written = 0;
  while (written < to_write) {
    ssize_t n = ::write(fd_, bytes.data() + written, to_write - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      status_ = Status::IOError("SSTable write failed: " + path_ + ": " +
                                std::strerror(errno));
      return status_;
    }
    if (n == 0) break;
    written += size_t(n);
  }
  if (written != bytes.size()) {
    // A torn write is the crash the injector simulates: fail the build
    // immediately; the partial file never becomes an installed table.
    status_ = Status::IOError("SSTable write torn: " + path_);
  }
  return status_;
}

Status SSTableBuilder::FlushBuffer() {
  if (buffer_.empty()) return status_;
  Status s = WriteRaw(buffer_);
  if (s.ok()) {
    data_written_ += buffer_.size();
    buffer_.clear();
  }
  return s;
}

Result<std::shared_ptr<SSTable>> SSTableBuilder::Finish(BlockCache* cache) {
  if (!status_.ok()) return status_;
  Status s = FlushBuffer();
  if (!s.ok()) return s;

  BloomFilter bloom(keys_.size(), bloom_bits_per_key_);
  for (const auto& k : keys_) bloom.Add(k);
  const std::string bloom_bytes = bloom.Serialize();

  const uint64_t index_off = data_written_;
  const uint64_t bloom_off = index_off + index_.size();
  const uint64_t range_off = bloom_off + bloom_bytes.size();
  std::string tail;
  tail.reserve(index_.size() + bloom_bytes.size() + min_key_.size() +
               max_key_.size() + 80);
  tail.append(index_);
  tail.append(bloom_bytes);
  PutVarint32(&tail, static_cast<uint32_t>(min_key_.size()));
  tail.append(min_key_);
  PutVarint32(&tail, static_cast<uint32_t>(max_key_.size()));
  tail.append(max_key_);
  PutFixed64(&tail, index_off);
  PutFixed64(&tail, index_count_);
  PutFixed64(&tail, bloom_off);
  PutFixed64(&tail, bloom_bytes.size());
  PutFixed64(&tail, range_off);
  PutFixed64(&tail, entry_count_);
  PutFixed64(&tail, SSTable::kMagicV2);

  s = WriteRaw(tail);
  if (!s.ok()) return s;
  int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    status_ = Status::IOError("SSTable close failed: " + path_);
    return status_;
  }
  finished_ = true;
  return SSTable::Open(path_, cache);
}

void SSTableBuilder::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!finished_) ::unlink(path_.c_str());
  finished_ = true;
}

}  // namespace deluge::storage

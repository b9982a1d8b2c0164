#include "catalog/row.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/thread_annotations.h"

namespace sqlledger {

namespace {

// The row block pool (DESIGN.md §3 "The row block pool"). A block of up to
// kMaxPooledBytes bytes belongs to the class of its size rounded up to
// kGrain and carries no header of its own: the row's header gives its size.
// Larger blocks are malloc's. Each thread caches up to kCacheBlocks free
// blocks per class, so packing and freeing rows takes no lock; a cache
// trades kMoveBlocks blocks at a time with the central free list of the
// class, which alone carves new blocks from kSlabBytes slabs. Slabs are
// never returned to malloc, and a freed block is reused only by its class.
//
// A free block is poisoned for AddressSanitizer except while the pool reads
// or writes the link in its first word, and a block handed out is
// unpoisoned for exactly the row's bytes, so ASan still reports a row
// block read after its row is gone or past its end. LeakSanitizer cannot
// see a leaked pooled block, whose slab stays reachable: Row::LiveBlocks
// is the count a test checks instead.
constexpr size_t kGrain = 8;
constexpr size_t kMaxPooledBytes = 512;
constexpr size_t kClasses = kMaxPooledBytes / kGrain;  // 8, 16, ..., 512 B
constexpr size_t kSlabBytes = 8192;
constexpr uint32_t kCacheBlocks = 32;
constexpr uint32_t kMoveBlocks = 16;

/// The class of a block of 1..kMaxPooledBytes bytes.
size_t ClassOf(size_t bytes) { return (bytes - 1) / kGrain; }
size_t ClassBytes(size_t c) { return (c + 1) * kGrain; }

/// A LIFO list of free blocks, linked through their first words.
struct FreeList {
  void* head = nullptr;
  uint32_t count = 0;

  void Push(void* block) {
    ASAN_UNPOISON_MEMORY_REGION(block, sizeof(void*));
    std::memcpy(block, &head, sizeof(void*));
    ASAN_POISON_MEMORY_REGION(block, sizeof(void*));
    head = block;
    count++;
  }
  void* Pop() {
    void* block = head;
    ASAN_UNPOISON_MEMORY_REGION(block, sizeof(void*));
    std::memcpy(&head, block, sizeof(void*));
    ASAN_POISON_MEMORY_REGION(block, sizeof(void*));
    count--;
    return block;
  }
  /// Moves `n` blocks (at most count) to `to`.
  void MoveTo(FreeList* to, uint32_t n) {
    for (; n > 0; n--) to->Push(Pop());
  }
};

/// One thread's free blocks and its share of the live-block count. Plain
/// thread-local data, so the hot path reads it with no guard: the thread
/// registers it with the pool on its first row and a CacheReaper hands its
/// blocks back when the thread exits.
struct ThreadCache {
  enum State : uint8_t { kNew, kActive, kRetired };

  FreeList lists[kClasses];
  /// Row blocks this thread allocated minus those it freed, and their
  /// bytes. Only this thread writes them; the pool reads them from any
  /// thread.
  std::atomic<int64_t> live{0};
  std::atomic<int64_t> live_bytes{0};
  State state = kNew;
  ThreadCache* prev = nullptr;  // the pool's registry
  ThreadCache* next = nullptr;

  /// Adds `blocks` and `bytes` to the thread's live counts, registering the
  /// cache on the thread's first row, or to the pool's once the cache is
  /// retired.
  void Count(int64_t blocks, int64_t bytes);
};

constinit thread_local ThreadCache tls_cache;

/// The central free lists, the slab being carved and the registry of
/// thread caches.
class RowBlockPool {
 public:
  /// A block of class `c` for a thread whose cache of the class is empty,
  /// after moving kMoveBlocks more into `cache` (carving when the class
  /// has too few). With no cache, a retired thread's, just the block.
  void* Take(size_t c, FreeList* cache) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    FreeList& list = free_[c];
    if (cache == nullptr)
      return list.count > 0 ? list.Pop() : Carve(ClassBytes(c));
    list.MoveTo(cache, std::min(kMoveBlocks, list.count));
    while (cache->count < kMoveBlocks) cache->Push(Carve(ClassBytes(c)));
    return cache->Pop();
  }
  /// Takes back `block`, of class `c`, and kMoveBlocks blocks of `cache`,
  /// a full cache of the class, if there is one.
  void Give(size_t c, void* block, FreeList* cache) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    free_[c].Push(block);
    if (cache != nullptr) cache->MoveTo(&free_[c], kMoveBlocks);
  }
  /// Counts blocks a thread with a retired cache allocated or freed.
  void CountRetired(int64_t blocks, int64_t bytes) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    retired_live_ += blocks;
    retired_bytes_ += bytes;
  }

  void Register(ThreadCache* cache) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    cache->next = caches_;
    if (caches_ != nullptr) caches_->prev = cache;
    caches_ = cache;
  }
  /// Takes every block of an exiting thread's cache and its live count.
  void Retire(ThreadCache* cache) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    for (size_t c = 0; c < kClasses; c++)
      cache->lists[c].MoveTo(&free_[c], cache->lists[c].count);
    retired_live_ += cache->live.load(std::memory_order_relaxed);
    retired_bytes_ += cache->live_bytes.load(std::memory_order_relaxed);
    cache->live.store(0, std::memory_order_relaxed);
    cache->live_bytes.store(0, std::memory_order_relaxed);
    if (cache->prev != nullptr) cache->prev->next = cache->next;
    if (cache->next != nullptr) cache->next->prev = cache->prev;
    if (caches_ == cache) caches_ = cache->next;
    cache->state = ThreadCache::kRetired;
  }

  /// Live blocks and their bytes, over every thread.
  std::pair<int64_t, int64_t> Live() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    int64_t blocks = retired_live_, bytes = retired_bytes_;
    for (const ThreadCache* c = caches_; c != nullptr; c = c->next) {
      blocks += c->live.load(std::memory_order_relaxed);
      bytes += c->live_bytes.load(std::memory_order_relaxed);
    }
    return {blocks, bytes};
  }
  int64_t SlabBytes() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return slab_bytes_;
  }

 private:
  /// A new, poisoned block of `bytes` bytes from the current slab. The tail
  /// of a slab too short for it joins the free list of the class that fits
  /// it, so no slab byte goes unused. A slab's first word links it to the
  /// slab before it: LeakSanitizer ignores the links in poisoned free
  /// blocks, and this unpoisoned chain keeps every slab reachable.
  void* Carve(size_t bytes) REQUIRES(mu_) {
    size_t left = static_cast<size_t>(slab_end_ - slab_);
    if (left < bytes) {
      if (left != 0) free_[ClassOf(left)].Push(slab_);
      uint8_t* slab = static_cast<uint8_t*>(std::malloc(kSlabBytes));
      if (slab == nullptr) std::abort();
      std::memcpy(slab, &slabs_, sizeof(void*));
      slabs_ = slab;
      slab_bytes_ += kSlabBytes;
      slab_ = slab + sizeof(void*);
      slab_end_ = slab + kSlabBytes;
      ASAN_POISON_MEMORY_REGION(slab_, kSlabBytes - sizeof(void*));
    }
    void* block = slab_;
    slab_ += bytes;
    return block;
  }

  Mutex mu_;
  FreeList free_[kClasses] GUARDED_BY(mu_);
  uint8_t* slabs_ GUARDED_BY(mu_) = nullptr;  // the newest slab
  uint8_t* slab_ GUARDED_BY(mu_) = nullptr;  // the uncarved part of it
  uint8_t* slab_end_ GUARDED_BY(mu_) = nullptr;
  ThreadCache* caches_ GUARDED_BY(mu_) = nullptr;  // live threads' caches
  /// Live blocks and bytes counted by exited threads and by retired caches.
  int64_t retired_live_ GUARDED_BY(mu_) = 0;
  int64_t retired_bytes_ GUARDED_BY(mu_) = 0;
  int64_t slab_bytes_ GUARDED_BY(mu_) = 0;
};

/// The pool, never destroyed: rows in static objects outlive static
/// destruction's order. Callers bind it to a typed local, so that
/// deep_lint.py resolves their calls and sees the pool lock.
RowBlockPool& Pool() {
  static RowBlockPool* const pool = new RowBlockPool;
  return *pool;
}

/// Retires the thread's cache when the thread exits. Rows freed after that
/// (by later thread-local or static destructors) go to the central lists.
struct CacheReaper {
  bool armed = false;
  ~CacheReaper() {
    if (!armed) return;
    RowBlockPool& pool = Pool();
    pool.Retire(&tls_cache);
  }
};

thread_local CacheReaper reaper;

void ThreadCache::Count(int64_t blocks, int64_t bytes) {
  if (state == kNew) {
    reaper.armed = true;
    RowBlockPool& pool = Pool();
    pool.Register(this);
    state = kActive;
  }
  if (state == kActive) {
    live.store(live.load(std::memory_order_relaxed) + blocks,
               std::memory_order_relaxed);
    live_bytes.store(live_bytes.load(std::memory_order_relaxed) + bytes,
                     std::memory_order_relaxed);
  } else {
    RowBlockPool& pool = Pool();
    pool.CountRetired(blocks, bytes);
  }
}

/// A block for `bytes` (> 0) bytes of a row, addressable for exactly those.
uint8_t* AllocateBlock(size_t bytes) {
  ThreadCache& tc = tls_cache;
  tc.Count(1, static_cast<int64_t>(bytes));
  void* block;
  if (bytes > kMaxPooledBytes) {
    block = std::malloc(bytes);
    if (block == nullptr) std::abort();
    return static_cast<uint8_t*>(block);
  }
  const size_t c = ClassOf(bytes);
  FreeList& cache = tc.lists[c];
  if (cache.count != 0) {
    block = cache.Pop();
  } else {
    RowBlockPool& pool = Pool();
    block = pool.Take(c, tc.state == ThreadCache::kActive ? &cache : nullptr);
  }
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  return static_cast<uint8_t*>(block);
}

/// Frees `block` (null, or a row block of `bytes` bytes).
void FreeBlock(uint8_t* block, size_t bytes) {
  if (block == nullptr) return;
  ThreadCache& tc = tls_cache;
  tc.Count(-1, -static_cast<int64_t>(bytes));
  if (bytes > kMaxPooledBytes) {
    std::free(block);
    return;
  }
  const size_t c = ClassOf(bytes);
  ASAN_POISON_MEMORY_REGION(block, ClassBytes(c));
  FreeList& cache = tc.lists[c];
  const bool active = tc.state == ThreadCache::kActive;
  if (active && cache.count < kCacheBlocks) {
    cache.Push(block);
    return;
  }
  RowBlockPool& pool = Pool();
  pool.Give(c, block, active ? &cache : nullptr);
}

/// True if a block of `have` bytes can hold `want` bytes in place: the two
/// are the same size, or in the same class. Then the block is addressable
/// for exactly `want` bytes.
bool FitsBlock(uint8_t* block, size_t have, size_t want) {
  if (have == want) return true;
  if (have == 0 || want == 0 || have > kMaxPooledBytes ||
      want > kMaxPooledBytes || ClassOf(have) != ClassOf(want))
    return false;
  ASAN_POISON_MEMORY_REGION(block, ClassBytes(ClassOf(have)));
  ASAN_UNPOISON_MEMORY_REGION(block, want);
  return true;
}

}  // namespace

int64_t Row::LiveBlocks() {
  RowBlockPool& pool = Pool();
  return pool.Live().first;
}

int64_t Row::LiveBytes() {
  RowBlockPool& pool = Pool();
  return pool.Live().second;
}

int64_t Row::PoolSlabBytes() {
  RowBlockPool& pool = Pool();
  return pool.SlabBytes();
}

CellRef::CellRef(Row* row, size_t i)
    : Cell(static_cast<const Row&>(*row)[i]), row_(row), i_(i) {}

CellRef& CellRef::operator=(const Cell& v) {
  row_->Set(i_, v);
  static_cast<Cell&>(*this) = static_cast<const Row&>(*row_)[i_];
  return *this;
}

Row::Row(const Row& other) {
  if (other.block_ == nullptr) return;
  const size_t bytes = other.BlockBytes();
  const uint8_t* from = other.Allocation();
  uint8_t* to = AllocateBlock(bytes);
  std::memcpy(to, from, bytes);
  block_ = to + (other.block_ - from);
}

Row& Row::operator=(const Row& other) {
  if (this == &other) return *this;
  const size_t bytes = other.BlockBytes();
  uint8_t* to = Allocation();
  if (!FitsBlock(to, BlockBytes(), bytes)) {
    FreeBlock(to, BlockBytes());
    to = bytes == 0 ? nullptr : AllocateBlock(bytes);
  }
  block_ = to;
  if (bytes != 0) {
    // Blocks of one size or class are both long rows or both not.
    const uint8_t* from = other.Allocation();
    std::memcpy(to, from, bytes);
    block_ = to + (other.block_ - from);
  }
  return *this;
}

Row& Row::operator=(Row&& other) noexcept {
  if (this != &other) {
    Release();
    block_ = other.block_;
    other.block_ = nullptr;
  }
  return *this;
}

Row::~Row() { Release(); }

void Row::Release() { FreeBlock(Allocation(), BlockBytes()); }

uint8_t* Row::Allocate(size_t n, size_t cell_bytes) {
  if (n > kMaxColumns || cell_bytes > std::numeric_limits<uint32_t>::max())
    std::abort();
  const bool long_row = cell_bytes > kMaxShortCellBytes;
  const size_t front = long_row ? kSizeWordBytes : 0;
  uint8_t* block = AllocateBlock(front + kHeaderBytes + cell_bytes) + front;
  const uint16_t count = static_cast<uint16_t>(n);
  const uint16_t short_bytes =
      long_row ? 0 : static_cast<uint16_t>(cell_bytes);
  std::memcpy(block, &count, 2);
  std::memcpy(block + 2, &short_bytes, 2);
  if (long_row) {
    const uint32_t bytes = static_cast<uint32_t>(cell_bytes);
    std::memcpy(block - kSizeWordBytes, &bytes, 4);
  }
  return block;
}

uint8_t* Row::Put(uint8_t* tag, uint8_t* p, const Stored& s) {
  const size_t width = Width(s.tag);
  const size_t len = PayloadBytes(s) - width;
  // Copy the string bytes first: `s` may view this very cell.
  if (len != 0) std::memmove(p + width, s.str, len);
  *tag = s.tag;
  std::memcpy(p, &s.payload, width);  // the low bytes, little-endian
  return p + width + len;
}

void Row::Set(size_t i, const Cell& v) {
  const Stored s = StoredOf(v);
  Iterator at = StoredCell(i);
  uint8_t* tag = const_cast<uint8_t*>(at.tag_);
  uint8_t* payload = const_cast<uint8_t*>(at.payload_);
  size_t old_bytes = PayloadBytes(*tag, payload);
  size_t new_bytes = PayloadBytes(s);
  if (new_bytes == old_bytes) {
    Put(tag, payload, s);
    return;
  }
  // Repack: every tag and the payloads before and after cell i move over
  // unchanged.
  const size_t n = size();
  uint8_t* const payloads = block_ + kHeaderBytes + n;
  size_t before = static_cast<size_t>(payload - payloads);
  size_t after = CellBytes() - n - before - old_bytes;
  uint8_t* block = Allocate(n, n + before + new_bytes + after);
  std::memcpy(block + kHeaderBytes, block_ + kHeaderBytes, n);
  uint8_t* p = block + kHeaderBytes + n;
  std::memcpy(p, payloads, before);
  // Before the old block goes: `v` may view it.
  p = Put(block + kHeaderBytes + i, p + before, s);
  std::memcpy(p, payload + old_bytes, after);
  Release();
  block_ = block;
}

Row Row::Extended(const Cell& cell) const {
  const size_t n = size();
  const size_t payload_bytes = n == 0 ? 0 : CellBytes() - n;
  const Stored s = StoredOf(cell);
  Row row;
  row.block_ = Allocate(n + 1, n + payload_bytes + 1 + PayloadBytes(s));
  uint8_t* tags = row.block_ + kHeaderBytes;
  if (n != 0) {
    std::memcpy(tags, block_ + kHeaderBytes, n);
    std::memcpy(tags + n + 1, block_ + kHeaderBytes + n, payload_bytes);
  }
  Put(tags + n, tags + n + 1 + payload_bytes, s);
  return row;
}

Row Row::With(std::initializer_list<OrdinalCell> cells) const {
  // A kept cell's stored bytes are copied as they are (as Project does);
  // only the replacements are encoded.
  auto replacement = [&](size_t i) -> const Cell* {
    for (const OrdinalCell& c : cells)
      if (c.ordinal == i) return &c.cell;
    return nullptr;
  };
  const size_t n = size();
  Row row;
  if (n == 0) return row;
  size_t cell_bytes = n, i = 0;
  for (Iterator c = begin(); c != end(); ++c, ++i) {
    const Cell* r = replacement(i);
    cell_bytes += r != nullptr ? PayloadBytes(StoredOf(*r))
                               : PayloadBytes(*c.tag_, c.payload_);
  }
  row.block_ = Allocate(n, cell_bytes);
  uint8_t* tags = row.block_ + kHeaderBytes;
  uint8_t* p = tags + n;
  i = 0;
  for (Iterator c = begin(); c != end(); ++c, ++i) {
    const Cell* r = replacement(i);
    p = r != nullptr ? Put(tags + i, p, StoredOf(*r))
                     : CopyCell(c, tags + i, p);
  }
  return row;
}

Row Row::Project(const std::vector<size_t>& ordinals) const {
  const size_t n = ordinals.size();
  Row row;
  if (n == 0) return row;
  Cursor cells(*this);
  size_t cell_bytes = n;
  for (size_t ord : ordinals) {
    const Iterator& c = cells.At(ord);
    cell_bytes += PayloadBytes(*c.tag_, c.payload_);
  }
  row.block_ = Allocate(n, cell_bytes);
  uint8_t* tags = row.block_ + kHeaderBytes;
  uint8_t* p = tags + n;
  for (size_t i = 0; i < n; i++)
    p = CopyCell(cells.At(ordinals[i]), tags + i, p);
  return row;
}

std::vector<Value> Row::Values() const {
  std::vector<Value> values;
  values.reserve(size());
  for (Cell c : *this) values.emplace_back(c);
  return values;
}

int CompareKeys(const KeyTuple& a, const KeyTuple& b) {
  const size_t na = a.size(), nb = b.size();
  Row::Iterator x = a.begin(), y = b.begin();
  for (size_t i = 0, n = std::min(na, nb); i < n; i++, ++x, ++y) {
    int r = x.Compare(y);
    if (r != 0) return r;
  }
  if (na < nb) return -1;
  return na > nb ? 1 : 0;
}

bool Row::operator==(const Row& other) const {
  if (size() != other.size()) return false;
  for (Iterator a = begin(), b = other.begin(); a != end(); ++a, ++b) {
    if ((*a).Compare(*b) != 0) return false;
  }
  return true;
}

namespace {
// A cell's state against its predecessor's, two bits per cell (EncodeRow).
constexpr uint8_t kSameCell = 0;     // the predecessor's bytes: nothing written
constexpr uint8_t kChangedCell = 1;  // its tag, another value: the change
constexpr uint8_t kWholeCell = 2;    // anything else: Cell::EncodeTo
constexpr uint8_t kDecimalCell = 3;  // a decimal over a DOUBLE: the varint of k
}  // namespace

uint8_t Row::PutPayload(const Iterator& c, std::vector<uint8_t>* dst) {
  const uint8_t tag = *c.tag_;
  constexpr uint8_t kDouble = static_cast<uint8_t>(DataType::kDouble);
  if (tag == kRawDoubleTag || (tag & (Cell::kNullTag | kTypeMask)) != kDouble)
    return (*c).EncodePayloadTo(dst);
  // A stored k (none for +0.0) is Cell::DecimalOf's k.
  PutVarint64(dst, LoadWidth(c.payload_, Width(tag)));
  return kDouble | Cell::kDecimalTag;
}

void Row::PutWhole(const Iterator& c, std::vector<uint8_t>* dst) {
  const size_t at = dst->size();
  dst->push_back(0);
  (*dst)[at] = PutPayload(c, dst);
}

uint8_t Row::PutChange(const Iterator& c, const Iterator& prev,
                       std::vector<uint8_t>* dst) {
  const uint8_t tag = *c.tag_;
  if ((tag & Cell::kNullTag) != 0 ||
      ((tag ^ *prev.tag_) & (Cell::kNullTag | kTypeMask)) != 0) {
    PutWhole(c, dst);
    return kWholeCell;
  }
  if (!IsInteger(tag)) {
    return (PutPayload(c, dst) & Cell::kDecimalTag) != 0 ? kDecimalCell
                                                         : kChangedCell;
  }
  // Computed mod 2^64, so every pair has a difference.
  const int64_t x = ZigZagDecode64(LoadWidth(c.payload_, Width(tag)));
  const int64_t y = ZigZagDecode64(LoadWidth(prev.payload_, Width(*prev.tag_)));
  PutVarint64(dst, ZigZagEncode64(static_cast<int64_t>(
                       static_cast<uint64_t>(x) - static_cast<uint64_t>(y))));
  return kChangedCell;
}

Result<Row::Stored> Row::GetCell(uint8_t state, const Iterator& prev,
                                 Decoder* dec) {
  constexpr uint8_t kDecimalDouble =
      static_cast<uint8_t>(DataType::kDouble) | Cell::kDecimalTag;
  uint8_t tag;  // the encoded tag byte
  if (state == kWholeCell) {
    auto byte = dec->GetBytes(1);
    if (!byte.ok()) return byte.status();
    tag = (*byte)[0];
  } else {
    if ((*prev.tag_ & Cell::kNullTag) != 0)
      return Status::Corruption("a changed cell's predecessor is NULL");
    tag = *prev.tag_ & kTypeMask;
    if (state == kDecimalCell) {
      if (static_cast<DataType>(tag) != DataType::kDouble)
        return Status::Corruption("a decimal cell's predecessor is no DOUBLE");
      tag = kDecimalDouble;
    }
  }
  if (tag == kDecimalDouble) {
    auto k = Cell::DecodeDecimal(dec);
    if (!k.ok()) return k.status();
    return StoredDecimal(*k);
  }
  auto c = Cell::DecodePayloadView(tag, dec);
  if (!c.ok()) return c.status();
  if (c->is_null()) return StoredOf(*c);
  if (c->type() == DataType::kDouble) {
    // Raw: DecodePayloadView found the value has no decimal form.
    return Stored{kRawDoubleTag, std::bit_cast<uint64_t>(c->double_),
                  nullptr};
  }
  if (state == kChangedCell && IsInteger(*prev.tag_)) {
    // The stored predecessor's zigzag value, plus the difference mod 2^64.
    c->int_ = static_cast<int64_t>(
        static_cast<uint64_t>(c->int_) +
        static_cast<uint64_t>(
            ZigZagDecode64(LoadWidth(prev.payload_, Width(*prev.tag_)))));
  }
  return StoredOf(*c);
}

void EncodeRow(const Row& row, const Row* prev, std::vector<uint8_t>* dst) {
  PutVarint32(dst, static_cast<uint32_t>(row.size()));
  EncodeRowCells(row, prev, dst);
}

void EncodeRowCells(const Row& row, const Row* prev,
                    std::vector<uint8_t>* dst) {
  const size_t n = row.size();
  if (prev == nullptr || prev->size() != n) {
    for (Row::Iterator c = row.begin(); c != row.end(); ++c)
      Row::PutWhole(c, dst);
    return;
  }
  const size_t states = dst->size();
  dst->resize(states + (n + 3) / 4, 0);
  size_t i = 0;
  for (Row::Iterator c = row.begin(), p = prev->begin(); c != row.end();
       ++c, ++p, i++) {
    if (c.SameBytes(p)) continue;
    const uint8_t state = Row::PutChange(c, p, dst);
    (*dst)[states + i / 4] |= static_cast<uint8_t>(state << (2 * (i % 4)));
  }
}

Result<Row> DecodeRow(Decoder* dec, const Row* prev) {
  auto count = dec->GetVarint32();
  if (!count.ok()) return count.status();
  return DecodeRowCells(dec, *count, prev);
}

Result<Row> DecodeRowCells(Decoder* dec, size_t n, const Row* prev) {
  if (n > Row::kMaxColumns)
    return Status::Corruption("encoded row is too wide for a row block");
  const uint8_t* states = nullptr;  // the cell states, if the row has them
  if (prev != nullptr && prev->size() == n && n != 0) {
    auto bytes = dec->GetBytes((n + 3) / 4);
    if (!bytes.ok()) return bytes.status();
    states = bytes->data();
    if (n % 4 != 0 && (states[n / 4] >> (2 * (n % 4))) != 0)
      return Status::Corruption("unused bits set in a row's cell states");
  }
  auto state = [states](size_t i) -> uint8_t {
    if (states == nullptr) return kWholeCell;
    return (states[i / 4] >> (2 * (i % 4))) & 3;
  };
  // Pass 1 validates every cell and sizes the block on a copy of the
  // decoder; pass 2 re-reads the same bytes into the block.
  Decoder sizing = *dec;
  size_t cell_bytes = 0;
  Row::Iterator from = states != nullptr ? prev->begin() : Row().begin();
  for (size_t i = 0; i < n; i++) {
    const uint8_t s = state(i);
    if (s == kSameCell) {
      cell_bytes += Row::StoredBytes(from);
    } else {
      auto c = Row::GetCell(s, from, &sizing);
      if (!c.ok()) return c.status();
      cell_bytes += 1 + Row::PayloadBytes(*c);
    }
    if (states != nullptr) ++from;
  }
  if (cell_bytes > std::numeric_limits<uint32_t>::max())
    return Status::Corruption("encoded row is too large for a row block");
  Row row;
  if (n == 0) return row;
  row.block_ = Row::Allocate(n, cell_bytes);
  uint8_t* tags = row.block_ + Row::kHeaderBytes;
  uint8_t* p = tags + n;
  from = states != nullptr ? prev->begin() : Row().begin();
  for (size_t i = 0; i < n; i++) {
    const uint8_t s = state(i);
    p = s == kSameCell ? Row::CopyCell(from, tags + i, p)
                       : Row::Put(tags + i, p, *Row::GetCell(s, from, dec));
    if (states != nullptr) ++from;
  }
  return row;
}

}  // namespace sqlledger

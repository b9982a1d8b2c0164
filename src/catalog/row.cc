#include "catalog/row.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace sqlledger {

namespace {
uint8_t* AllocateBytes(size_t n) {
  void* p = std::malloc(n);
  if (p == nullptr) std::abort();
  return static_cast<uint8_t*>(p);
}
}  // namespace

CellRef::CellRef(Row* row, size_t i)
    : Cell(static_cast<const Row&>(*row)[i]), row_(row), i_(i) {}

CellRef& CellRef::operator=(const Cell& v) {
  row_->Set(i_, v);
  static_cast<Cell&>(*this) = static_cast<const Row&>(*row_)[i_];
  return *this;
}

Row::Row(const Row& other) {
  if (other.block_ == nullptr) return;
  size_t bytes = other.BlockBytes();
  block_ = AllocateBytes(bytes);
  std::memcpy(block_, other.block_, bytes);
}

Row& Row::operator=(const Row& other) {
  if (this == &other) return *this;
  size_t bytes = other.BlockBytes();
  if (bytes != BlockBytes()) {
    std::free(block_);
    block_ = bytes == 0 ? nullptr : AllocateBytes(bytes);
  }
  if (bytes != 0) std::memcpy(block_, other.block_, bytes);
  return *this;
}

Row& Row::operator=(Row&& other) noexcept {
  if (this != &other) {
    std::free(block_);
    block_ = other.block_;
    other.block_ = nullptr;
  }
  return *this;
}

Row::~Row() { std::free(block_); }

uint8_t* Row::Allocate(size_t n, size_t cell_bytes) {
  if (n > kMaxColumns || cell_bytes > std::numeric_limits<uint32_t>::max())
    std::abort();
  uint8_t* block = AllocateBytes(kHeaderBytes + cell_bytes);
  uint16_t count = static_cast<uint16_t>(n);
  uint32_t bytes = static_cast<uint32_t>(cell_bytes);
  std::memcpy(block, &count, 2);
  std::memset(block + 2, 0, 2);
  std::memcpy(block + 4, &bytes, 4);
  return block;
}

uint8_t* Row::Put(uint8_t* tag, uint8_t* p, const Cell& c) {
  uint64_t payload;
  uint8_t code = WidthCode(c, &payload);
  size_t width = kWidthBytes[code];
  // Copy the string bytes first: `c` may view this very cell.
  if (c.len_ != 0) std::memmove(p + width, c.str_, c.len_);
  *tag = static_cast<uint8_t>(c.tag() | (code << kWidthShift));
  std::memcpy(p, &payload, width);  // the low bytes, little-endian
  return p + width + c.len_;
}

void Row::Set(size_t i, const Cell& v) {
  Iterator at = StoredCell(i);
  uint8_t* tag = const_cast<uint8_t*>(at.tag_);
  uint8_t* payload = const_cast<uint8_t*>(at.payload_);
  size_t old_bytes = PayloadBytes(*tag, payload);
  size_t new_bytes = EncodedBytes(v) - 1;
  if (new_bytes == old_bytes) {
    Put(tag, payload, v);
    return;
  }
  // Repack: every tag and the payloads before and after cell i move over
  // unchanged.
  const size_t n = size();
  uint8_t* const payloads = block_ + kHeaderBytes + n;
  size_t before = static_cast<size_t>(payload - payloads);
  size_t after = Load32(block_ + 4) - n - before - old_bytes;
  uint8_t* block = Allocate(n, n + before + new_bytes + after);
  std::memcpy(block + kHeaderBytes, block_ + kHeaderBytes, n);
  uint8_t* p = block + kHeaderBytes + n;
  std::memcpy(p, payloads, before);
  // Before the old block goes: `v` may view it.
  p = Put(block + kHeaderBytes + i, p + before, v);
  std::memcpy(p, payload + old_bytes, after);
  std::free(block_);
  block_ = block;
}

Row Row::Extended(const Cell& cell) const {
  const size_t n = size();
  const size_t payload_bytes = n == 0 ? 0 : Load32(block_ + 4) - n;
  Row row;
  row.block_ = Allocate(n + 1, n + payload_bytes + EncodedBytes(cell));
  uint8_t* tags = row.block_ + kHeaderBytes;
  if (n != 0) {
    std::memcpy(tags, block_ + kHeaderBytes, n);
    std::memcpy(tags + n + 1, block_ + kHeaderBytes + n, payload_bytes);
  }
  Put(tags + n, tags + n + 1 + payload_bytes, cell);
  return row;
}

Row Row::With(std::initializer_list<OrdinalCell> cells) const {
  Cursor cursor(*this);
  return Pack(size(), [&](size_t i) {
    for (const OrdinalCell& c : cells) {
      if (c.ordinal == i) return c.cell;
    }
    return cursor[i];
  });
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

void EncodeRow(const Row& row, const Row* prev, std::vector<uint8_t>* dst) {
  const size_t n = row.size();
  PutVarint32(dst, static_cast<uint32_t>(n));
  if (prev == nullptr || prev->size() != n) {
    for (Cell c : row) c.EncodeTo(dst);
    return;
  }
  const size_t bitmap = dst->size();
  dst->resize(bitmap + (n + 7) / 8, 0);
  size_t i = 0;
  for (Row::Iterator c = row.begin(), p = prev->begin(); c != row.end();
       ++c, ++p, i++) {
    if (c.SameBytes(p)) {
      (*dst)[bitmap + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    } else {
      (*c).EncodeTo(dst);
    }
  }
}

Result<Row> DecodeRow(Decoder* dec, const Row* prev) {
  auto count = dec->GetVarint32();
  if (!count.ok()) return count.status();
  const size_t n = *count;
  if (n > Row::kMaxColumns)
    return Status::Corruption("encoded row is too wide for a row block");
  const uint8_t* repeats = nullptr;  // the bitmap, if the row has one
  if (prev != nullptr && prev->size() == n && n != 0) {
    auto bitmap = dec->GetBytes((n + 7) / 8);
    if (!bitmap.ok()) return bitmap.status();
    repeats = bitmap->data();
    if (n % 8 != 0 && (repeats[n / 8] >> (n % 8)) != 0)
      return Status::Corruption("unused bits set in a row's repeat bitmap");
  }
  auto repeated = [repeats](size_t i) {
    return repeats != nullptr && ((repeats[i / 8] >> (i % 8)) & 1) != 0;
  };
  // Pass 1 validates every cell and sizes the block on a copy of the
  // decoder; pass 2 re-reads the same bytes into the block.
  Decoder sizing = *dec;
  size_t cell_bytes = 0;
  Row::Iterator from = repeats != nullptr ? prev->begin() : Row().begin();
  for (size_t i = 0; i < n; i++) {
    if (repeated(i)) {
      cell_bytes += Row::StoredBytes(from);
    } else {
      auto c = Cell::DecodeView(&sizing);
      if (!c.ok()) return c.status();
      cell_bytes += Row::EncodedBytes(*c);
    }
    if (repeats != nullptr) ++from;
  }
  if (cell_bytes > std::numeric_limits<uint32_t>::max())
    return Status::Corruption("encoded row is too large for a row block");
  Row row;
  if (n == 0) return row;
  row.block_ = Row::Allocate(n, cell_bytes);
  uint8_t* tags = row.block_ + Row::kHeaderBytes;
  uint8_t* p = tags + n;
  from = repeats != nullptr ? prev->begin() : Row().begin();
  for (size_t i = 0; i < n; i++) {
    p = repeated(i) ? Row::CopyCell(from, tags + i, p)
                    : Row::Put(tags + i, p, *Cell::DecodeView(dec));
    if (repeats != nullptr) ++from;
  }
  return row;
}

}  // namespace sqlledger

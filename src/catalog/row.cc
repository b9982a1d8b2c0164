#include "catalog/row.h"

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

uint8_t* Row::Allocate(size_t n, size_t var_bytes) {
  if (n > kMaxColumns || var_bytes > std::numeric_limits<uint32_t>::max())
    std::abort();
  size_t bytes = BlockBytes(n, var_bytes);
  uint8_t* block = AllocateBytes(bytes);
  uint16_t count = static_cast<uint16_t>(n);
  uint32_t var = static_cast<uint32_t>(var_bytes);
  std::memcpy(block, &count, 2);
  std::memset(block + 2, 0, 2);
  std::memcpy(block + 4, &var, 4);
  // Zero the tag padding.
  std::memset(block + kHeaderBytes + n, 0, TagBytes(n) - n);
  return block;
}

void Row::Put(uint8_t* block, size_t i, const Cell& c, uint32_t* var_pos) {
  size_t n = Load16(block);
  block[kHeaderBytes + i] = c.tag();
  uint8_t* cell = block + kHeaderBytes + TagBytes(n) + 8 * i;
  if (c.len_ != 0) {
    std::memcpy(block + kHeaderBytes + TagBytes(n) + 8 * n + *var_pos, c.str_,
                c.len_);
    std::memcpy(cell, var_pos, 4);
    std::memcpy(cell + 4, &c.len_, 4);
    *var_pos += c.len_;
  } else {
    // The payload of a NULL or an empty string is zero.
    int64_t payload = c.null_ ? 0 : c.int_;
    std::memcpy(cell, &payload, 8);
  }
}

void Row::Set(size_t i, const Cell& v) {
  Cell old = static_cast<const Row&>(*this)[i];
  if (old.len_ == v.len_) {
    // Same string-area size: rewrite in place. A string keeps its cell and
    // takes the old bytes' place (memmove: `v` may view this very row).
    if (v.len_ == 0) {
      uint32_t var_pos = 0;
      Put(block_, i, v, &var_pos);
    } else {
      block_[kHeaderBytes + i] = static_cast<uint8_t>(v.type_);
      std::memmove(const_cast<char*>(old.str_), v.str_, v.len_);
    }
    return;
  }
  const Row& self = *this;
  *this = Pack(size(), [&](size_t j) { return j == i ? v : self[j]; });
}

std::vector<Value> Row::Values() const {
  std::vector<Value> values;
  values.reserve(size());
  for (Cell c : *this) values.emplace_back(c);
  return values;
}

bool Row::operator==(const Row& other) const {
  size_t n = size();
  if (n != other.size()) return false;
  for (size_t i = 0; i < n; i++) {
    if ((*this)[i].Compare(other[i]) != 0) return false;
  }
  return true;
}

void EncodeRow(const Row& row, std::vector<uint8_t>* dst) {
  PutVarint32(dst, static_cast<uint32_t>(row.size()));
  for (Cell c : row) c.EncodeTo(dst);
}

void EncodeRow(const KeyTuple& values, std::vector<uint8_t>* dst) {
  PutVarint32(dst, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) v.EncodeTo(dst);
}

Result<KeyTuple> DecodeValues(Decoder* dec) {
  auto count = dec->GetVarint32();
  if (!count.ok()) return count.status();
  // Every encoded cell takes at least its tag byte.
  if (*count > dec->remaining())
    return Status::Corruption("encoded tuple count exceeds its bytes");
  KeyTuple values;
  values.reserve(*count);
  for (uint32_t i = 0; i < *count; i++) {
    auto v = Value::DecodeFrom(dec);
    if (!v.ok()) return v.status();
    values.push_back(std::move(*v));
  }
  return values;
}

Result<Row> DecodeRow(Decoder* dec) {
  auto count = dec->GetVarint32();
  if (!count.ok()) return count.status();
  const size_t n = *count;
  if (n > Row::kMaxColumns)
    return Status::Corruption("encoded row is too wide for a row block");
  // Pass 1 validates every cell and sizes the string area on a copy of the
  // decoder; pass 2 re-reads the same bytes into the block.
  Decoder sizing = *dec;
  size_t var_bytes = 0;
  for (size_t i = 0; i < n; i++) {
    auto c = Cell::DecodeView(&sizing);
    if (!c.ok()) return c.status();
    var_bytes += c->string_value().size();
  }
  if (var_bytes > std::numeric_limits<uint32_t>::max())
    return Status::Corruption("encoded row is too large for a row block");
  Row row;
  if (n == 0) return row;
  row.block_ = Row::Allocate(n, var_bytes);
  uint32_t var_pos = 0;
  for (size_t i = 0; i < n; i++)
    Row::Put(row.block_, i, *Cell::DecodeView(dec), &var_pos);
  return row;
}

size_t RowPayloadBytes(const Row& row) {
  size_t total = 0;
  for (Cell c : row) {
    if (c.is_null()) continue;
    size_t w = DataTypeFixedWidth(c.type());
    total += w > 0 ? w : c.string_value().size();
  }
  return total;
}

}  // namespace sqlledger

// Rows: the engine's in-memory row versions, plus the encode/decode helpers
// for WAL records and checkpoint files. The wire format here is the
// engine's internal one — distinct from the canonical ledger hashing format
// in ledger/row_serializer.h.

#ifndef SQLLEDGER_CATALOG_ROW_H_
#define SQLLEDGER_CATALOG_ROW_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "catalog/value.h"
#include "util/coding.h"

namespace sqlledger {

class Row;

/// A writable reference to one cell of a Row: a Cell view that also takes
/// assignment. Assigning invalidates every other view of the row.
class CellRef : public Cell {
 public:
  CellRef(const CellRef&) = default;
  /// Writes `v` into the row: in place when the cell keeps its
  /// variable-length byte count, else by repacking the row.
  CellRef& operator=(const Cell& v);
  CellRef& operator=(const CellRef& other) {
    return *this = static_cast<const Cell&>(other);
  }

 private:
  friend class Row;
  CellRef(Row* row, size_t i);

  Row* row_;
  size_t i_;
};

/// One row version, positionally matching its table's schema, packed into
/// one exactly-sized heap block (an empty row owns none):
///
///   [u16 ncols][u16 0][u32 var_bytes]
///   [ncols tag bytes, zero-padded to a multiple of 8]
///   [ncols 8-byte cells][var_bytes bytes of string data]
///
/// A tag is the DataType id, plus 0x80 for NULL. A fixed-width cell holds
/// the int64 payload (BOOL/SMALLINT/INT/BIGINT/TIMESTAMP) or the DOUBLE's
/// bit pattern; a VARCHAR/VARBINARY cell is (u32 offset, u32 length) into
/// the string area; a NULL or empty-string cell is zero. The block is
/// self-describing, so column access is O(1) without a schema. The layout
/// is in-memory only: EncodeRow writes the WAL/checkpoint bytes.
class Row {
 public:
  /// The header's u16 column count bounds a row's width.
  static constexpr size_t kMaxColumns = 0xFFFF;

  /// The empty row.
  Row() = default;
  Row(std::initializer_list<Value> values)
      : Row(Pack(values.size(), [&values](size_t i) -> const Cell& {
          return values.begin()[i];
        })) {}
  /// Packs `values` (implicit, so value vectors read as rows).
  Row(const std::vector<Value>& values)  // NOLINT(runtime/explicit)
      : Row(Pack(values.size(),
                 [&values](size_t i) -> const Cell& { return values[i]; })) {}
  Row(const Row& other);
  Row(Row&& other) noexcept : block_(other.block_) { other.block_ = nullptr; }
  Row& operator=(const Row& other);
  Row& operator=(Row&& other) noexcept;
  ~Row();

  /// Packs the cells `cell_at(0)`, ..., `cell_at(n - 1)`, each a Cell or a
  /// Value (read twice: once to size the block, once to fill it). Aborts
  /// past kMaxColumns cells or 4 GiB of string bytes.
  template <typename CellAt>
  static Row Pack(size_t n, CellAt&& cell_at);

  size_t size() const { return block_ == nullptr ? 0 : Load16(block_); }
  bool empty() const { return size() == 0; }

  /// A view of cell `i`, valid while this row is alive and unmodified.
  Cell operator[](size_t i) const;
  CellRef operator[](size_t i) { return CellRef(this, i); }

  /// Iteration over the cells, as views (range-for).
  class Iterator {
   public:
    Cell operator*() const { return (*row_)[i_]; }
    Iterator& operator++() {
      i_++;
      return *this;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    friend class Row;
    Iterator(const Row* row, size_t i) : row_(row), i_(i) {}
    const Row* row_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  /// Owning copies of every cell.
  std::vector<Value> Values() const;
  /// A new row of the cells at `ordinals`, in that order.
  Row Project(const std::vector<size_t>& ordinals) const {
    return Pack(ordinals.size(),
                [&](size_t i) { return (*this)[ordinals[i]]; });
  }
  /// A new row of this row's cells followed by `cell` (ADD COLUMN).
  Row Extended(const Cell& cell) const {
    size_t n = size();
    return Pack(n + 1, [&](size_t i) { return i < n ? (*this)[i] : cell; });
  }

  /// Cell-wise Compare() equality (so NULLs of different types are equal,
  /// like Value's ==).
  bool operator==(const Row& other) const;

  /// Bytes of the row's heap block; 0 for the empty row.
  size_t BlockBytes() const {
    return block_ == nullptr ? 0 : BlockBytes(size(), Load32(block_ + 4));
  }

 private:
  friend class CellRef;

  friend Result<Row> DecodeRow(Decoder* dec);

  static constexpr size_t kHeaderBytes = 8;

  static uint16_t Load16(const uint8_t* p) {
    uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static uint32_t Load32(const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static size_t TagBytes(size_t n) { return (n + 7) & ~size_t{7}; }
  static size_t BlockBytes(size_t n, size_t var_bytes) {
    return kHeaderBytes + TagBytes(n) + 8 * n + var_bytes;
  }
  /// Allocates a block for `n` cells and `var_bytes` string bytes and
  /// writes its header.
  static uint8_t* Allocate(size_t n, size_t var_bytes);
  /// Writes `c` as cell `i` of `block`, its string bytes at `*var_pos`.
  static void Put(uint8_t* block, size_t i, const Cell& c, uint32_t* var_pos);
  /// Replaces cell `i` with `v` (CellRef's assignment).
  void Set(size_t i, const Cell& v);

  uint8_t* block_ = nullptr;
};

static_assert(sizeof(Row) == 8, "a Row is one pointer to its block");

template <typename CellAt>
Row Row::Pack(size_t n, CellAt&& cell_at) {
  Row row;
  if (n == 0) return row;
  size_t var_bytes = 0;
  for (size_t i = 0; i < n; i++) {
    const Cell& c = cell_at(i);
    var_bytes += c.len_;
  }
  row.block_ = Allocate(n, var_bytes);
  uint32_t var_pos = 0;
  for (size_t i = 0; i < n; i++) Put(row.block_, i, cell_at(i), &var_pos);
  return row;
}

inline Cell Row::operator[](size_t i) const {
  size_t n = size();
  uint8_t tag = block_[kHeaderBytes + i];
  const uint8_t* cell = block_ + kHeaderBytes + TagBytes(n) + 8 * i;
  Cell c;
  c.type_ = static_cast<DataType>(tag & ~Cell::kNullTag);
  c.null_ = (tag & Cell::kNullTag) != 0;
  if (c.null_) return c;
  if (c.type_ == DataType::kVarchar || c.type_ == DataType::kVarbinary) {
    uint32_t len = Load32(cell + 4);
    if (len != 0) {
      c.len_ = len;
      c.str_ = reinterpret_cast<const char*>(block_ + kHeaderBytes +
                                             TagBytes(n) + 8 * n +
                                             Load32(cell));
    }
  } else {
    std::memcpy(&c.int_, cell, 8);
  }
  return c;
}

/// Appends `row` to `dst`: varint count followed by encoded cells
/// (Cell::EncodeTo).
void EncodeRow(const Row& row, std::vector<uint8_t>* dst);
/// The same encoding of a value tuple (a WAL delete's key, an index entry).
void EncodeRow(const KeyTuple& values, std::vector<uint8_t>* dst);

/// Decodes one encoded row from `dec` as a value tuple. Corruption on a
/// count larger than the bytes left, before anything is allocated.
Result<KeyTuple> DecodeValues(Decoder* dec);
/// Decodes one encoded row straight into a packed block: one pass sizes
/// it, a second fills it. Corruption past kMaxColumns cells or 4 GiB of
/// string bytes, checked before anything is allocated.
Result<Row> DecodeRow(Decoder* dec);

/// Total payload bytes of a row's variable- and fixed-width values (used by
/// benchmarks to size rows, e.g. the paper's 260-byte rows in §4.1.2).
size_t RowPayloadBytes(const Row& row);

}  // namespace sqlledger

#endif  // SQLLEDGER_CATALOG_ROW_H_

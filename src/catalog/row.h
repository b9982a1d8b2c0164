// Rows: the engine's in-memory row versions and keys, plus the
// encode/decode helpers for WAL records and checkpoint files. The wire
// format here is the engine's internal one — distinct from the canonical
// ledger hashing format in ledger/row_serializer.h.

#ifndef SQLLEDGER_CATALOG_ROW_H_
#define SQLLEDGER_CATALOG_ROW_H_

#include <bit>
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
  /// Writes `v` into the row: in place when its cell takes the stored
  /// cell's bytes, else by repacking the row (a new block and a copy).
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

/// A cell for ordinal `ordinal` of a row being built: a hidden column's
/// stamp for Schema::PadRow, or a replacement for Row::With.
struct OrdinalCell {
  size_t ordinal;
  Cell cell;
};

/// One row version, positionally matching its table's schema, packed into
/// one exactly-sized block (an empty row owns none), from the row block
/// pool (row.cc) up to 512 bytes and from malloc above:
///
///   [u16 ncols][u16 cell_bytes][ncols tags][ncols payloads]
///
/// Cells of 64 KiB or more, whose blocks are malloc's, write 0 as the
/// header's cell_bytes and keep their byte count in a u32 in front of the
/// header, so the tags still start 4 bytes into the block:
///
///   [u32 cell_bytes] [u16 ncols][u16 0][ncols tags][ncols payloads]
///
/// A cell is a tag byte and a payload; the tags come first, unpadded, then
/// the payloads in column order. A tag holds the DataType id in bits 0-3,
/// a width code in bits 4-6 and 0x80 for NULL; the code names a payload
/// width of 0, 1, 2, 4 or 8 bytes (codes 0-4). An integer
/// (BOOL/SMALLINT/INT/BIGINT/TIMESTAMP) is its zigzag value in the fewest
/// of those bytes, little-endian. A DOUBLE that is exactly k/100
/// (Cell::DecimalOf) with zigzag(k) in 4 bytes or fewer is zigzag(k) in
/// the fewest of 1, 2 or 4 bytes; any other DOUBLE is its 8-byte bit
/// pattern. A VARCHAR/VARBINARY is its length in 1, 2 or 4 bytes, then the
/// bytes. A NULL, a zero (or +0.0) and an empty string take no payload.
/// Each value has one cell. The block is self-describing: cell `i`'s
/// payload is found by walking the tags of cells 0..i-1 (and a string's
/// length), so full-row loops use an Iterator or a Cursor. The layout is
/// in-memory only: EncodeRow writes the WAL/checkpoint bytes.
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
  /// Value, asked for in ascending order twice: once to size the block,
  /// once to fill it. Aborts past kMaxColumns cells or 4 GiB of cell bytes.
  template <typename CellAt>
  static Row Pack(size_t n, CellAt&& cell_at);

  size_t size() const { return block_ == nullptr ? 0 : Load16(block_); }
  bool empty() const { return size() == 0; }

  /// A view of cell `i`, valid while this row is alive and unmodified.
  /// Walks cells 0..i: a loop over many cells uses an Iterator or Cursor.
  Cell operator[](size_t i) const;
  CellRef operator[](size_t i) { return CellRef(this, i); }

  /// Iteration over the cells, as views (range-for). Each step skips one
  /// cell, so a full pass is linear in the row's bytes.
  class Iterator {
   public:
    Cell operator*() const { return Decode(*tag_, payload_); }
    /// Compares the cell here with the cell at `other` as Cell::Compare
    /// does. Two non-NULL integers, the usual key cells, compare by their
    /// payloads without building Cells.
    int Compare(const Iterator& other) const {
      const uint8_t a = *tag_, b = *other.tag_;
      if (IsInteger(a) && IsInteger(b)) {
        const int64_t x = ZigZagDecode64(LoadWidth(payload_, Width(a)));
        const int64_t y = ZigZagDecode64(LoadWidth(other.payload_, Width(b)));
        return (x > y) - (x < y);
      }
      return (**this).Compare(*other);
    }
    Iterator& operator++() {
      payload_ += PayloadBytes(*tag_, payload_);
      tag_++;
      return *this;
    }
    bool operator==(const Iterator& other) const { return tag_ == other.tag_; }
    /// True if the cells here and at `other` are stored as the same bytes:
    /// the same type, NULL flag and value bits (so +0.0 and -0.0 differ,
    /// and a NaN matches only its own bit pattern).
    bool SameBytes(const Iterator& other) const {
      if (*tag_ != *other.tag_) return false;
      const size_t n = PayloadBytes(*tag_, payload_);
      return n == PayloadBytes(*other.tag_, other.payload_) &&
             std::memcmp(payload_, other.payload_, n) == 0;
    }

   private:
    friend class Row;
    Iterator(const uint8_t* tag, const uint8_t* payload)
        : tag_(tag), payload_(payload) {}
    const uint8_t* tag_;
    const uint8_t* payload_;
  };
  Iterator begin() const {
    if (block_ == nullptr) return Iterator(nullptr, nullptr);
    return Iterator(block_ + kHeaderBytes, block_ + kHeaderBytes + size());
  }
  Iterator end() const {
    if (block_ == nullptr) return Iterator(nullptr, nullptr);
    return Iterator(block_ + kHeaderBytes + size(), nullptr);
  }

  /// Reads cells by ordinal, walking on from the cell read last (and from
  /// cell 0 for an earlier one), so ascending ordinals cost one pass.
  /// Valid while the row is alive and unmodified.
  class Cursor {
   public:
    explicit Cursor(const Row& row) : row_(&row), it_(row.begin()) {}
    Cell operator[](size_t i) { return *At(i); }
    /// The position of cell `i`, valid until the next read.
    const Iterator& At(size_t i) {
      const uint8_t* tag = row_->block_ + kHeaderBytes + i;
      if (tag < it_.tag_) it_ = row_->begin();
      while (it_.tag_ < tag) ++it_;
      return it_;
    }

   private:
    const Row* row_;
    Iterator it_;
  };

  /// Owning copies of every cell.
  std::vector<Value> Values() const;
  /// A new row of the cells at `ordinals`, in that order. A stored cell's
  /// bytes do not depend on its position, so each is copied as it is.
  Row Project(const std::vector<size_t>& ordinals) const;
  /// A new row of this row's cells followed by `cell` (ADD COLUMN).
  Row Extended(const Cell& cell) const;
  /// A new row of this row's cells with each of `cells` in place of the
  /// cell at its ordinal: one pack for any number of replacements.
  Row With(std::initializer_list<OrdinalCell> cells) const;

  /// Cell-wise Compare() equality (so NULLs of different types are equal,
  /// like Value's ==).
  bool operator==(const Row& other) const;

  /// Bytes of the row's block, with a long row's size word; 0 for the
  /// empty row.
  size_t BlockBytes() const {
    if (block_ == nullptr) return 0;
    const size_t cells = CellBytes();
    return (cells > kMaxShortCellBytes ? kSizeWordBytes : 0) + kHeaderBytes +
           cells;
  }

  /// Row blocks allocated and not yet freed, by every thread: the leak
  /// check for rows, since LeakSanitizer cannot see a leaked pooled block.
  /// Exact while no other thread packs or frees rows.
  static int64_t LiveBlocks();
  /// Their bytes (BlockBytes), exact under the same condition.
  static int64_t LiveBytes();
  /// Bytes of the slabs the row block pool has carved its blocks from,
  /// which it never returns: pooled live blocks rounded up to their
  /// classes, plus free blocks. Blocks over 512 bytes are malloc's.
  static int64_t PoolSlabBytes();

 private:
  friend class CellRef;

  friend void EncodeRowCells(const Row& row, const Row* prev,
                             std::vector<uint8_t>* dst);
  friend Result<Row> DecodeRowCells(Decoder* dec, size_t n, const Row* prev);

  static constexpr size_t kHeaderBytes = 4;
  /// The largest cell_bytes the header holds; a longer row keeps a
  /// kSizeWordBytes count in front of its header.
  static constexpr size_t kMaxShortCellBytes = 0xFFFF;
  static constexpr size_t kSizeWordBytes = 4;
  static constexpr uint8_t kWidthShift = 4;
  static constexpr uint8_t kTypeMask = 0x0F;
  /// Payload bytes of each width code.
  static constexpr uint8_t kWidthBytes[8] = {0, 1, 2, 4, 8, 0, 0, 0};
  /// Bit `t` is set for each integer DataType id `t`: BOOL, SMALLINT, INT,
  /// BIGINT and TIMESTAMP.
  static constexpr uint16_t kIntegerTypes = 0x11E;

  /// The payload width of a cell with tag `tag`, before a string's bytes.
  static size_t Width(uint8_t tag) {
    return kWidthBytes[(tag >> kWidthShift) & 7];
  }
  /// True if tag `tag` is a non-NULL integer's.
  static bool IsInteger(uint8_t tag) {
    return (tag & Cell::kNullTag) == 0 &&
           ((kIntegerTypes >> (tag & kTypeMask)) & 1) != 0;
  }

  /// Bytes of a non-empty row's cells, its tags and payloads.
  size_t CellBytes() const {
    const uint16_t bytes = Load16(block_ + 2);
    return bytes != 0 ? bytes : Load32(block_ - kSizeWordBytes);
  }
  /// The start of the allocation that holds the block: a long row's size
  /// word, else the header (null for the empty row).
  uint8_t* Allocation() const {
    return block_ != nullptr && Load16(block_ + 2) == 0
               ? block_ - kSizeWordBytes
               : block_;
  }

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
  /// The `width`-byte little-endian unsigned at `p`.
  static uint64_t LoadWidth(const uint8_t* p, size_t width) {
    switch (width) {
      case 1:
        return p[0];
      case 2:
        return Load16(p);
      case 4:
        return Load32(p);
      case 8: {
        uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
      }
      default:
        return 0;
    }
  }
  static bool IsString(DataType t) {
    return t == DataType::kVarchar || t == DataType::kVarbinary;
  }
  /// A cell as a block stores it: its tag, with the width code; the
  /// unsigned number its payload holds in that width's low bytes (a zigzag
  /// integer, a DOUBLE's zigzag k or bits, a string's length); and a
  /// string's bytes, which follow the payload.
  struct Stored {
    uint8_t tag;
    uint64_t payload;
    const char* str;
  };
  /// The tag of a DOUBLE stored as its 8-byte bit pattern.
  static constexpr uint8_t kRawDoubleTag =
      static_cast<uint8_t>(DataType::kDouble) | (4 << kWidthShift);
  /// The tag of a non-NULL cell of type `t` whose payload holds `u` in the
  /// fewest bytes.
  static uint8_t TagOf(DataType t, uint64_t u) {
    uint8_t code = 4;
    if (u == 0) {
      code = 0;
    } else if (u <= 0xFF) {
      code = 1;
    } else if (u <= 0xFFFF) {
      code = 2;
    } else if (u <= 0xFFFFFFFF) {
      code = 3;
    }
    return static_cast<uint8_t>(static_cast<uint8_t>(t) |
                                (code << kWidthShift));
  }
  /// The stored form of the DOUBLE k / 100.0, for DecimalOf's `k`:
  /// zigzag(k) when it takes 4 bytes or fewer, else the double's bits.
  static Stored StoredDecimal(int64_t k) {
    const uint64_t z = ZigZagEncode64(k);
    if (z <= 0xFFFFFFFF) return {TagOf(DataType::kDouble, z), z, nullptr};
    const double d = static_cast<double>(k) / 100.0;
    return {kRawDoubleTag, std::bit_cast<uint64_t>(d), nullptr};
  }
  /// The stored form of `c`, which keeps viewing `c`'s string bytes.
  static Stored StoredOf(const Cell& c) {
    if (c.null_) return {c.tag(), 0, nullptr};
    if (IsString(c.type_)) return {TagOf(c.type_, c.len_), c.len_, c.str_};
    if (c.type_ != DataType::kDouble) {
      const uint64_t z = ZigZagEncode64(c.int_);
      return {TagOf(c.type_, z), z, nullptr};
    }
    int64_t k;
    if (Cell::DecimalOf(c.double_, &k)) return StoredDecimal(k);
    return {kRawDoubleTag, std::bit_cast<uint64_t>(c.double_), nullptr};
  }
  /// Bytes of the payload of `s`, with a string's bytes.
  static size_t PayloadBytes(const Stored& s) {
    const size_t width = Width(s.tag);
    return IsString(static_cast<DataType>(s.tag & kTypeMask)) ? width + s.payload
                                                              : width;
  }
  /// Bytes of the stored payload at `p` with tag `tag`. Only a string's
  /// size reads the payload (its length), so a walk over other cells
  /// reads tags alone.
  static size_t PayloadBytes(uint8_t tag, const uint8_t* p) {
    size_t width = Width(tag);
    if (IsString(static_cast<DataType>(tag & kTypeMask)))
      width += LoadWidth(p, width);
    return width;
  }
  /// The stored cell with tag `tag` and payload at `p`, as a view.
  static Cell Decode(uint8_t tag, const uint8_t* p);
  /// Writes `s` as the cell with tag at `tag` and payload at `p` (string
  /// bytes by memmove, so `s` may view the destination) and returns the end
  /// of the payload.
  static uint8_t* Put(uint8_t* tag, uint8_t* p, const Stored& s);
  /// Bytes the stored cell at `c` takes: its tag and payload.
  static size_t StoredBytes(const Iterator& c) {
    return 1 + PayloadBytes(*c.tag_, c.payload_);
  }
  /// Copies the stored cell at `c` to the tag at `tag` and the payload at
  /// `p` (a cell's bytes do not depend on its position) and returns the end
  /// of the payload.
  static uint8_t* CopyCell(const Iterator& c, uint8_t* tag, uint8_t* p) {
    const size_t bytes = PayloadBytes(*c.tag_, c.payload_);
    *tag = *c.tag_;
    std::memcpy(p, c.payload_, bytes);
    return p + bytes;
  }
  /// Allocates a block for `n` cells of `cell_bytes` bytes and writes its
  /// header (and a long row's size word).
  static uint8_t* Allocate(size_t n, size_t cell_bytes);
  /// Frees the block, if any.
  void Release();
  /// The stored cell `i`.
  Iterator StoredCell(size_t i) const {
    Iterator it = begin();
    for (; i > 0; i--) ++it;
    return it;
  }
  /// Appends the payload of the stored cell at `c` as
  /// Cell::EncodePayloadTo writes it and returns the encoded tag byte. A
  /// DOUBLE stored as k writes that k, building no double.
  static uint8_t PutPayload(const Iterator& c, std::vector<uint8_t>* dst);
  /// Appends the stored cell at `c` whole, as Cell::EncodeTo writes it.
  static void PutWhole(const Iterator& c, std::vector<uint8_t>* dst);
  /// Appends the stored cell at `c`, not stored as the same bytes as the
  /// one at `prev`, against it and returns its EncodeRow state. A non-NULL
  /// cell with `prev`'s tag is 3 and its payload for a DOUBLE in the
  /// decimal form, else 1 and an integer's zigzag difference from `prev`'s
  /// value, mod 2^64, or any other cell's payload; any other cell is 2 and
  /// the whole cell.
  static uint8_t PutChange(const Iterator& c, const Iterator& prev,
                           std::vector<uint8_t>* dst);
  /// Reads a cell EncodeRow wrote in state `state` (1, 2 or 3) against the
  /// stored cell at `prev` into its stored form, a decimal DOUBLE's k
  /// straight from its varint. Corruption on a bad cell (Cell::DecodeView),
  /// a state-1 or state-3 cell over a NULL, or a state-3 cell over a cell
  /// that is no DOUBLE.
  static Result<Stored> GetCell(uint8_t state, const Iterator& prev,
                                Decoder* dec);
  /// Replaces cell `i` with `v` (CellRef's assignment).
  void Set(size_t i, const Cell& v);

  uint8_t* block_ = nullptr;
};

static_assert(sizeof(Row) == 8, "a Row is one pointer to its block");
static_assert(std::endian::native == std::endian::little,
              "row cells are stored little-endian by memcpy");

template <typename CellAt>
Row Row::Pack(size_t n, CellAt&& cell_at) {
  Row row;
  if (n == 0) return row;
  size_t cell_bytes = n;
  for (size_t i = 0; i < n; i++)
    cell_bytes += PayloadBytes(StoredOf(cell_at(i)));
  row.block_ = Allocate(n, cell_bytes);
  uint8_t* tags = row.block_ + kHeaderBytes;
  uint8_t* p = tags + n;
  // One expression per cell: a Value that cell_at returns by value lives
  // while Put copies its string bytes.
  for (size_t i = 0; i < n; i++) p = Put(tags + i, p, StoredOf(cell_at(i)));
  return row;
}

inline Cell Row::Decode(uint8_t tag, const uint8_t* p) {
  Cell c;
  c.type_ = static_cast<DataType>(tag & kTypeMask);
  c.null_ = (tag & Cell::kNullTag) != 0;
  size_t width = Width(tag);
  if (width == 0) return c;  // NULL, zero or the empty string
  uint64_t u = LoadWidth(p, width);
  if (IsString(c.type_)) {
    c.len_ = static_cast<uint32_t>(u);
    c.str_ = reinterpret_cast<const char*>(p + width);
  } else if (c.type_ == DataType::kDouble) {
    c.double_ = width == 8 ? std::bit_cast<double>(u)
                           : static_cast<double>(ZigZagDecode64(u)) / 100.0;
  } else {
    c.int_ = ZigZagDecode64(u);
  }
  return c;
}

inline Cell Row::operator[](size_t i) const { return *StoredCell(i); }

/// A key is a Row of its key cells: a clustered key's primary-key columns,
/// a non-clustered index entry, a row lock's key, a WAL delete's key. The
/// alias names that role; it is not a second type.
using KeyTuple = Row;

/// Lexicographic order of keys: cell-wise Cell::Compare, and a shorter
/// prefix sorts first.
int CompareKeys(const KeyTuple& a, const KeyTuple& b);

struct KeyTupleLess {
  bool operator()(const KeyTuple& a, const KeyTuple& b) const {
    return CompareKeys(a, b) < 0;
  }
};

/// Appends `row` to `dst` encoded against its predecessor `prev`, the
/// tuple written before it (a WAL record's or checkpoint store's): the
/// varint cell count, then, when `prev` has the same count n, ceil(n/4)
/// bytes of cell states, two bits per cell (cell i at byte i/4, bits
/// 2*(i%4)), whose unused high bits are zero, then the cells' bytes by
/// state:
///   0  stored as the same bytes as `prev`'s cell (Row::Iterator::SameBytes):
///      nothing;
///   3  a DOUBLE in the decimal form (Cell::DecimalOf) whose predecessor
///      is a non-NULL DOUBLE: no tag, the zigzag varint of k;
///   1  not NULL, with `prev`'s tag and another value: no tag; an integer
///      (BOOL/SMALLINT/INT/BIGINT/TIMESTAMP) as the zigzag varint of its
///      difference from `prev`'s, mod 2^64, any other cell its payload
///      (Cell::EncodePayloadTo: a raw DOUBLE's 8 bytes);
///   2  any other cell, as Cell::EncodeTo writes it.
/// The first state that applies, in that order, is taken, so a (row,
/// predecessor) pair has one encoding. With `prev` null or of another
/// width there are no states and every cell is as Cell::EncodeTo writes it.
void EncodeRow(const Row& row, const Row* prev, std::vector<uint8_t>* dst);
/// A row with no predecessor: its count, then every cell.
inline void EncodeRow(const Row& row, std::vector<uint8_t>* dst) {
  EncodeRow(row, nullptr, dst);
}
/// EncodeRow without the cell count, for a caller that logs one count for
/// a run of tuples of that width (a WAL commit record's ops).
void EncodeRowCells(const Row& row, const Row* prev, std::vector<uint8_t>* dst);

/// An upper bound on the bytes EncodeRow appends for `row`, against any
/// predecessor: the count takes at most 3 bytes and the states ceil(n/4);
/// a cell takes at most 9 more than its tag and payload in the block (a
/// zero integer, a lone tag there, changed from INT64_MIN is a 10-byte
/// difference; a DOUBLE takes at most 1 more, as a +0.0, a lone tag, is a
/// 1-byte decimal behind its tag and a k in 4 block bytes a varint of up
/// to 5), and the block's 4-byte header (8 with a long row's size word) is
/// slack.
inline size_t EncodedRowBound(const Row& row) {
  return row.BlockBytes() + 9 * row.size() + (row.size() + 3) / 4 + 3;
}

/// Decodes one row encoded against `prev` (EncodeRow) straight into a
/// packed block: one pass sizes it, a second fills it, copying a state-0
/// cell's bytes from `prev`, rebuilding a state-1 cell from `prev`'s (an
/// integer's width follows from the rebuilt value) and storing a decimal
/// DOUBLE's k as read. Corruption past
/// kMaxColumns cells, on a cell missing from the input, on a set unused
/// state bit, a state-1 or state-3 cell whose predecessor is NULL, a
/// state-3 cell whose predecessor is not a DOUBLE, a DOUBLE in a form its
/// value does not take (Cell::DecodePayloadView), or past 4 GiB of string
/// bytes, checked before anything is allocated.
Result<Row> DecodeRow(Decoder* dec, const Row* prev = nullptr);
/// DecodeRow of a row of `n` cells whose count is not in the input
/// (EncodeRowCells).
Result<Row> DecodeRowCells(Decoder* dec, size_t n, const Row* prev);

}  // namespace sqlledger

#endif  // SQLLEDGER_CATALOG_ROW_H_

// Typed SQL values. The type system intentionally mirrors the paper's
// examples (§3.2 uses INT vs SMALLINT metadata-swap attacks), so each type
// carries a distinct wire id that participates in row hashing.

#ifndef SQLLEDGER_CATALOG_VALUE_H_
#define SQLLEDGER_CATALOG_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/slice.h"

namespace sqlledger {

class Decoder;

/// SQL data types supported by the engine. The numeric values are part of
/// the canonical row serialization format and must never be renumbered.
enum class DataType : uint8_t {
  kBool = 1,
  kSmallInt = 2,   // 16-bit signed
  kInt = 3,        // 32-bit signed
  kBigInt = 4,     // 64-bit signed
  kDouble = 5,
  kVarchar = 6,    // variable-length UTF-8 text
  kVarbinary = 7,  // variable-length bytes
  kTimestamp = 8,  // microseconds since Unix epoch, 64-bit signed
};

const char* DataTypeName(DataType t);

/// A read-only view of one typed, nullable SQL value: a type tag, a null
/// flag, a byte length and an 8-byte payload that is either the
/// integral/double content or a pointer to a VARCHAR/VARBINARY value's bytes.
/// A Cell returned by a Row points into the row's block and is valid while
/// that row is alive and unmodified; a Value is a Cell that owns its bytes.
class Cell {
 public:
  /// NULL INT.
  Cell() = default;

  DataType type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_value() const { return AsInt64() != 0; }
  int16_t smallint_value() const { return static_cast<int16_t>(AsInt64()); }
  int32_t int_value() const { return static_cast<int32_t>(AsInt64()); }
  int64_t bigint_value() const { return AsInt64(); }
  /// Integral content regardless of width (bool/smallint/int/bigint/ts);
  /// 0 for other types.
  int64_t AsInt64() const { return IsIntegral() ? int_ : 0; }
  double double_value() const {
    return type_ == DataType::kDouble ? double_ : 0;
  }
  /// VARCHAR/VARBINARY bytes, empty for other types. Valid while the cell's
  /// owner is alive and unmodified.
  std::string_view string_value() const {
    return len_ == 0 ? std::string_view() : std::string_view(str_, len_);
  }
  Slice binary_value() const {
    return len_ == 0 ? Slice() : Slice(str_, len_);
  }

  /// Total ordering used by index keys: NULL < everything; values of
  /// integral types compare numerically across widths; cross-kind
  /// comparisons order by type id (never expected in well-typed keys).
  int Compare(const Cell& other) const;
  bool operator==(const Cell& other) const { return Compare(other) == 0; }
  bool operator!=(const Cell& other) const { return Compare(other) != 0; }
  bool operator<(const Cell& other) const { return Compare(other) < 0; }

  /// Human-readable form for views and examples, e.g. 42, 'abc', NULL.
  std::string ToString() const;

  /// The NULL bit of a tag byte.
  static constexpr uint8_t kNullTag = 0x80;
  /// The decimal bit of an encoded tag byte (EncodePayloadTo), never of a
  /// Row block's tag, whose bits 4-6 are a width code: the cell is a
  /// non-NULL DOUBLE in the decimal form (DecimalOf).
  static constexpr uint8_t kDecimalTag = 0x40;
  /// The cell's tag byte: the DataType id, plus kNullTag for NULL. A cell
  /// of the packed Row block and of the EncodeTo bytes both carry it.
  uint8_t tag() const {
    return static_cast<uint8_t>(type_) | (null_ ? kNullTag : 0);
  }

  /// Compact binary encoding used by WAL records and checkpoints (NOT the
  /// canonical ledger hash format — see ledger/row_serializer.h for that):
  /// the encoded tag byte, then the payload (EncodePayloadTo).
  void EncodeTo(std::vector<uint8_t>* dst) const {
    const size_t at = dst->size();
    dst->push_back(0);
    (*dst)[at] = EncodePayloadTo(dst);
  }
  /// Appends the payload alone and returns the encoded tag byte that names
  /// it: tag(), plus kDecimalTag for a DOUBLE in the decimal form. The
  /// payload is nothing for a NULL, a zigzag varint for
  /// BOOL/SMALLINT/INT/BIGINT/TIMESTAMP, for a DOUBLE the zigzag varint of
  /// k in the decimal form and else its 8 little-endian bytes, or a varint
  /// length and the bytes for VARCHAR/VARBINARY. A value has one encoding.
  uint8_t EncodePayloadTo(std::vector<uint8_t>* dst) const;
  /// True if `d` takes the decimal form, setting `*k`: k = llround(d * 100)
  /// has |k| <= 2^53 and static_cast<double>(k) / 100.0 has exactly `d`'s
  /// bits. -0.0, NaNs, infinities and sums that have drifted off the grid
  /// of hundredths stay raw.
  static bool DecimalOf(double d, int64_t* k);
  /// Reads a decimal DOUBLE's payload, the zigzag varint of k, and returns
  /// k. Corruption when k is past 2^53 or is not DecimalOf's k for the
  /// double k / 100.0. Every k whose zigzag takes 4 bytes or fewer is
  /// (value.cc), so only a longer k builds the double and checks it.
  static Result<int64_t> DecodeDecimal(Decoder* dec);
  /// Decodes one EncodeTo cell as a view: a string's bytes point into the
  /// decoder's input. Corruption on a bad tag or truncated payload.
  static Result<Cell> DecodeView(Decoder* dec);
  /// Decodes the payload of a cell with encoded tag byte `tag`
  /// (EncodePayloadTo) as a view. The one cell reader: DecodeView reads the
  /// tag, then this. Corruption on a DOUBLE in a form EncodePayloadTo does
  /// not write for its value: raw when it is decimal, or decimal with a k
  /// past 2^53 or other than DecimalOf's.
  static Result<Cell> DecodePayloadView(uint8_t tag, Decoder* dec);

 protected:
  friend class Row;
  friend class Value;

  /// BOOL, SMALLINT, INT, BIGINT or TIMESTAMP: the payload is int_.
  bool IsIntegral() const {
    return type_ == DataType::kBool || type_ == DataType::kSmallInt ||
           type_ == DataType::kInt || type_ == DataType::kBigInt ||
           type_ == DataType::kTimestamp;
  }

  DataType type_ = DataType::kInt;
  bool null_ = true;
  uint32_t len_ = 0;  // byte length of str_; 0 for every other type
  union {
    int64_t int_ = 0;
    double double_;
    const char* str_;
  };
};

/// A single typed, nullable SQL value: a Cell that owns one heap block
/// holding a VARCHAR/VARBINARY value's bytes (empty and NULL strings own no
/// block), so every value is 16 bytes. The layout is in-memory only;
/// EncodeTo and the canonical ledger serialization are defined per type.
/// A moved-from value is a NULL of its original type.
class Value : public Cell {
 public:
  /// NULL of the given type.
  static Value Null(DataType type);
  static Value Bool(bool v);
  static Value SmallInt(int16_t v);
  static Value Int(int32_t v);
  static Value BigInt(int64_t v);
  static Value Double(double v);
  static Value Varchar(std::string_view v);
  static Value Varbinary(const std::vector<uint8_t>& v);
  static Value Timestamp(int64_t micros);

  Value() = default;
  /// An owning copy of `cell` (implicit, so a row's cells read as values).
  Value(const Cell& cell) { CopyFrom(cell); }  // NOLINT(runtime/explicit)
  Value(const Value& other) : Cell() { CopyFrom(other); }
  Value(Value&& other) noexcept { StealFrom(&other); }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() { Release(); }

  /// Checked cast to a different type (used by ALTER COLUMN, §3.5.3).
  Result<Value> CastTo(DataType target) const;

  static Result<Value> DecodeFrom(Decoder* dec);

 private:
  /// A non-NULL VARCHAR/VARBINARY holding a copy of `n` bytes at `data`.
  static Value Bytes(DataType type, const void* data, size_t n);

  // Only a VARCHAR/VARBINARY with len_ > 0 owns a heap block.
  bool OwnsBytes() const { return len_ != 0; }
  void CopyFrom(const Cell& other);
  void StealFrom(Value* other);
  void Release();
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte cell");
static_assert(sizeof(Cell) == sizeof(Value), "a Cell is a Value's layout");

}  // namespace sqlledger

#endif  // SQLLEDGER_CATALOG_VALUE_H_

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
/// Fixed width in bytes, or 0 for variable-length types.
size_t DataTypeFixedWidth(DataType t);

/// A single typed, nullable SQL value.
///
/// Every value is 16 bytes: a type tag, a null flag, a byte length and an
/// 8-byte payload that is either the integral/double content or an owned
/// pointer to one heap block holding a VARCHAR/VARBINARY value's bytes
/// (empty and NULL strings own no block). The layout is in-memory only;
/// EncodeTo and the canonical ledger serialization are defined per type.
/// A moved-from value is a NULL of its original type.
class Value {
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
  Value(const Value& other) { CopyFrom(other); }
  Value(Value&& other) noexcept { StealFrom(&other); }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() { Release(); }

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
  /// VARCHAR/VARBINARY bytes, empty for other types. Valid while this value
  /// is alive and unmodified.
  std::string_view string_value() const {
    return len_ == 0 ? std::string_view() : std::string_view(str_, len_);
  }
  Slice binary_value() const {
    return len_ == 0 ? Slice() : Slice(str_, len_);
  }

  /// Total ordering used by index keys: NULL < everything; values of
  /// integral types compare numerically across widths; cross-kind
  /// comparisons order by type id (never expected in well-typed keys).
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Human-readable form for views and examples, e.g. 42, 'abc', NULL.
  std::string ToString() const;

  /// Checked cast to a different type (used by ALTER COLUMN, §3.5.3).
  Result<Value> CastTo(DataType target) const;

  /// Compact binary encoding used by WAL records and checkpoints (NOT the
  /// canonical ledger hash format — see ledger/row_serializer.h for that).
  void EncodeTo(std::vector<uint8_t>* dst) const;
  static Result<Value> DecodeFrom(class Decoder* dec);

 private:
  /// A non-NULL VARCHAR/VARBINARY holding a copy of `n` bytes at `data`.
  static Value Bytes(DataType type, const void* data, size_t n);

  /// BOOL, SMALLINT, INT, BIGINT or TIMESTAMP: the payload is int_.
  bool IsIntegral() const {
    return type_ == DataType::kBool || type_ == DataType::kSmallInt ||
           type_ == DataType::kInt || type_ == DataType::kBigInt ||
           type_ == DataType::kTimestamp;
  }
  // Only a VARCHAR/VARBINARY with len_ > 0 owns a heap block.
  bool OwnsBytes() const { return len_ != 0; }
  void CopyFrom(const Value& other);
  void StealFrom(Value* other);
  void Release();

  DataType type_ = DataType::kInt;
  bool null_ = true;
  uint32_t len_ = 0;  // byte length of str_; 0 for every other type
  union {
    int64_t int_ = 0;
    double double_;
    char* str_;
  };
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte cell");

/// A row is a vector of values, positionally matching its table's schema.
using Row = std::vector<Value>;

/// Index/primary keys are value tuples with lexicographic ordering.
using KeyTuple = std::vector<Value>;

/// Lexicographic comparison of two value tuples.
int CompareKeys(const KeyTuple& a, const KeyTuple& b);

struct KeyTupleLess {
  bool operator()(const KeyTuple& a, const KeyTuple& b) const {
    return CompareKeys(a, b) < 0;
  }
};

}  // namespace sqlledger

#endif  // SQLLEDGER_CATALOG_VALUE_H_

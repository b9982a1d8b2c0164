#include "catalog/value.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/coding.h"

namespace sqlledger {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kBool:
      return "BOOL";
    case DataType::kSmallInt:
      return "SMALLINT";
    case DataType::kInt:
      return "INT";
    case DataType::kBigInt:
      return "BIGINT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kVarchar:
      return "VARCHAR";
    case DataType::kVarbinary:
      return "VARBINARY";
    case DataType::kTimestamp:
      return "TIMESTAMP";
  }
  return "UNKNOWN";
}

Value Value::Null(DataType type) {
  Value v;
  v.type_ = type;
  return v;
}
Value Value::Bool(bool b) {
  Value v;
  v.type_ = DataType::kBool;
  v.null_ = false;
  v.int_ = b ? 1 : 0;
  return v;
}
Value Value::SmallInt(int16_t i) {
  Value v;
  v.type_ = DataType::kSmallInt;
  v.null_ = false;
  v.int_ = i;
  return v;
}
Value Value::Int(int32_t i) {
  Value v;
  v.type_ = DataType::kInt;
  v.null_ = false;
  v.int_ = i;
  return v;
}
Value Value::BigInt(int64_t i) {
  Value v;
  v.type_ = DataType::kBigInt;
  v.null_ = false;
  v.int_ = i;
  return v;
}
Value Value::Double(double d) {
  Value v;
  v.type_ = DataType::kDouble;
  v.null_ = false;
  v.double_ = d;
  return v;
}
Value Value::Varchar(std::string_view s) {
  return Bytes(DataType::kVarchar, s.data(), s.size());
}
Value Value::Varbinary(const std::vector<uint8_t>& b) {
  return Bytes(DataType::kVarbinary, b.data(), b.size());
}
Value Value::Timestamp(int64_t micros) {
  Value v;
  v.type_ = DataType::kTimestamp;
  v.null_ = false;
  v.int_ = micros;
  return v;
}

Value Value::Bytes(DataType type, const void* data, size_t n) {
  // The 4-byte length field caps a string at 4 GiB - 1 bytes.
  if (n > std::numeric_limits<uint32_t>::max()) std::abort();
  Value v;
  v.type_ = type;
  v.null_ = false;
  if (n != 0) {
    char* bytes = new char[n];
    std::memcpy(bytes, data, n);
    v.str_ = bytes;
    v.len_ = static_cast<uint32_t>(n);
  }
  return v;
}

Value& Value::operator=(const Value& other) {
  if (this != &other) {
    Release();
    CopyFrom(other);
  }
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    Release();
    StealFrom(&other);
  }
  return *this;
}

void Value::CopyFrom(const Cell& other) {
  type_ = other.type_;
  null_ = other.null_;
  if (other.len_ != 0) {
    char* bytes = new char[other.len_];
    std::memcpy(bytes, other.str_, other.len_);
    str_ = bytes;
    len_ = other.len_;
  } else {
    int_ = other.int_;
  }
}

void Value::StealFrom(Value* other) {
  type_ = other->type_;
  null_ = other->null_;
  len_ = other->len_;
  if (other->OwnsBytes()) {
    str_ = other->str_;
  } else {
    int_ = other->int_;
  }
  other->null_ = true;
  other->len_ = 0;
  other->int_ = 0;
}

void Value::Release() {
  if (OwnsBytes()) delete[] str_;
  len_ = 0;
  int_ = 0;
}

int Cell::Compare(const Cell& other) const {
  // NULLs sort first; two NULLs are equal regardless of type.
  if (null_ && other.null_) return 0;
  if (null_) return -1;
  if (other.null_) return 1;

  bool a_int = IsIntegral(), b_int = other.IsIntegral();
  if (a_int && b_int) {
    if (int_ < other.int_) return -1;
    if (int_ > other.int_) return 1;
    return 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case DataType::kDouble:
      if (double_ < other.double_) return -1;
      if (double_ > other.double_) return 1;
      return 0;
    case DataType::kVarchar:
    case DataType::kVarbinary: {
      int r = string_value().compare(other.string_value());
      return r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
    default:
      return 0;  // unreachable: integral handled above
  }
}

std::string Cell::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case DataType::kBool:
      return int_ ? "TRUE" : "FALSE";
    case DataType::kSmallInt:
    case DataType::kInt:
    case DataType::kBigInt:
    case DataType::kTimestamp:
      return std::to_string(int_);
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", double_);
      return buf;
    }
    case DataType::kVarchar:
      return "'" + std::string(string_value()) + "'";
    case DataType::kVarbinary: {
      std::string out = "0x";
      static const char kDigits[] = "0123456789abcdef";
      for (unsigned char c : string_value()) {
        out.push_back(kDigits[c >> 4]);
        out.push_back(kDigits[c & 0xF]);
      }
      return out;
    }
  }
  return "?";
}

Result<Value> Value::CastTo(DataType target) const {
  if (null_) return Value::Null(target);
  if (type_ == target) return *this;

  if (IsIntegral()) {
    int64_t v = int_;
    switch (target) {
      case DataType::kBool:
        return Value::Bool(v != 0);
      case DataType::kSmallInt:
        if (v < std::numeric_limits<int16_t>::min() ||
            v > std::numeric_limits<int16_t>::max())
          return Status::InvalidArgument("value out of SMALLINT range");
        return Value::SmallInt(static_cast<int16_t>(v));
      case DataType::kInt:
        if (v < std::numeric_limits<int32_t>::min() ||
            v > std::numeric_limits<int32_t>::max())
          return Status::InvalidArgument("value out of INT range");
        return Value::Int(static_cast<int32_t>(v));
      case DataType::kBigInt:
        return Value::BigInt(v);
      case DataType::kTimestamp:
        return Value::Timestamp(v);
      case DataType::kDouble:
        return Value::Double(static_cast<double>(v));
      case DataType::kVarchar:
        return Value::Varchar(std::to_string(v));
      default:
        break;
    }
  }
  if (type_ == DataType::kDouble) {
    switch (target) {
      case DataType::kBigInt:
        return Value::BigInt(static_cast<int64_t>(double_));
      case DataType::kInt: {
        double d = double_;
        if (d < std::numeric_limits<int32_t>::min() ||
            d > std::numeric_limits<int32_t>::max())
          return Status::InvalidArgument("value out of INT range");
        return Value::Int(static_cast<int32_t>(d));
      }
      case DataType::kVarchar:
        return Value::Varchar(ToString());
      default:
        break;
    }
  }
  if ((type_ == DataType::kVarchar && target == DataType::kVarbinary) ||
      (type_ == DataType::kVarbinary && target == DataType::kVarchar)) {
    return Bytes(target, str_, len_);
  }
  return Status::NotSupported(std::string("cannot cast ") +
                              DataTypeName(type_) + " to " +
                              DataTypeName(target));
}

uint8_t Cell::EncodePayloadTo(std::vector<uint8_t>* dst) const {
  if (null_) return tag();
  switch (type_) {
    case DataType::kBool:
    case DataType::kSmallInt:
    case DataType::kInt:
    case DataType::kBigInt:
    case DataType::kTimestamp:
      PutVarint64(dst, ZigZagEncode64(int_));
      break;
    case DataType::kDouble: {
      int64_t k;
      if (DecimalOf(double_, &k)) {
        PutVarint64(dst, ZigZagEncode64(k));
        return static_cast<uint8_t>(tag() | kDecimalTag);
      }
      PutFixed64(dst, std::bit_cast<uint64_t>(double_));
      break;
    }
    case DataType::kVarchar:
    case DataType::kVarbinary:
      PutLengthPrefixed(dst, binary_value());
      break;
  }
  return tag();
}

namespace {
// The largest |k| of the decimal form.
constexpr int64_t kDecimalLimit = int64_t{1} << 53;
}  // namespace

bool Cell::DecimalOf(double d, int64_t* k) {
  const double scaled = d * 100;
  // Also false for a NaN and the infinities. A double past 2^53 is an
  // integer, so this bounds llround's k too.
  if (!(std::fabs(scaled) <= static_cast<double>(kDecimalLimit))) return false;
  const int64_t r = std::llround(scaled);
  if (std::bit_cast<uint64_t>(static_cast<double>(r) / 100.0) !=
      std::bit_cast<uint64_t>(d))
    return false;
  *k = r;
  return true;
}

Result<int64_t> Cell::DecodeDecimal(Decoder* dec) {
  auto v = dec->GetVarint64();
  if (!v.ok()) return v.status();
  const int64_t k = ZigZagDecode64(*v);
  // For a zigzag in 4 bytes, |k| <= 2^31: d = k / 100.0 is within
  // |k| 2^-53 / 100 of k / 100 and d * 100 within |k| 2^-52 <= 2^-21 of k,
  // so DecimalOf rounds it back to k, whose k / 100.0 is d again. No such
  // k needs the check below.
  if (*v <= 0xFFFFFFFF) return k;
  if (k > kDecimalLimit || k < -kDecimalLimit)
    return Status::Corruption("decimal DOUBLE past 2^53 hundredths");
  int64_t back;
  if (!DecimalOf(static_cast<double>(k) / 100.0, &back) || back != k)
    return Status::Corruption("DOUBLE logged as another decimal");
  return k;
}

Result<Cell> Cell::DecodeView(Decoder* dec) {
  auto tag_byte = dec->GetBytes(1);
  if (!tag_byte.ok()) return tag_byte.status();
  return DecodePayloadView((*tag_byte)[0], dec);
}

Result<Cell> Cell::DecodePayloadView(uint8_t tag, Decoder* dec) {
  constexpr uint8_t kDecimalDouble =
      static_cast<uint8_t>(DataType::kDouble) | kDecimalTag;
  const bool decimal = (tag & kDecimalTag) != 0;
  if (decimal && tag != kDecimalDouble)
    return Status::Corruption("decimal tag on a cell that is not a DOUBLE");
  const uint8_t type_id = tag & ~(kNullTag | kDecimalTag);
  if (type_id < 1 || type_id > 8)
    return Status::Corruption("invalid data type id in encoded value");
  Cell c;
  c.type_ = static_cast<DataType>(type_id);
  c.null_ = (tag & kNullTag) != 0;
  if (c.null_) return c;
  switch (c.type_) {
    case DataType::kBool:
    case DataType::kSmallInt:
    case DataType::kInt:
    case DataType::kBigInt:
    case DataType::kTimestamp: {
      auto v = dec->GetVarint64();
      if (!v.ok()) return v.status();
      c.int_ = ZigZagDecode64(*v);
      return c;
    }
    case DataType::kDouble: {
      if (decimal) {
        auto k = DecodeDecimal(dec);
        if (!k.ok()) return k.status();
        c.double_ = static_cast<double>(*k) / 100.0;
        return c;
      }
      int64_t k;
      auto v = dec->GetFixed64();
      if (!v.ok()) return v.status();
      c.double_ = std::bit_cast<double>(*v);
      if (DecimalOf(c.double_, &k))
        return Status::Corruption("decimal DOUBLE logged raw");
      return c;
    }
    case DataType::kVarchar:
    case DataType::kVarbinary: {
      auto s = dec->GetLengthPrefixed();
      if (!s.ok()) return s.status();
      // A cell's 4-byte length field caps a string at 4 GiB - 1 bytes.
      if (s->size() > std::numeric_limits<uint32_t>::max())
        return Status::Corruption("encoded string too long for a cell");
      if (!s->empty()) {
        c.len_ = static_cast<uint32_t>(s->size());
        c.str_ = reinterpret_cast<const char*>(s->data());
      }
      return c;
    }
  }
  return Status::Corruption("unreachable value decode");
}

Result<Value> Value::DecodeFrom(Decoder* dec) {
  auto cell = DecodeView(dec);
  if (!cell.ok()) return cell.status();
  return Value(*cell);
}

}  // namespace sqlledger

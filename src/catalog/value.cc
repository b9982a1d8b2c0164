#include "catalog/value.h"

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

size_t DataTypeFixedWidth(DataType t) {
  switch (t) {
    case DataType::kBool:
      return 1;
    case DataType::kSmallInt:
      return 2;
    case DataType::kInt:
      return 4;
    case DataType::kBigInt:
    case DataType::kTimestamp:
    case DataType::kDouble:
      return 8;
    case DataType::kVarchar:
    case DataType::kVarbinary:
      return 0;
  }
  return 0;
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
    v.str_ = new char[n];
    std::memcpy(v.str_, data, n);
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

void Value::CopyFrom(const Value& other) {
  type_ = other.type_;
  null_ = other.null_;
  if (other.OwnsBytes()) {
    str_ = new char[other.len_];
    std::memcpy(str_, other.str_, other.len_);
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

int Value::Compare(const Value& other) const {
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

std::string Value::ToString() const {
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

void Value::EncodeTo(std::vector<uint8_t>* dst) const {
  dst->push_back(static_cast<uint8_t>(type_));
  dst->push_back(null_ ? 1 : 0);
  if (null_) return;
  switch (type_) {
    case DataType::kBool:
    case DataType::kSmallInt:
    case DataType::kInt:
    case DataType::kBigInt:
    case DataType::kTimestamp:
      PutFixed64(dst, static_cast<uint64_t>(int_));
      break;
    case DataType::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &double_, 8);
      PutFixed64(dst, bits);
      break;
    }
    case DataType::kVarchar:
    case DataType::kVarbinary:
      PutLengthPrefixed(dst, binary_value());
      break;
  }
}

Result<Value> Value::DecodeFrom(Decoder* dec) {
  auto type_byte = dec->GetBytes(1);
  if (!type_byte.ok()) return type_byte.status();
  auto null_byte = dec->GetBytes(1);
  if (!null_byte.ok()) return null_byte.status();
  DataType type = static_cast<DataType>((*type_byte)[0]);
  if ((*type_byte)[0] < 1 || (*type_byte)[0] > 8)
    return Status::Corruption("invalid data type id in encoded value");
  bool is_null = (*null_byte)[0] != 0;
  if (is_null) return Value::Null(type);

  switch (type) {
    case DataType::kBool:
    case DataType::kSmallInt:
    case DataType::kInt:
    case DataType::kBigInt:
    case DataType::kTimestamp: {
      auto v = dec->GetFixed64();
      if (!v.ok()) return v.status();
      Value out;
      out.type_ = type;
      out.null_ = false;
      out.int_ = static_cast<int64_t>(*v);
      return out;
    }
    case DataType::kDouble: {
      auto v = dec->GetFixed64();
      if (!v.ok()) return v.status();
      double d;
      uint64_t bits = *v;
      std::memcpy(&d, &bits, 8);
      return Value::Double(d);
    }
    case DataType::kVarchar:
    case DataType::kVarbinary: {
      auto s = dec->GetLengthPrefixed();
      if (!s.ok()) return s.status();
      return Bytes(type, s->data(), s->size());
    }
  }
  return Status::Corruption("unreachable value decode");
}

int CompareKeys(const KeyTuple& a, const KeyTuple& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; i++) {
    int r = a[i].Compare(b[i]);
    if (r != 0) return r;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

}  // namespace sqlledger

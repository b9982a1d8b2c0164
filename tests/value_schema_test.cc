// Value, Schema and Row encode/decode tests.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "catalog/value.h"
#include "util/coding.h"
#include "util/hex.h"

namespace sqlledger {
namespace {

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_EQ(Value::Int(42).int_value(), 42);
  EXPECT_EQ(Value::SmallInt(-5).smallint_value(), -5);
  EXPECT_EQ(Value::BigInt(INT64_MIN).bigint_value(), INT64_MIN);
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::Varchar("abc").string_value(), "abc");
  EXPECT_EQ(Value::Timestamp(123).AsInt64(), 123);
  EXPECT_TRUE(Value::Null(DataType::kInt).is_null());
  EXPECT_FALSE(Value::Int(0).is_null());
}

TEST(ValueTest, NullsSortFirstAndEqual) {
  Value null_int = Value::Null(DataType::kInt);
  Value null_str = Value::Null(DataType::kVarchar);
  EXPECT_EQ(null_int.Compare(null_str), 0);
  EXPECT_LT(null_int.Compare(Value::Int(INT32_MIN)), 0);
  EXPECT_GT(Value::Varchar("").Compare(null_str), 0);
}

TEST(ValueTest, CrossWidthIntegerComparison) {
  EXPECT_EQ(Value::SmallInt(7).Compare(Value::BigInt(7)), 0);
  EXPECT_LT(Value::Int(-1).Compare(Value::SmallInt(0)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::Varchar("abc").Compare(Value::Varchar("abd")), 0);
  EXPECT_LT(Value::Varchar("ab").Compare(Value::Varchar("abc")), 0);
  EXPECT_EQ(Value::Varchar("abc").Compare(Value::Varchar("abc")), 0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null(DataType::kInt).ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(false).ToString(), "FALSE");
  EXPECT_EQ(Value::Varchar("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Varbinary({0xDE, 0xAD}).ToString(), "0xdead");
}

TEST(ValueTest, CastWidening) {
  auto v = Value::SmallInt(100).CastTo(DataType::kBigInt);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->bigint_value(), 100);
  EXPECT_EQ(v->type(), DataType::kBigInt);
}

TEST(ValueTest, CastNarrowingChecksRange) {
  EXPECT_TRUE(Value::BigInt(40000).CastTo(DataType::kSmallInt).status().code() ==
              StatusCode::kInvalidArgument);
  auto ok = Value::BigInt(30000).CastTo(DataType::kSmallInt);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->smallint_value(), 30000);
}

TEST(ValueTest, CastIntToVarchar) {
  auto v = Value::Int(42).CastTo(DataType::kVarchar);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "42");
}

TEST(ValueTest, CastNullKeepsNull) {
  auto v = Value::Null(DataType::kInt).CastTo(DataType::kVarchar);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  EXPECT_EQ(v->type(), DataType::kVarchar);
}

TEST(ValueTest, UnsupportedCastFails) {
  EXPECT_EQ(Value::Varchar("x").CastTo(DataType::kInt).status().code(),
            StatusCode::kNotSupported);
}

TEST(ValueTest, EncodeDecodeRoundTripAllTypes) {
  std::vector<Value> values = {
      Value::Bool(true),
      Value::SmallInt(-123),
      Value::Int(INT32_MIN),
      Value::BigInt(INT64_MAX),
      Value::Double(-1.5e300),
      Value::Varchar("hello \0 world"),
      Value::Varbinary({0, 1, 2, 255}),
      Value::Timestamp(1234567890123456),
      Value::Null(DataType::kVarchar),
      Value::Null(DataType::kDouble),
  };
  std::vector<uint8_t> buf;
  for (const Value& v : values) v.EncodeTo(&buf);
  Decoder dec{Slice(buf)};
  for (const Value& expected : values) {
    auto got = Value::DecodeFrom(&dec);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->type(), expected.type());
    EXPECT_EQ(got->is_null(), expected.is_null());
    EXPECT_EQ(got->Compare(expected), 0);
  }
  EXPECT_TRUE(dec.done());
}

TEST(ValueTest, DecodeRejectsBadTypeId) {
  std::vector<uint8_t> buf = {99, 0};
  Decoder dec{Slice(buf)};
  EXPECT_EQ(Value::DecodeFrom(&dec).status().code(), StatusCode::kCorruption);
}

std::vector<uint8_t> Encoded(const Value& v) {
  std::vector<uint8_t> buf;
  v.EncodeTo(&buf);
  return buf;
}

// WAL records and checkpoints persist values in this encoding: type id,
// null flag, then a fixed 8-byte little-endian payload or a varint length
// and the bytes. Pinned so an in-memory layout change cannot drift it.
TEST(ValueTest, EncodingGoldenBytes) {
  const std::pair<Value, const char*> cases[] = {
      {Value::Bool(true), "01000100000000000000"},
      {Value::SmallInt(-2), "0200feffffffffffffff"},
      {Value::Int(0x12345678), "03007856341200000000"},
      {Value::BigInt(-5), "0400fbffffffffffffff"},
      {Value::Double(1.5), "0500000000000000f83f"},
      {Value::Varchar("ledger"), "0600066c6564676572"},
      {Value::Varbinary({0xDE, 0xAD, 0xBE, 0xEF}), "070004deadbeef"},
      {Value::Timestamp(1600000000000000), "08000000a40731af0500"},
      {Value::Null(DataType::kVarchar), "0601"},
  };
  for (const auto& [value, hex] : cases) {
    EXPECT_EQ(HexEncode(Slice(Encoded(value))), hex) << value.ToString();
  }
}

// Strict identity (type, null flag, payload): Compare alone equates NULLs of
// different types and integers of different widths.

void ExpectSame(const Value& got, const Value& want) {
  EXPECT_EQ(Encoded(got), Encoded(want)) << want.ToString().substr(0, 32);
  EXPECT_EQ(got.string_value(), want.string_value());
}

// One non-NULL value of every type, then the string cases the 16-byte
// layout treats specially: empty (no heap block), NULL, and 1 MiB.
std::vector<Value> OwnershipSamples() {
  return {Value::Bool(true),
          Value::SmallInt(-7),
          Value::Int(123456),
          Value::BigInt(INT64_MIN),
          Value::Double(-0.25),
          Value::Varchar("sixteen-byte cell"),
          Value::Varbinary({0, 1, 0xFF}),
          Value::Timestamp(1600000000000000),
          Value::Varchar(""),
          Value::Null(DataType::kVarchar),
          Value::Varbinary(std::vector<uint8_t>(1 << 20, 0xAB))};
}

TEST(ValueOwnershipTest, SixteenByteCell) { EXPECT_EQ(sizeof(Value), 16u); }

TEST(ValueOwnershipTest, CopyIsDeepAndIndependent) {
  for (const Value& sample : OwnershipSamples()) {
    Value copy(sample);
    ExpectSame(copy, sample);
    if (!sample.string_value().empty()) {
      EXPECT_NE(copy.string_value().data(), sample.string_value().data());
    }
    Value assigned = Value::Varchar("replaced");
    assigned = sample;
    ExpectSame(assigned, sample);
    copy = Value::Int(1);  // the original keeps its bytes
    ExpectSame(assigned, sample);
  }
}

TEST(ValueOwnershipTest, MoveLeavesTypedNull) {
  for (const Value& sample : OwnershipSamples()) {
    Value source(sample);
    const char* bytes = source.string_value().data();
    Value moved(std::move(source));
    ExpectSame(moved, sample);
    EXPECT_EQ(moved.string_value().data(), bytes);  // no reallocation
    EXPECT_TRUE(source.is_null());                  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.type(), sample.type());

    Value target = Value::Varchar("freed on assignment");
    target = std::move(moved);
    ExpectSame(target, sample);
    EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(ValueOwnershipTest, MovedFromValueIsUsable) {
  Value source = Value::Varchar("payload");
  Value sink(std::move(source));
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_TRUE(source.string_value().empty());
  EXPECT_EQ(source.AsInt64(), 0);
  EXPECT_EQ(source.ToString(), "NULL");
  EXPECT_EQ(source.Compare(Value::Null(DataType::kInt)), 0);
  EXPECT_EQ(HexEncode(Slice(Encoded(source))), "0601");
  Value copy(source);
  EXPECT_TRUE(copy.is_null());
  source = Value::Varbinary({1, 2});
  EXPECT_EQ(source.binary_value(), Slice(std::vector<uint8_t>{1, 2}));
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(sink.string_value(), "payload");
}

TEST(ValueOwnershipTest, SelfAssignment) {
  for (const Value& sample : OwnershipSamples()) {
    Value v(sample);
    const Value& same = v;
    v = same;
    ExpectSame(v, sample);
    Value& alias = v;
    v = std::move(alias);
    ExpectSame(v, sample);
  }
}

TEST(ValueOwnershipTest, AssignmentAcrossTypes) {
  Value v = Value::Varchar("string first");
  v = Value::Int(5);
  EXPECT_EQ(v.type(), DataType::kInt);
  EXPECT_EQ(v.int_value(), 5);
  EXPECT_TRUE(v.string_value().empty());
  v = Value::Varbinary({9, 8, 7});
  EXPECT_EQ(v.type(), DataType::kVarbinary);
  EXPECT_EQ(v.AsInt64(), 0);
  EXPECT_EQ(v.binary_value().size(), 3u);
  v = Value::Double(2.5);
  EXPECT_DOUBLE_EQ(v.double_value(), 2.5);
  EXPECT_EQ(v.AsInt64(), 0);
  Value s = Value::Varchar("back to a string");
  v = s;
  EXPECT_EQ(v.string_value(), "back to a string");
  EXPECT_DOUBLE_EQ(v.double_value(), 0);
}

TEST(ValueOwnershipTest, RowCopiesAndVectorGrowth) {
  Row row = OwnershipSamples();
  Row copy = row;
  ASSERT_EQ(copy.size(), row.size());
  for (size_t i = 0; i < row.size(); i++) ExpectSame(copy[i], row[i]);
  copy[5] = Value::Varchar("changed");
  EXPECT_EQ(row[5].string_value(), "sixteen-byte cell");

  // Growth relocates every element through the move constructor; insert and
  // erase shift elements through move assignment.
  std::vector<Value> values;
  for (int i = 0; i < 1000; i++) {
    values.push_back(i % 2 ? Value::Varchar(std::to_string(i))
                           : Value::BigInt(i));
  }
  values.insert(values.begin(), Value::Varchar("front"));
  values.erase(values.begin() + 1, values.begin() + 11);
  ASSERT_EQ(values.size(), 991u);
  EXPECT_EQ(values[0].string_value(), "front");
  for (int i = 10; i < 1000; i++) {
    const Value& v = values[static_cast<size_t>(i - 9)];
    if (i % 2) {
      EXPECT_EQ(v.string_value(), std::to_string(i));
    } else {
      EXPECT_EQ(v.AsInt64(), i);
    }
  }

  std::vector<Row> rows;
  for (int i = 0; i < 200; i++) {
    Row r{Value::BigInt(i), Value::Varchar(std::string(i, 'x')),
          Value::Null(DataType::kVarchar)};
    rows.push_back(r);
  }
  std::vector<Row> rows_copy = rows;
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(rows_copy[i][0].AsInt64(), i);
    EXPECT_EQ(rows_copy[i][1].string_value(), std::string(i, 'x'));
    EXPECT_TRUE(rows_copy[i][2].is_null());
  }
}

TEST(SchemaTest, AddAndFindColumns) {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("name", DataType::kVarchar, true, 32);
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.FindColumn("name"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
  EXPECT_EQ(s.column(0).column_id, 1u);
  EXPECT_EQ(s.column(1).column_id, 2u);
}

TEST(SchemaTest, DroppedColumnsInvisibleToFind) {
  Schema s;
  s.AddColumn("a", DataType::kInt, true);
  s.mutable_column(0)->dropped = true;
  EXPECT_EQ(s.FindColumn("a"), -1);
}

TEST(SchemaTest, ValidateRowChecksArityTypesNullsLengths) {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("name", DataType::kVarchar, true, 3);
  s.SetPrimaryKey({0});

  EXPECT_TRUE(s.ValidateRow({Value::BigInt(1), Value::Varchar("abc")}).ok());
  EXPECT_FALSE(s.ValidateRow({Value::BigInt(1)}).ok());  // arity
  EXPECT_FALSE(
      s.ValidateRow({Value::Null(DataType::kBigInt), Value::Varchar("a")})
          .ok());  // null in non-nullable
  EXPECT_FALSE(
      s.ValidateRow({Value::Int(1), Value::Varchar("a")}).ok());  // type
  EXPECT_FALSE(
      s.ValidateRow({Value::BigInt(1), Value::Varchar("abcd")}).ok());  // len
}

TEST(SchemaTest, PadRowFillsHiddenAndDropped) {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("gone", DataType::kInt, true);
  s.mutable_column(1)->dropped = true;
  s.AddColumn("sys", DataType::kBigInt, true, 0, /*hidden=*/true);
  s.AddColumn("name", DataType::kVarchar, true);
  s.SetPrimaryKey({0});

  auto padded = s.PadRow({Value::BigInt(1), Value::Varchar("x")});
  ASSERT_TRUE(padded.ok());
  ASSERT_EQ(padded->size(), 4u);
  EXPECT_EQ((*padded)[0].AsInt64(), 1);
  EXPECT_TRUE((*padded)[1].is_null());
  EXPECT_TRUE((*padded)[2].is_null());
  EXPECT_EQ((*padded)[3].string_value(), "x");

  EXPECT_FALSE(s.PadRow({Value::BigInt(1)}).ok());  // too few
  EXPECT_FALSE(
      s.PadRow({Value::BigInt(1), Value::Varchar("x"), Value::Int(3)}).ok());
}

TEST(SchemaTest, ExtractKeyAndVisibleOrdinals) {
  Schema s;
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("b", DataType::kBigInt, false);
  s.AddColumn("sys", DataType::kBigInt, true, 0, /*hidden=*/true);
  s.SetPrimaryKey({1, 0});

  Row row{Value::BigInt(1), Value::BigInt(2), Value::BigInt(3)};
  KeyTuple key = s.ExtractKey(row);
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].AsInt64(), 2);
  EXPECT_EQ(key[1].AsInt64(), 1);
  EXPECT_EQ(s.VisibleOrdinals(), (std::vector<size_t>{0, 1}));
}

TEST(RowCodecTest, RoundTrip) {
  Row row{Value::BigInt(7), Value::Varchar("x"), Value::Null(DataType::kInt)};
  std::vector<uint8_t> buf;
  EncodeRow(row, &buf);
  Decoder dec{Slice(buf)};
  auto decoded = DecodeRow(&dec);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].AsInt64(), 7);
  EXPECT_TRUE((*decoded)[2].is_null());
}

TEST(RowCodecTest, PayloadBytes) {
  Row row{Value::Int(1), Value::Varchar("abcde"), Value::Null(DataType::kInt),
          Value::Double(1.0)};
  EXPECT_EQ(RowPayloadBytes(row), 4u + 5u + 0u + 8u);
}

TEST(KeyCompareTest, Lexicographic) {
  KeyTuple a{Value::BigInt(1), Value::BigInt(2)};
  KeyTuple b{Value::BigInt(1), Value::BigInt(3)};
  KeyTuple prefix{Value::BigInt(1)};
  EXPECT_LT(CompareKeys(a, b), 0);
  EXPECT_GT(CompareKeys(b, a), 0);
  EXPECT_EQ(CompareKeys(a, a), 0);
  EXPECT_LT(CompareKeys(prefix, a), 0);  // shorter sorts first on tie
}

}  // namespace
}  // namespace sqlledger

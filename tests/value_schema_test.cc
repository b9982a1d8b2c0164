// Value, Schema and Row encode/decode tests.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "catalog/value.h"
#include "storage/table_store.h"
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

// WAL records and checkpoints persist values in this encoding: a tag byte
// (type id, plus 0x80 for NULL), then a zigzag varint for the integral
// types; for a DOUBLE that is exactly k/100 (the decimal form) the tag plus
// 0x40 and the zigzag varint of k, for any other DOUBLE its 8
// little-endian bytes; a varint length and the bytes for a string; and no
// payload for a NULL. Pinned so an in-memory layout change cannot drift it.
TEST(ValueTest, EncodingGoldenBytes) {
  const std::pair<Value, const char*> cases[] = {
      // BOOL, zigzag(1) = 2
      {Value::Bool(true), "0102"},
      // SMALLINT, zigzag(-2) = 3
      {Value::SmallInt(-2), "0203"},
      // INT, zigzag(0x12345678) = 0x2468acf0 in five 7-bit groups
      {Value::Int(0x12345678), "03f0d9a2a302"},
      // BIGINT, zigzag(-5) = 9
      {Value::BigInt(-5), "0409"},
      // DOUBLE 1.5 = 150 hundredths: 0x05 | 0x40, zigzag(150) = 300
      {Value::Double(1.5), "45ac02"},
      // DOUBLE 0.0 = 0 hundredths
      {Value::Double(0.0), "4500"},
      // DOUBLE -0.1 = -10 hundredths, zigzag 19
      {Value::Double(-0.1), "4513"},
      // DOUBLE 0.1 + 0.2 = 0x3fd3333333333334, off the grid: raw
      {Value::Double(0.1 + 0.2), "05343333333333d33f"},
      // DOUBLE -0.0 = 0x8000000000000000: raw
      {Value::Double(-0.0), "050000000000000080"},
      // VARCHAR, length 6, 'ledger'
      {Value::Varchar("ledger"), "06066c6564676572"},
      // VARBINARY, length 4, the bytes
      {Value::Varbinary({0xDE, 0xAD, 0xBE, 0xEF}), "0704deadbeef"},
      // TIMESTAMP, zigzag(1600000000000000) = 3200000000000000
      // = 0xb5e620f480000 in eight 7-bit groups
      {Value::Timestamp(1600000000000000), "088080a0faa0ccd705"},
      // NULL VARCHAR: 0x06 | 0x80, no payload
      {Value::Null(DataType::kVarchar), "86"},
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
  EXPECT_EQ(HexEncode(Slice(Encoded(source))), "86");
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

// EncodeRow's bytes feed the WAL and checkpoints, so they are pinned: one
// cell of every type, a NULL of every type, an empty and a non-empty string,
// and a trailing cell appended by ExtendRows (ADD COLUMN).
TEST(RowCodecTest, EncodeRowGoldenBytes) {
  const DataType kTypes[] = {DataType::kBool,      DataType::kSmallInt,
                             DataType::kInt,       DataType::kBigInt,
                             DataType::kDouble,    DataType::kVarchar,
                             DataType::kVarbinary, DataType::kTimestamp};
  std::vector<Value> values = {Value::Bool(true),
                               Value::SmallInt(-2),
                               Value::Int(0x12345678),
                               Value::BigInt(-5),
                               Value::Double(1.5),
                               Value::Varchar("ledger"),
                               Value::Varbinary({0xDE, 0xAD}),
                               Value::Timestamp(1600000000000000),
                               Value::Varchar(""),
                               Value::Varbinary({})};
  for (DataType t : kTypes) values.push_back(Value::Null(t));
  Schema schema;
  schema.AddColumn("id", DataType::kBigInt, false);
  for (size_t i = 1; i <= values.size(); i++)
    schema.AddColumn("c" + std::to_string(i), values[i - 1].type(), true);
  schema.SetPrimaryKey({0});
  values.insert(values.begin(), Value::BigInt(1));
  TableStore store(1, "golden", schema);
  ASSERT_TRUE(store.Insert(Row(values)).ok());
  store.mutable_schema()->AddColumn("added", DataType::kInt, true);
  store.ExtendRows(Value::Int(-1));

  std::vector<uint8_t> buf;
  EncodeRow(*store.Get({Value::BigInt(1)}), &buf);
  EXPECT_EQ(HexEncode(Slice(buf)),
            "14"                  // 20 cells
            "0402"                // id BIGINT 1, zigzag 2
            "0102"                // BOOL true, zigzag 2
            "0203"                // SMALLINT -2, zigzag 3
            "03f0d9a2a302"        // INT 0x12345678, zigzag 0x2468acf0
            "0409"                // BIGINT -5, zigzag 9
            "45ac02"              // DOUBLE 1.5: 0x05 | 0x40, zigzag(150)
            "06066c6564676572"    // VARCHAR 'ledger'
            "0702dead"            // VARBINARY 0xdead
            "088080a0faa0ccd705"  // TIMESTAMP, zigzag 3200000000000000
            "0600"                // VARCHAR ''
            "0700"                // VARBINARY empty
            "8182838485868788"    // NULL of every type: tag | 0x80
            "0301");              // INT -1, zigzag 1
}

TEST(RowCodecTest, DecodeRejectsRowsWiderThanABlock) {
  for (size_t n : {Row::kMaxColumns, Row::kMaxColumns + 1}) {
    // The encoding of `n` NULL INTs: the count, then one tag byte a cell.
    std::vector<uint8_t> buf;
    PutVarint32(&buf, static_cast<uint32_t>(n));
    buf.insert(buf.end(), n, Value::Null(DataType::kInt).tag());
    Decoder dec{Slice(buf)};
    auto row = DecodeRow(&dec);
    if (n == Row::kMaxColumns) {
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(row->size(), n);
    } else {
      EXPECT_TRUE(row.status().IsCorruption());
    }
  }
}

// A count of 0xffffffff in five bytes must be rejected before it sizes an
// allocation (both decoders used to abort with bad_alloc).
TEST(RowCodecTest, DecodeRowRejectsHugeCountBeforeAllocating) {
  const std::vector<uint8_t> buf = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  Decoder dec{Slice(buf)};
  EXPECT_TRUE(DecodeRow(&dec).status().IsCorruption());
}

TEST(RowCodecTest, DecodeRowRejectsCountBeyondItsBytes) {
  const std::vector<uint8_t> buf = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  Decoder dec{Slice(buf)};
  EXPECT_TRUE(DecodeRow(&dec).status().IsCorruption());
  // Two cells announced, one present.
  const std::vector<uint8_t> short_buf = {0x02, 0x86};
  Decoder short_dec{Slice(short_buf)};
  EXPECT_TRUE(DecodeRow(&short_dec).status().IsCorruption());
}

}  // namespace
}  // namespace sqlledger

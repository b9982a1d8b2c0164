// Packed Row: round trips of every type, copy and move semantics, CellRef
// writes (in place and repacking), and a seeded property test that a Cell
// read from a row orders exactly like the Value it was packed from.
// SQLLEDGER_TEST_SEED picks the property test's values.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "catalog/row.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

// Strict identity (type, null flag, payload): Compare alone equates NULLs of
// different types and integers of different widths.
void ExpectSame(const Cell& got, const Value& want) {
  std::vector<uint8_t> got_bytes, want_bytes;
  got.EncodeTo(&got_bytes);
  want.EncodeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes) << want.ToString().substr(0, 32);
}

std::vector<Value> EveryType() {
  return {Value::Bool(true),
          Value::SmallInt(-7),
          Value::Int(123456),
          Value::BigInt(INT64_MIN),
          Value::Double(-0.25),
          Value::Varchar("packed"),
          Value::Varbinary({0, 1, 0xFF}),
          Value::Timestamp(1600000000000000),
          Value::Varchar(""),
          Value::Varbinary({}),
          Value::Null(DataType::kBool),
          Value::Null(DataType::kDouble),
          Value::Null(DataType::kVarchar),
          Value::Varbinary(std::vector<uint8_t>(1 << 20, 0xAB))};
}

TEST(RowTest, RoundTripsEveryType) {
  std::vector<Value> values = EveryType();
  Row row(values);
  ASSERT_EQ(row.size(), values.size());
  for (size_t i = 0; i < values.size(); i++) {
    ExpectSame(row[i], values[i]);
    EXPECT_EQ(row[i].string_value(), values[i].string_value());
  }
  EXPECT_EQ(row[4].double_value(), -0.25);
  EXPECT_EQ(row[13].binary_value().size(), size_t{1} << 20);
  std::vector<Value> back = row.Values();
  ASSERT_EQ(back.size(), values.size());
  for (size_t i = 0; i < values.size(); i++) ExpectSame(back[i], values[i]);
}

TEST(RowTest, EmptyRowOwnsNoBlock) {
  Row row;
  EXPECT_TRUE(row.empty());
  EXPECT_EQ(row.size(), 0u);
  EXPECT_EQ(row.BlockBytes(), 0u);
  EXPECT_TRUE(row.begin() == row.end());
  EXPECT_EQ(Row(std::vector<Value>{}), row);
  EXPECT_EQ(Row(row).BlockBytes(), 0u);
}

TEST(RowTest, BlockIsExactlySized) {
  // Header, 3 tags padded to 8, 3 cells and 5 string bytes.
  Row row{Value::BigInt(1), Value::Varchar("hello"),
          Value::Null(DataType::kInt)};
  EXPECT_EQ(row.BlockBytes(), 8u + 8u + 24u + 5u);
  // Nine tags pad to 16.
  Row wide(std::vector<Value>(9, Value::BigInt(0)));
  EXPECT_EQ(wide.BlockBytes(), 8u + 16u + 72u);
}

TEST(RowTest, CopiesAreDeepAndIndependent) {
  Row a(EveryType());
  Row b = a;
  EXPECT_EQ(a, b);
  EXPECT_NE(a[5].string_value().data(), b[5].string_value().data());
  b[5] = Value::Varchar("changed");
  b[2] = Value::Int(-1);
  EXPECT_EQ(a[5].string_value(), "packed");
  EXPECT_EQ(a[2].AsInt64(), 123456);
  EXPECT_EQ(b[5].string_value(), "changed");
  EXPECT_FALSE(a == b);

  Row c;
  c = a;
  EXPECT_EQ(c, a);
  EXPECT_NE(c[13].binary_value().data(), a[13].binary_value().data());
}

TEST(RowTest, CopyAssignReusesAnEqualSizedBlock) {
  Row a{Value::Varchar("abc"), Value::BigInt(1)};
  Row b{Value::Varchar("xyz"), Value::BigInt(2)};
  const char* before = a[0].string_value().data();
  a = b;
  EXPECT_EQ(a[0].string_value().data(), before);
  EXPECT_EQ(a[0].string_value(), "xyz");
  EXPECT_EQ(a[1].AsInt64(), 2);
}

TEST(RowTest, MoveLeavesAnEmptyRow) {
  Row a(EveryType());
  Row b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.size(), EveryType().size());
  Row c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c[5].string_value(), "packed");
}

TEST(RowTest, FixedCellWriteIsInPlace) {
  Row row{Value::BigInt(1), Value::Varchar("keep"),
          Value::Null(DataType::kBigInt)};
  const char* str = row[1].string_value().data();
  size_t bytes = row.BlockBytes();
  row[2] = Value::BigInt(42);  // NULL -> value, as the ledger stamps end_txn
  row[0] = Value::Double(2.5);  // a different fixed type
  EXPECT_EQ(row[1].string_value().data(), str);
  EXPECT_EQ(row.BlockBytes(), bytes);
  EXPECT_EQ(row[2].AsInt64(), 42);
  EXPECT_FALSE(row[2].is_null());
  ExpectSame(row[0], Value::Double(2.5));
  row[2] = Value::Null(DataType::kBigInt);
  ExpectSame(row[2], Value::Null(DataType::kBigInt));
  EXPECT_EQ(row[1].string_value().data(), str);
}

TEST(RowTest, StringWritesRepackOnlyWhenTheLengthChanges) {
  Row row{Value::Varchar("aa"), Value::BigInt(7), Value::Varchar("bbbb")};
  const char* tail = row[2].string_value().data();
  row[0] = Value::Varchar("zz");  // same length: in place
  EXPECT_EQ(row[2].string_value().data(), tail);
  EXPECT_EQ(row[0].string_value(), "zz");

  row[0] = Value::Varchar("grown string");
  EXPECT_EQ(row.BlockBytes(), 8u + 8u + 24u + 12u + 4u);
  EXPECT_EQ(row[0].string_value(), "grown string");
  EXPECT_EQ(row[1].AsInt64(), 7);
  EXPECT_EQ(row[2].string_value(), "bbbb");

  row[2] = Value::Varchar("");
  EXPECT_EQ(row.BlockBytes(), 8u + 8u + 24u + 12u);
  ExpectSame(row[2], Value::Varchar(""));
  row[0] = Value::Null(DataType::kVarchar);
  EXPECT_EQ(row.BlockBytes(), 8u + 8u + 24u);
  ExpectSame(row[0], Value::Null(DataType::kVarchar));
  EXPECT_EQ(row[1].AsInt64(), 7);
}

TEST(RowTest, CellRefAssignFromTheSameRow) {
  Row row{Value::Varchar("left"), Value::Varchar("a much longer right")};
  row[0] = row[1];  // repacks while reading the source cell
  EXPECT_EQ(row[0].string_value(), "a much longer right");
  row[1] = row[0];  // same length: overlapping in-place copy
  EXPECT_EQ(row[1].string_value(), "a much longer right");
  const Row& view = row;
  row[1] = view[0];
  EXPECT_EQ(row, (Row{Value::Varchar("a much longer right"),
                      Value::Varchar("a much longer right")}));
}

TEST(RowTest, ProjectAndExtend) {
  Row row{Value::BigInt(1), Value::Varchar("x"), Value::Int(3)};
  Row projected = row.Project({2, 1});
  EXPECT_EQ(projected, (Row{Value::Int(3), Value::Varchar("x")}));
  Row extended = row.Extended(Value::Varchar("tail"));
  ASSERT_EQ(extended.size(), 4u);
  EXPECT_EQ(extended[3].string_value(), "tail");
  EXPECT_EQ(extended[1].string_value(), "x");
}

TEST(RowTest, EqualityComparesCells) {
  // Like Value's ==: NULLs of different types, and integers of different
  // widths, compare equal.
  EXPECT_EQ((Row{Value::Null(DataType::kInt)}),
            (Row{Value::Null(DataType::kVarchar)}));
  EXPECT_EQ((Row{Value::Int(5)}), (Row{Value::BigInt(5)}));
  EXPECT_FALSE((Row{Value::Int(5)}) == (Row{Value::Int(5), Value::Int(5)}));
}

Value RandomValue(Random* rng) {
  static const char* const kStrings[] = {"", "a", "ab", "abc", "b", "ba"};
  switch (rng->Uniform(10)) {
    case 0:
      return Value::Null(static_cast<DataType>(1 + rng->Uniform(8)));
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::SmallInt(static_cast<int16_t>(rng->UniformRange(-3, 3)));
    case 3:
      return Value::Int(static_cast<int32_t>(rng->UniformRange(-3, 3)));
    case 4:
      return Value::BigInt(rng->UniformRange(-3, 3));
    case 5:
      return Value::Timestamp(rng->UniformRange(-3, 3));
    case 6:
      return Value::Double(static_cast<double>(rng->UniformRange(-6, 6)) / 2);
    case 7:
      return Value::Varchar(kStrings[rng->Uniform(6)]);
    default: {
      std::string s = kStrings[rng->Uniform(6)];
      return Value::Varbinary(std::vector<uint8_t>(s.begin(), s.end()));
    }
  }
}

TEST(RowTest, CellCompareMatchesValueCompare) {
  Random rng(TestCaseSeed(0));
  for (int round = 0; round < 200; round++) {
    std::vector<Value> values;
    for (int i = 0; i < 12; i++) values.push_back(RandomValue(&rng));
    Row row(values);
    for (size_t i = 0; i < values.size(); i++) {
      ExpectSame(row[i], values[i]);
      for (size_t j = 0; j < values.size(); j++) {
        int want = values[i].Compare(values[j]);
        ASSERT_EQ(row[i].Compare(row[j]), want)
            << "seed " << TestSeed() << " round " << round << ": "
            << values[i].ToString() << " vs " << values[j].ToString();
        ASSERT_EQ(row[i].Compare(values[j]), want);
        ASSERT_EQ(values[i].Compare(row[j]), want);
      }
    }
  }
}

}  // namespace
}  // namespace sqlledger

// Packed Row: round trips of every type, exact block sizes of the
// variable-width cell layout, every DOUBLE form and the long-row header
// through every path, copy and move semantics, CellRef writes (in place
// and repacking), a tpcc order_line version's size, and three seeded
// property tests: a Cell read from a row orders exactly like the Value it
// was packed from, every type at every width boundary survives packing,
// reads, writes and the WAL encoding, and CompareKeys on packed keys
// orders like a loop of Cell::Compare. SQLLEDGER_TEST_SEED picks the
// property tests' values.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/row.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/hex.h"
#include "util/random.h"
#include "workload/tpcc.h"

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

// The bytes a cell takes in a block, written out from the layout (row.h)
// independently of the code under test: a tag, then a 0/1/2/4/8-byte
// payload, then a string's bytes. A DOUBLE that is k/100 (Cell::DecimalOf)
// with zigzag(k) in 4 bytes or fewer stores zigzag(k), any other its bits.
size_t ExpectedCellBytes(const Cell& v) {
  auto width = [](uint64_t u, bool allow8) -> size_t {
    if (u == 0) return 0;
    if (u <= 0xFF) return 1;
    if (u <= 0xFFFF) return 2;
    if (u <= 0xFFFFFFFF || !allow8) return 4;
    return 8;
  };
  if (v.is_null()) return 1;
  switch (v.type()) {
    case DataType::kVarchar:
    case DataType::kVarbinary: {
      size_t n = v.string_value().size();
      return 1 + width(n, false) + n;
    }
    case DataType::kDouble: {
      int64_t k;
      if (!Cell::DecimalOf(v.double_value(), &k) ||
          ZigZagEncode64(k) > 0xFFFFFFFF)
        return 9;
      return 1 + width(ZigZagEncode64(k), false);
    }
    default:
      return 1 + width(ZigZagEncode64(v.AsInt64()), true);
  }
}

size_t ExpectedBlockBytes(const std::vector<Value>& values) {
  if (values.empty()) return 0;
  size_t cells = 0;
  for (const Value& v : values) cells += ExpectedCellBytes(v);
  // The 4-byte header, and a size word in front of cells of 64 KiB or more.
  return (cells > 0xFFFF ? 8 : 4) + cells;
}

TEST(RowTest, BlockIsExactlySized) {
  // Header; BIGINT 1 (zigzag 2) in one byte; "hello" behind a one-byte
  // length; a NULL is its tag alone.
  Row row{Value::BigInt(1), Value::Varchar("hello"),
          Value::Null(DataType::kInt)};
  EXPECT_EQ(row.BlockBytes(), 4u + 2u + 7u + 1u);
  // Zeros take no payload, of any type.
  Row zeros{Value::BigInt(0), Value::Bool(false), Value::Double(0.0),
            Value::Varchar(""), Value::Timestamp(0)};
  EXPECT_EQ(zeros.BlockBytes(), 4u + 5u);
  // Each width at its limit: 127 is the last one-byte integer, -32768 the
  // last two-byte one, INT32_MIN fits four bytes, INT64_MIN needs eight.
  Row wide{Value::BigInt(127),      Value::BigInt(128),
           Value::SmallInt(-32768), Value::SmallInt(32767),
           Value::Int(INT32_MIN),   Value::BigInt(int64_t{1} << 31),
           Value::BigInt(INT64_MIN)};
  EXPECT_EQ(wide.BlockBytes(), 4u + 2u + 3u + 3u + 3u + 5u + 9u + 9u);
  // A DOUBLE that is k/100 stores zigzag(k) at the same limits: 1.27 and
  // 1.28 are k = 127 and 128, -327.68 and 327.68 are k = -32768 and 32768,
  // -21474836.48 is k = INT32_MIN, 21474836.48 (k = 2^31) and 2^53/100
  // are 8 raw bytes, as are -0.0 and a sum off the grid of hundredths.
  Row doubles{Value::Double(1.27),         Value::Double(1.28),
              Value::Double(-327.68),      Value::Double(327.68),
              Value::Double(-21474836.48), Value::Double(21474836.48),
              Value::Double(90071992547409.92), Value::Double(-0.0),
              Value::Double(0.1 + 0.2)};
  EXPECT_EQ(doubles.BlockBytes(),
            4u + 2u + 3u + 3u + 5u + 5u + 9u + 9u + 9u + 9u);
  // String lengths: one byte up to 255, two up to 65535, then four.
  Row strings{Value::Varchar(std::string(255, 'a')),
              Value::Varchar(std::string(256, 'b')),
              Value::Varbinary(std::vector<uint8_t>(65536, 0xCD))};
  // Cells of 64 KiB or more: the header and a size word in front of it.
  EXPECT_EQ(strings.BlockBytes(),
            8u + (2u + 255u) + (3u + 256u) + (5u + 65536u));
  // The header holds cell bytes up to 65535.
  EXPECT_EQ(Row{Value::Varbinary(std::vector<uint8_t>(65532, 1))}.BlockBytes(),
            4u + 65535u);
  EXPECT_EQ(Row{Value::Varbinary(std::vector<uint8_t>(65533, 1))}.BlockBytes(),
            8u + 65536u);
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

TEST(RowTest, SameWidthWriteIsInPlace) {
  Row row{Value::BigInt(1), Value::Varchar("keep"),
          Value::Null(DataType::kBigInt)};
  const char* str = row[1].string_value().data();
  EXPECT_EQ(row.BlockBytes(), 4u + 2u + 6u + 1u);
  row[0] = Value::BigInt(-1);              // zigzag 1: still one byte
  row[0] = Value::Int(100);                // another type, the same width
  row[2] = Value::Null(DataType::kInt);    // NULL to NULL
  row[1] = Value::Varbinary({1, 2, 3, 4});  // the same length
  // Every write kept the block, so the string bytes did not move.
  EXPECT_EQ(row[1].string_value().data(), str);
  EXPECT_EQ(row.BlockBytes(), 4u + 2u + 6u + 1u);
  ExpectSame(row[0], Value::Int(100));
  ExpectSame(row[1], Value::Varbinary({1, 2, 3, 4}));
  ExpectSame(row[2], Value::Null(DataType::kInt));
}

TEST(RowTest, WidthChangingWritesRepack) {
  Row row{Value::BigInt(1), Value::Varchar("keep"),
          Value::Null(DataType::kBigInt)};
  const char* str = row[1].string_value().data();
  row[2] = Value::BigInt(42);  // NULL -> one byte, as a stamp would
  EXPECT_NE(row[1].string_value().data(), str);
  EXPECT_EQ(row.BlockBytes(), 4u + 2u + 6u + 2u);
  row[0] = Value::BigInt(1 << 20);  // zigzag 2^21: four bytes
  EXPECT_EQ(row.BlockBytes(), 4u + 5u + 6u + 2u);
  row[0] = Value::Double(2.5);  // k = 250, zigzag 500: two bytes
  EXPECT_EQ(row.BlockBytes(), 4u + 3u + 6u + 2u);
  row[0] = Value::Double(0.1 + 0.2);  // off the grid: eight raw bytes
  EXPECT_EQ(row.BlockBytes(), 4u + 9u + 6u + 2u);
  row[2] = Value::Null(DataType::kBigInt);
  EXPECT_EQ(row.BlockBytes(), 4u + 9u + 6u + 1u);
  ExpectSame(row[0], Value::Double(0.1 + 0.2));
  EXPECT_EQ(row[1].string_value(), "keep");
  ExpectSame(row[2], Value::Null(DataType::kBigInt));
}

TEST(RowTest, StringWritesRepackOnlyWhenTheLengthChanges) {
  Row row{Value::Varchar("aa"), Value::BigInt(7), Value::Varchar("bbbb")};
  EXPECT_EQ(row.BlockBytes(), 4u + 4u + 2u + 6u);
  const char* tail = row[2].string_value().data();
  row[0] = Value::Varchar("zz");  // same length: in place
  EXPECT_EQ(row[2].string_value().data(), tail);
  EXPECT_EQ(row[0].string_value(), "zz");

  row[0] = Value::Varchar("grown string");
  EXPECT_NE(row[2].string_value().data(), tail);
  EXPECT_EQ(row.BlockBytes(), 4u + 14u + 2u + 6u);
  EXPECT_EQ(row[0].string_value(), "grown string");
  EXPECT_EQ(row[1].AsInt64(), 7);
  EXPECT_EQ(row[2].string_value(), "bbbb");

  row[2] = Value::Varchar("");
  EXPECT_EQ(row.BlockBytes(), 4u + 14u + 2u + 1u);
  ExpectSame(row[2], Value::Varchar(""));
  row[0] = Value::Null(DataType::kVarchar);
  EXPECT_EQ(row.BlockBytes(), 4u + 1u + 2u + 1u);
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

TEST(RowTest, ProjectExtendAndWith) {
  Row row{Value::BigInt(1), Value::Varchar("x"), Value::Int(3)};
  Row projected = row.Project({2, 1});
  EXPECT_EQ(projected, (Row{Value::Int(3), Value::Varchar("x")}));
  Row extended = row.Extended(Value::Varchar("tail"));
  ASSERT_EQ(extended.size(), 4u);
  EXPECT_EQ(extended[3].string_value(), "tail");
  EXPECT_EQ(extended[1].string_value(), "x");
  EXPECT_EQ(extended.BlockBytes(), row.BlockBytes() + 6u);
  EXPECT_EQ(Row().Extended(Value::Int(7)), (Row{Value::Int(7)}));
  // With packs replacements at any ordinals, as RetireVersion's stamps.
  Row stamped = row.With(
      {{2, Value::BigInt(300)}, {0, Value::Null(DataType::kBigInt)}});
  ExpectSame(stamped[0], Value::Null(DataType::kBigInt));
  EXPECT_EQ(stamped[1].string_value(), "x");
  ExpectSame(stamped[2], Value::BigInt(300));
  EXPECT_EQ(stamped.BlockBytes(), 4u + 1u + 3u + 3u);
  EXPECT_EQ(row[2].AsInt64(), 3);  // the source row is unchanged
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

// Every type at each boundary of the cell widths: integers around the
// 0/1/2/4/8-byte zigzag limits, +-0.0 and NaN, strings whose lengths cross
// the 1/2/4-byte length limits, and NULLs.
std::vector<Value> BoundaryValues() {
  std::vector<Value> out;
  const int64_t ints[] = {0,
                          1,
                          -1,
                          127,
                          128,
                          -128,
                          -129,
                          255,
                          256,
                          32767,
                          32768,
                          -32768,
                          -32769,
                          (int64_t{1} << 31) - 1,
                          int64_t{1} << 31,
                          -(int64_t{1} << 31),
                          -(int64_t{1} << 31) - 1,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  for (int64_t v : ints) {
    out.push_back(Value::BigInt(v));
    out.push_back(Value::Timestamp(v));
    if (v == static_cast<int32_t>(v))
      out.push_back(Value::Int(static_cast<int32_t>(v)));
    if (v == static_cast<int16_t>(v))
      out.push_back(Value::SmallInt(static_cast<int16_t>(v)));
  }
  out.push_back(Value::Bool(false));
  out.push_back(Value::Bool(true));
  for (double d : {0.0, -0.0, std::nan(""), 1.0, -2.5,
                   std::numeric_limits<double>::denorm_min()})
    out.push_back(Value::Double(d));
  for (size_t n : {0, 1, 255, 256, 65535, 65536}) {
    const char fill = static_cast<char>('a' + n % 26);
    out.push_back(Value::Varchar(std::string(n, fill)));
    out.push_back(Value::Varbinary(std::vector<uint8_t>(n, 0xF0)));
  }
  for (int t = 1; t <= 8; t++)
    out.push_back(Value::Null(static_cast<DataType>(t)));
  return out;
}

// Checks `row` against `want` cell by cell, by operator[] and by iteration,
// and its block size against the layout.
void ExpectRowIs(const Row& row, const std::vector<Value>& want,
                 const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(row.size(), want.size());
  EXPECT_EQ(row.BlockBytes(), ExpectedBlockBytes(want));
  size_t i = 0;
  for (Cell c : row) {
    ExpectSame(c, want[i]);
    ExpectSame(row[i], want[i]);
    EXPECT_EQ(c.string_value(), want[i].string_value());
    i++;
  }
  EXPECT_EQ(i, want.size());
}

TEST(RowTest, WidthBoundariesSurviveEveryPath) {
  const std::vector<Value> pool = BoundaryValues();
  Random rng(TestCaseSeed(1));
  for (int round = 0; round < 300; round++) {
    const std::string where =
        "seed " + std::to_string(TestSeed()) + " round " +
        std::to_string(round);
    std::vector<Value> want;
    size_t n = 1 + rng.Uniform(16);
    for (size_t k = 0; k < n; k++)
      want.push_back(pool[rng.Uniform(pool.size())]);
    Row row = Row::Pack(n, [&](size_t k) -> const Cell& { return want[k]; });
    ExpectRowIs(row, want, where + " pack");

    // A write that keeps the cell's bytes stays in place (a string's bytes
    // do not move); any other repacks (they do).
    for (int w = 0; w < 4; w++) {
      size_t i = rng.Uniform(n);
      const bool same = w % 2 == 0;
      std::vector<const Value*> fits;
      for (const Value& v : pool) {
        if ((ExpectedCellBytes(v) == ExpectedCellBytes(want[i])) == same)
          fits.push_back(&v);
      }
      const Value& v = *fits[rng.Uniform(fits.size())];
      const char* marker = nullptr;
      size_t marked = n;
      for (size_t j = 0; j < n; j++) {
        if (j != i && want[j].string_value().size() != 0) {
          marker = row[j].string_value().data();
          marked = j;
          break;
        }
      }
      row[i] = v;
      want[i] = v;
      ExpectRowIs(row, want, where + " write " + std::to_string(w));
      if (marker != nullptr) {
        if (same)
          EXPECT_EQ(row[marked].string_value().data(), marker) << where;
        else
          EXPECT_NE(row[marked].string_value().data(), marker) << where;
      }
    }

    // The WAL bytes are the count, then the values' bytes, and decode to
    // the same block.
    std::vector<uint8_t> bytes, value_bytes;
    EncodeRow(row, &bytes);
    PutVarint32(&value_bytes, static_cast<uint32_t>(want.size()));
    for (const Value& v : want) v.EncodeTo(&value_bytes);
    ASSERT_EQ(bytes, value_bytes) << where;
    Decoder dec{Slice(bytes)};
    auto decoded = DecodeRow(&dec);
    ASSERT_TRUE(decoded.ok()) << where;
    EXPECT_TRUE(dec.done()) << where;
    ExpectRowIs(*decoded, want, where + " decode");
  }
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

int Sign(int r) { return (r > 0) - (r < 0); }

// The reference key order: Cell::Compare cell by cell, then the shorter key
// first.
int ReferenceCompare(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); i++) {
    int r = a[i].Compare(b[i]);
    if (r != 0) return r;
  }
  return Sign(static_cast<int>(a.size()) - static_cast<int>(b.size()));
}

// A key cell: any of the 8 types or a NULL of one, drawn from few values so
// that ties are common: negatives, +-0.0, empty strings and integers of
// every payload width (which compare numerically across types) included.
Value RandomKeyCell(Random* rng) {
  const int64_t small = rng->UniformRange(-2, 2);
  switch (rng->Uniform(9)) {
    case 0:
      return Value::Null(static_cast<DataType>(1 + rng->Uniform(8)));
    case 1:
      return Value::Bool(rng->Uniform(2) == 1);
    case 2:
      return Value::SmallInt(static_cast<int16_t>(small));
    case 3:
      return Value::Int(static_cast<int32_t>(small * 70000));
    case 4: {
      const int64_t edges[] = {std::numeric_limits<int64_t>::min() + 2,
                               0, std::numeric_limits<int64_t>::max() - 2};
      return Value::BigInt(rng->Uniform(2) == 0 ? small * 5000000000
                                                : edges[rng->Uniform(3)] +
                                                      small);
    }
    case 5: {
      const double doubles[] = {-0.0, 0.0, -1.5, 1.5, -1e300};
      return Value::Double(doubles[rng->Uniform(5)]);
    }
    case 6: {
      const char* strings[] = {"", "a", "ab", "b"};
      return Value::Varchar(strings[rng->Uniform(4)]);
    }
    case 7:
      return Value::Varbinary(
          std::vector<uint8_t>(rng->Uniform(3), static_cast<uint8_t>(small)));
    default:
      return Value::Timestamp(small);
  }
}

// CompareKeys on packed keys equals the reference loop over their Values()
// and is antisymmetric. Keys have 0-4 cells; half the pairs share a prefix
// of random length, so equal prefixes of different lengths are common.
TEST(KeyCompareTest, PackedKeysOrderLikeCellCompare) {
  Random rng(TestCaseSeed(3));
  int less = 0, equal = 0, greater = 0;
  for (int round = 0; round < 5000; round++) {
    std::vector<Value> a(rng.Uniform(5)), b;
    for (Value& v : a) v = RandomKeyCell(&rng);
    if (rng.Uniform(2) == 0)
      b.assign(a.begin(), a.begin() + rng.Uniform(a.size() + 1));
    const size_t b_size = b.size() + rng.Uniform(5 - b.size());
    while (b.size() < b_size) b.push_back(RandomKeyCell(&rng));
    const KeyTuple ka = Row(a), kb = Row(b);
    const int got = Sign(CompareKeys(ka, kb));
    ASSERT_EQ(got, Sign(ReferenceCompare(ka.Values(), kb.Values())))
        << "seed " << TestSeed() << " round " << round;
    ASSERT_EQ(Sign(CompareKeys(kb, ka)), -got)
        << "seed " << TestSeed() << " round " << round;
    ASSERT_EQ(CompareKeys(ka, ka), 0);
    ASSERT_EQ(KeyTupleLess()(ka, kb), got < 0);
    (got < 0 ? less : got == 0 ? equal : greater)++;
  }
  // Every outcome occurs, ties included.
  EXPECT_GT(less, 0);
  EXPECT_GT(equal, 0);
  EXPECT_GT(greater, 0);
}

// A TPC-C order_line version as the bench's tpcc workload writes it (16
// warehouses, 100 items): eight user cells of small integers, a DOUBLE and
// a NULL delivery date, the start stamps and NULL end stamps.
TEST(RowTest, TpccOrderLineVersionIsSmall) {
  LedgerDatabaseOptions options;
  options.enable_ledger = true;
  auto db = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db.ok());
  TpccConfig config;
  config.warehouses = 16;
  TpccWorkload tpcc(db->get(), config);
  ASSERT_TRUE(tpcc.Setup().ok());
  Random rng(TestCaseSeed(2));
  for (int i = 0; i < 20; i++) ASSERT_TRUE(tpcc.NewOrder(&rng).ok());
  TableStore* lines = (*db)->GetStoreForTesting("order_line");
  ASSERT_NE(lines, nullptr);
  ASSERT_GT(lines->row_count(), 0u);
  for (BTree::Iterator it = lines->Scan(); it.Valid(); it.Next()) {
    const Row& version = it.value();
    ASSERT_EQ(version.size(), 12u);
    EXPECT_LE(version.BlockBytes(), 32u);
  }
}

// EncodedRowBound holds at each cell's widest encoding against its block
// bytes, with no predecessor, against itself and against adversarial
// predecessors of the same tags: a +0.0 DOUBLE (a tag alone in the block,
// a 1-byte decimal), a DOUBLE whose k takes 4 block bytes (a 5-byte
// varint, behind a tag when whole), a DOUBLE off the grid of hundredths (8
// bytes in the block, 9 whole, 8 changed from a NaN), an 8-byte integer (a
// 10-byte varint), a zero changed from INT64_MIN (a 10-byte difference),
// NULL against a value and back, and an empty string against a long one.
TEST(RowTest, EncodedRowBoundCoversTheEncoding) {
  const std::string long_string(300, 's');
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  const Value off_grid = Value::Double(0.1 + 0.2);
  const Value four_byte_k = Value::Double(-21474836.48);  // zigzag 2^32 - 1
  // (row, predecessors besides none and the row itself)
  std::vector<std::pair<Row, std::vector<Row>>> cases = {
      {Row{}, {}},
      {Row{Value::Double(0.0)},
       {Row{nan}, Row{Value::Null(DataType::kDouble)}}},
      {Row(std::vector<Value>(300, Value::Double(0.0))),
       {Row(std::vector<Value>(300, nan))}},
      {Row{off_grid},
       {Row{nan}, Row{Value::Double(1.0)},
        Row{Value::Null(DataType::kDouble)}}},
      {Row(std::vector<Value>(300, off_grid)),
       {Row(std::vector<Value>(300, nan))}},
      {Row{four_byte_k},
       {Row{nan}, Row{Value::Double(1.0)},
        Row{Value::Null(DataType::kDouble)}}},
      {Row(std::vector<Value>(300, four_byte_k)),
       {Row(std::vector<Value>(300, nan)),
        Row(std::vector<Value>(300, Value::Null(DataType::kDouble)))}},
      {Row{Value::BigInt(0)},
       {Row{Value::BigInt(INT64_MIN)}, Row{Value::BigInt(INT64_MAX)}}},
      {Row(std::vector<Value>(300, Value::BigInt(0))),
       {Row(std::vector<Value>(300, Value::BigInt(INT64_MIN)))}},
      {Row{Value::BigInt(INT64_MIN), Value::Varchar(""),
           Value::Null(DataType::kInt), Value::Double(1.5)},
       {Row{Value::BigInt(INT64_MAX), Value::Varchar(long_string),
            Value::Int(INT32_MIN), Value::Null(DataType::kDouble)}}},
      {Row{Value::Varchar(long_string), Value::Null(DataType::kBigInt)},
       {Row{Value::Varchar(""), Value::BigInt(INT64_MIN)}}},
      {Row(EveryType()), {}}};
  for (const auto& [row, adversaries] : cases) {
    std::vector<const Row*> prevs = {nullptr, &row};
    for (const Row& prev : adversaries) prevs.push_back(&prev);
    for (const Row* prev : prevs) {
      std::vector<uint8_t> bytes;
      EncodeRow(row, prev, &bytes);
      EXPECT_LE(bytes.size(), EncodedRowBound(row)) << row.size();
    }
  }
  // The bound is tight to the cell for 300 zeros changed from INT64_MIN:
  // a 2-byte count, 75 state bytes and 300 10-byte differences, against
  // 304 block bytes + 9 * 300 + 75 + 3.
  const Row& zeros = cases[8].first;
  std::vector<uint8_t> bytes;
  EncodeRow(zeros, &cases[8].second[0], &bytes);
  EXPECT_EQ(bytes.size(), 3077u);
  EXPECT_EQ(EncodedRowBound(zeros), 3082u);
  // 300 whole DOUBLEs whose k takes 4 block bytes: a 2-byte count, 75
  // state bytes and 300 6-byte cells, against 1504 + 9 * 300 + 75 + 3.
  bytes.clear();
  EncodeRow(cases[6].first, &cases[6].second[1], &bytes);
  EXPECT_EQ(bytes.size(), 1877u);
  EXPECT_EQ(EncodedRowBound(cases[6].first), 4282u);
}

// EncodeRow's exact bytes against a predecessor of the same width, one
// cell per state: the count, three bytes of 2-bit cell states (cell i at
// byte i/4, bits 2*(i%4)), then each cell that is not its predecessor's
// bytes. State 1 (same tag, not NULL, another value) writes no tag: an
// integer's zigzag difference, a string's length and bytes, a raw DOUBLE's
// 8 bytes. State 3 (a DOUBLE that is exactly k/100 over a non-NULL
// DOUBLE) writes no tag, the zigzag varint of k. State 2 writes the whole
// cell: a NULL becoming a value, a value becoming NULL, an INT becoming a
// BIGINT, a decimal DOUBLE over a NULL (its tag with bit 0x40, then k).
TEST(RowTest, EncodeRowWritesEachCellState) {
  const Row prev{Value::BigInt(100), Value::Varchar("abc"),
                 Value::Double(1.5), Value::Null(DataType::kInt),
                 Value::Int(7),       Value::Timestamp(1000),
                 Value::Int(5),       Value::Int(5),
                 Value::Double(1.5),  Value::Double(1.5),
                 Value::Null(DataType::kDouble)};
  const Row row{Value::BigInt(101), Value::Varchar("abd"),
                Value::Double(1.5), Value::Int(3),
                Value::Int(7),      Value::Timestamp(990),
                Value::Null(DataType::kInt), Value::BigInt(5),
                Value::Double(-0.0), Value::Double(12.34),
                Value::Double(0.25)};
  std::vector<uint8_t> bytes;
  EncodeRow(row, &prev, &bytes);
  EXPECT_EQ(HexEncode(Slice(bytes)),
            "0b"                 // eleven cells
            "85" "a4" "2d"       // states 1 1 0 2 | 0 1 2 2 | 1 3 2
            "02"                 // BIGINT 101 = 100 + 1
            "03616264"           // VARCHAR 'abd', no tag
            "0306"               // INT 3, whole: its predecessor is NULL
            "13"                 // TIMESTAMP 990 = 1000 - 10
            "83"                 // NULL INT, whole
            "040a"               // BIGINT 5, whole: the INT's tag differs
            "0000000000000080"   // DOUBLE -0.0, raw, no tag
            "a413"               // DOUBLE 12.34, decimal: zigzag(1234)
            "4532");             // DOUBLE 0.25, whole: 0x05 | 0x40, zigzag(25)
  Decoder dec{Slice(bytes)};
  auto decoded = DecodeRow(&dec, &prev);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(dec.done());
  ExpectRowIs(*decoded, row.Values(), "decode");

  // State 3 over a NULL or over a cell that is no DOUBLE, a set unused
  // state bit and a state-1 cell whose predecessor is NULL are Corruption.
  auto corrupt = [&](size_t byte, uint8_t value) {
    std::vector<uint8_t> bad = bytes;
    bad[byte] = value;
    Decoder bad_dec{Slice(bad)};
    return DecodeRow(&bad_dec, &prev).status().IsCorruption();
  };
  EXPECT_TRUE(corrupt(1, 0xC5));  // cell 3 in state 3 over a NULL INT
  EXPECT_TRUE(corrupt(1, 0x87));  // cell 0 in state 3 over a BIGINT
  EXPECT_TRUE(corrupt(3, 0x6d));  // an unused bit past cell 10
  EXPECT_TRUE(corrupt(3, 0xad));
  EXPECT_TRUE(corrupt(1, 0x45));  // cell 3 changed from a NULL
}

// Doubles at every edge of the decimal form round-trip bit for bit, whole
// and against predecessors that are a NULL DOUBLE, a raw DOUBLE, a decimal
// DOUBLE and an INT, and take the form their value has: k = llround(d *
// 100) with |k| <= 2^53 and k / 100.0 exactly d. A decimal whole cell or
// state-3 cell whose k is past 2^53, or is not the one k of its value, and
// a raw cell of a decimal value are Corruption.
TEST(RowTest, AdversarialDoublesRoundTripBitForBit) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double nan_with_payload = std::bit_cast<double>(0x7ff80000deadbeefULL);
  // 2^53 / 100 and (2^53 + 1) / 100, as the nearest doubles.
  const double k_max = 90071992547409.92, k_past = 90071992547409.93;
  const std::pair<double, bool> cases[] = {  // (value, decimal)
      {0.0, true},
      {-0.0, false},
      {nan_with_payload, false},
      {kInf, false},
      {-kInf, false},
      {std::numeric_limits<double>::denorm_min(), false},
      {std::numeric_limits<double>::max(), false},
      {0.1, true},
      {0.1 + 0.2, false},
      {0.001, false},
      {k_max, true},
      {-k_max, true},
      {k_past, false},
      {-k_past, false},
  };
  const std::vector<Row> prevs = {Row{Value::Null(DataType::kDouble)},
                                  Row{Value::Double(0.1 + 0.2)},
                                  Row{Value::Double(1.0)},
                                  Row{Value::Int(1)}};
  for (const auto& [d, decimal] : cases) {
    SCOPED_TRACE(std::bit_cast<uint64_t>(d));
    int64_t k;
    EXPECT_EQ(Cell::DecimalOf(d, &k), decimal);
    const Row row{Value::Double(d)};
    std::vector<const Row*> against = {nullptr};
    for (const Row& p : prevs) against.push_back(&p);
    for (const Row* prev : against) {
      std::vector<uint8_t> bytes;
      EncodeRow(row, prev, &bytes);
      Decoder dec{Slice(bytes)};
      auto got = DecodeRow(&dec, prev);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(dec.done());
      EXPECT_EQ(std::bit_cast<uint64_t>((*got)[0].double_value()),
                std::bit_cast<uint64_t>(d));
      EXPECT_LE(bytes.size(), EncodedRowBound(row));
    }
  }

  // One cell, whole and in state 3 against a raw DOUBLE, logged as decimal
  // with zigzag payload `z`; and the raw cell of 1.0, which is decimal.
  auto decode = [](std::vector<uint8_t> bytes, const Row* prev) {
    Decoder dec{Slice(bytes)};
    return DecodeRow(&dec, prev).status();
  };
  const Row raw_prev{Value::Double(0.1 + 0.2)};
  auto whole = [&](uint64_t z) {
    std::vector<uint8_t> bytes = {0x01, 0x45};
    PutVarint64(&bytes, z);
    return decode(bytes, nullptr);
  };
  auto changed = [&](uint64_t z) {
    std::vector<uint8_t> bytes = {0x01, 0x03};
    PutVarint64(&bytes, z);
    return decode(bytes, &raw_prev);
  };
  constexpr int64_t kLimit = int64_t{1} << 53;
  for (const int64_t k : {kLimit + 1, -kLimit - 1, INT64_MAX, INT64_MIN}) {
    SCOPED_TRACE(k);
    EXPECT_TRUE(whole(ZigZagEncode64(k)).IsCorruption());
    EXPECT_TRUE(changed(ZigZagEncode64(k)).IsCorruption());
  }
  // k = 2^53 - 2 has the double of k = 2^53 - 1, its one k.
  EXPECT_TRUE(whole(ZigZagEncode64(kLimit - 2)).IsCorruption());
  EXPECT_TRUE(whole(ZigZagEncode64(kLimit - 1)).ok());
  EXPECT_TRUE(whole(ZigZagEncode64(kLimit)).ok());
  EXPECT_TRUE(changed(ZigZagEncode64(-kLimit)).ok());
  EXPECT_TRUE(decode({0x01, 0x05, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, nullptr)
                  .IsCorruption());
  EXPECT_TRUE(decode({0x01, 0x01, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, &raw_prev)
                  .IsCorruption());
  // A decimal bit on a cell that is no non-NULL DOUBLE.
  EXPECT_TRUE(decode({0x01, 0x44, 0x02}, nullptr).IsCorruption());
  EXPECT_TRUE(decode({0x01, 0xc5}, nullptr).IsCorruption());
}

// Every DOUBLE form packs to the cell its rule names (row.h): +0.0 no
// payload, a k whose zigzag fits 1, 2 or 4 bytes that many, and -0.0, NaN
// payloads, infinities, k past 4 bytes (up to 2^53) and sums that drifted
// off the grid of hundredths 8 raw bytes. Each keeps its bits through
// Pack, Project, With, Extended, CellRef assignment over every other form
// (in place or repacking) and EncodeRow -> DecodeRow, whole and against
// every other form, and Compare and SameBytes on the packed cells agree
// with the values'.
TEST(RowTest, EveryDoubleFormSurvivesEveryPath) {
  const double kInf = std::numeric_limits<double>::infinity();
  double drifted = 0;  // ten dimes, 0.9999999999999999
  for (int i = 0; i < 10; i++) drifted += 0.1;
  const std::pair<double, size_t> cases[] = {  // (value, payload bytes)
      {0.0, 0},
      {-0.0, 8},
      {std::bit_cast<double>(0x7ff80000deadbeefULL), 8},
      {std::bit_cast<double>(0xfff0000000000001ULL), 8},
      {kInf, 8},
      {-kInf, 8},
      {1.27, 1},
      {-1.28, 1},
      {1.28, 2},
      {-1.29, 2},
      {327.67, 2},
      {-327.68, 2},
      {327.68, 4},
      {-327.69, 4},
      {21474836.47, 4},
      {-21474836.48, 4},
      {21474836.48, 8},
      {-21474836.49, 8},
      {90071992547409.92, 8},  // k = 2^53
      {-90071992547409.92, 8},
      {drifted, 8},
      {0.1 + 0.2, 8},
  };
  for (const auto& [d, payload] : cases) {
    SCOPED_TRACE(std::bit_cast<uint64_t>(d));
    const Value v = Value::Double(d);
    auto bits_kept = [d = d](const Cell& c) {
      return c.type() == DataType::kDouble && !c.is_null() &&
             std::bit_cast<uint64_t>(c.double_value()) ==
                 std::bit_cast<uint64_t>(d);
    };
    const Row single{v};
    EXPECT_EQ(single.BlockBytes(), 4u + 1u + payload);
    EXPECT_EQ(single.BlockBytes(), ExpectedBlockBytes({v}));
    const Row row{Value::Int(7), v, Value::Varchar("tail")};
    EXPECT_TRUE(bits_kept(row[1]));
    EXPECT_TRUE(bits_kept(row.Project({1, 0})[0]));
    EXPECT_TRUE(bits_kept(row.With({{0, Value::Int(8)}})[1]));
    EXPECT_TRUE(bits_kept(
        Row{Value::Int(1), Value::Null(DataType::kDouble)}.With({{1, v}})[1]));
    EXPECT_TRUE(bits_kept(row.Extended(v)[3]));
    EXPECT_TRUE(bits_kept(single.Extended(Value::Int(1))[0]));
    EXPECT_EQ(row.Extended(v).BlockBytes(), row.BlockBytes() + 1 + payload);

    std::vector<uint8_t> bytes, value_bytes = {0x01};
    EncodeRow(single, &bytes);
    v.EncodeTo(&value_bytes);
    EXPECT_EQ(bytes, value_bytes);
    std::vector<const Row*> prevs = {nullptr};
    std::vector<Row> others;
    others.reserve(std::size(cases));
    for (const auto& [other, other_payload] : cases) {
      const Value o = Value::Double(other);
      others.push_back(Row{o});
      prevs.push_back(&others.back());
      const bool same = std::bit_cast<uint64_t>(other) ==
                        std::bit_cast<uint64_t>(d);
      EXPECT_EQ(single.begin().SameBytes(others.back().begin()), same);
      EXPECT_EQ(single[0].Compare(others.back()[0]), v.Compare(o));

      Row written{o, Value::Varchar("tail")};
      const char* tail = written[1].string_value().data();
      written[0] = v;
      EXPECT_TRUE(bits_kept(written[0]));
      EXPECT_EQ(written[1].string_value(), "tail");
      EXPECT_EQ(written.BlockBytes(), 4u + 2u + payload + 5u);
      EXPECT_EQ(written[1].string_value().data() == tail,
                payload == other_payload);
    }
    for (const Row* prev : prevs) {
      bytes.clear();
      EncodeRow(single, prev, &bytes);
      Decoder dec{Slice(bytes)};
      auto got = DecodeRow(&dec, prev);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(dec.done());
      EXPECT_TRUE(bits_kept((*got)[0]));
      EXPECT_TRUE(got->begin().SameBytes(single.begin()));
      EXPECT_EQ(got->BlockBytes(), single.BlockBytes());
    }
  }
}

// Cell::DecodeDecimal takes a k whose zigzag fits 4 bytes without building
// its double (value.cc): each such k is DecimalOf's k for k / 100.0. Every
// k near 0 and near both 4-byte limits, and random ones between.
TEST(RowTest, EveryFourByteKIsItsValuesK) {
  auto holds = [](int64_t k) {
    int64_t back = 0;
    return Cell::DecimalOf(static_cast<double>(k) / 100.0, &back) &&
           back == k;
  };
  constexpr int64_t kMin = INT32_MIN, kMax = INT32_MAX, kNear = 1 << 18;
  for (int64_t k = -kNear; k <= kNear; k++) ASSERT_TRUE(holds(k)) << k;
  for (int64_t k = kMin; k < kMin + kNear; k++) ASSERT_TRUE(holds(k)) << k;
  for (int64_t k = kMax - kNear; k <= kMax; k++) ASSERT_TRUE(holds(k)) << k;
  Random rng(TestCaseSeed(4));
  for (int i = 0; i < kNear; i++) {
    const int64_t k = rng.UniformRange(kMin, kMax);
    ASSERT_TRUE(holds(k)) << k;
  }
}

// A row whose cells take 64 KiB or more keeps their byte count in a size
// word in front of its 4-byte header. Such rows survive copies, copy and
// move assignment, Project, With, Extended, CellRef writes that cross the
// 64 KiB line both ways, EncodeRow -> DecodeRow and the comparisons, and
// LiveBytes counts their blocks with the size word.
TEST(RowTest, LongRowHeaderSurvivesEveryPath) {
  const std::string text(65531, 'L');  // a 65534-byte cell
  const int64_t live_bytes = Row::LiveBytes();
  {
    const Row short_row{Value::Varchar(text), Value::Null(DataType::kBigInt)};
    EXPECT_EQ(short_row.BlockBytes(), 4u + 65535u);
    Row long_row = short_row;
    long_row[1] = Value::BigInt(1);  // one more byte: the size word appears
    EXPECT_EQ(long_row.BlockBytes(), 8u + 65536u);
    EXPECT_EQ(long_row[0].string_value(), text);
    ExpectSame(long_row[1], Value::BigInt(1));
    ExpectSame(short_row[1], Value::Null(DataType::kBigInt));
    EXPECT_EQ(Row::LiveBytes(), live_bytes + 65539 + 65544);

    Row copy(long_row);
    EXPECT_TRUE(copy == long_row);
    EXPECT_EQ(copy.BlockBytes(), long_row.BlockBytes());
    EXPECT_NE(copy[0].string_value().data(), long_row[0].string_value().data());
    Row assigned{Value::Int(1)};
    assigned = long_row;
    EXPECT_TRUE(assigned == long_row);
    assigned = short_row;
    EXPECT_TRUE(assigned == short_row);
    EXPECT_EQ(assigned.BlockBytes(), short_row.BlockBytes());
    assigned = copy;
    Row moved = std::move(copy);
    EXPECT_TRUE(moved == assigned);
    EXPECT_LT(CompareKeys(short_row, long_row), 0);
    Row::Iterator a = long_row.begin(), b = moved.begin();
    EXPECT_TRUE(a.SameBytes(b));
    EXPECT_TRUE((++a).SameBytes(++b));

    EXPECT_EQ(long_row.Project({1, 0}).BlockBytes(), long_row.BlockBytes());
    EXPECT_EQ(long_row.Project({1, 0})[1].string_value(), text);
    EXPECT_EQ(long_row.Project({1}).BlockBytes(), 4u + 2u);
    EXPECT_TRUE(short_row.With({{1, Value::BigInt(1)}}) == long_row);
    EXPECT_EQ(short_row.With({{1, Value::BigInt(1)}}).BlockBytes(),
              long_row.BlockBytes());
    EXPECT_EQ(long_row.With({{1, Value::Null(DataType::kBigInt)}}).BlockBytes(),
              short_row.BlockBytes());
    const Row extended = short_row.Extended(Value::Int(5));
    EXPECT_EQ(extended.BlockBytes(), 8u + 65537u);
    EXPECT_EQ(extended[0].string_value(), text);
    ExpectSame(extended[2], Value::Int(5));

    long_row[1] = Value::Null(DataType::kBigInt);  // and back under 64 KiB
    EXPECT_EQ(long_row.BlockBytes(), short_row.BlockBytes());
    EXPECT_TRUE(long_row == short_row);
    long_row[1] = Value::BigInt(1);

    for (const Row* prev : {static_cast<const Row*>(nullptr), &short_row}) {
      std::vector<uint8_t> bytes;
      EncodeRow(moved, prev, &bytes);
      EXPECT_LE(bytes.size(), EncodedRowBound(moved));
      Decoder dec{Slice(bytes)};
      auto got = DecodeRow(&dec, prev);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(dec.done());
      EXPECT_EQ(got->BlockBytes(), moved.BlockBytes());
      EXPECT_TRUE(*got == moved);
      EXPECT_EQ((*got)[0].string_value(), text);
    }
  }
  EXPECT_EQ(Row::LiveBytes(), live_bytes);
}

// A row of exactly `bytes` (>= 5) block bytes: a VARBINARY of `fill`
// bytes, then NULLs (at 5 and 6 bytes, NULLs alone).
std::vector<Value> CellsOfBlockBytes(size_t bytes, uint8_t fill) {
  if (bytes < 7)
    return std::vector<Value>(bytes - 4, Value::Null(DataType::kInt));
  const size_t len = std::min<size_t>(bytes - 6, 255);
  std::vector<Value> cells = {
      Value::Varbinary(std::vector<uint8_t>(len, fill))};
  cells.resize(1 + (bytes - 6 - len), Value::Null(DataType::kInt));
  return cells;
}

class RowPoolTest : public TempDirTest {};

// Every pooled class a row can take, 8 through 512 bytes (a block holds
// at least a header and one tag, 5 bytes), and a malloc block above 512,
// through pack, copy, CellRef repack, copy-assignment and destruction.
// Each row's bytes carry their own fill, so two live blocks that
// overlapped would show. LiveBytes counts the rows' exact block bytes.
TEST_F(RowPoolTest, EveryClassRoundTrips) {
  const int64_t live = Row::LiveBlocks();
  const int64_t live_bytes = Row::LiveBytes();
  {
    std::vector<std::vector<Value>> want;
    std::vector<Row> rows;
    int64_t row_bytes = 0;
    for (size_t bytes = 5; bytes <= 520; bytes++) {
      want.push_back(CellsOfBlockBytes(bytes, static_cast<uint8_t>(bytes)));
      rows.emplace_back(want.back());
      ASSERT_EQ(rows.back().BlockBytes(), bytes);
      row_bytes += static_cast<int64_t>(bytes);
    }
    EXPECT_EQ(Row::LiveBlocks(), live + static_cast<int64_t>(rows.size()));
    EXPECT_EQ(Row::LiveBytes(), live_bytes + row_bytes);
    // Every row but the 8 malloc'd ones, 513 to 520 bytes, is in a slab.
    EXPECT_GE(Row::PoolSlabBytes(), row_bytes - 8 * 520);
    std::vector<Row> copies = rows;
    for (size_t i = 0; i < copies.size(); i++) {
      if (want[i][0].is_null()) continue;
      // A string one byte shorter repacks the row into a new block (of the
      // class below when the size was one past a multiple of 8), and back.
      const std::string_view bin = want[i][0].string_value();
      copies[i][0] = Value::Varbinary(
          std::vector<uint8_t>(bin.begin(), bin.end() - 1));
      ASSERT_LT(copies[i].BlockBytes(), rows[i].BlockBytes());
      copies[i][0] = want[i][0];
    }
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_TRUE(rows[i] == Row(want[i])) << rows[i].BlockBytes();
      EXPECT_TRUE(copies[i] == rows[i]) << rows[i].BlockBytes();
      if (want[i][0].is_null()) continue;
      const std::string_view bytes = rows[i][0].string_value();
      EXPECT_EQ(std::count(bytes.begin(), bytes.end(),
                           static_cast<char>(rows[i].BlockBytes())),
                static_cast<std::ptrdiff_t>(bytes.size()));
    }
    // Copy-assignment across classes and sizes, both ways.
    for (size_t i = 0; i < copies.size(); i++)
      copies[i] = rows[rows.size() - 1 - i];
    for (size_t i = 0; i < copies.size(); i++)
      EXPECT_TRUE(copies[i] == Row(want[rows.size() - 1 - i]));
    EXPECT_EQ(Row::LiveBlocks(),
              live + 2 * static_cast<int64_t>(rows.size()));
    EXPECT_EQ(Row::LiveBytes(), live_bytes + 2 * row_bytes);
  }
  EXPECT_EQ(Row::LiveBlocks(), live);
  EXPECT_EQ(Row::LiveBytes(), live_bytes);
}

TEST_F(RowPoolTest, CopyAssignReusesABlockOfTheSameClass) {
  // 17 and 23 bytes: both in the 24-byte class.
  Row a{Value::Varchar("abcdefghijk")};
  Row b{Value::Varchar("abcdefghijklmopqr")};
  ASSERT_EQ(a.BlockBytes(), 17u);
  ASSERT_EQ(b.BlockBytes(), 23u);
  const char* before = a[0].string_value().data();
  a = b;
  EXPECT_EQ(a[0].string_value().data(), before);
  EXPECT_EQ(a[0].string_value(), "abcdefghijklmopqr");
  Row c{Value::Varchar("abcdefghijklmn")};  // 20 bytes
  a = c;
  EXPECT_EQ(a[0].string_value().data(), before);
  EXPECT_EQ(a, c);
}

// Rows packed on one thread and destroyed on another: the blocks return
// to the pool and a third thread packs into them. Caches trade blocks 16 at
// a time, so with a multiple of 16 rows no block is left over from the
// first thread's refills to come between them.
TEST_F(RowPoolTest, RowsFreedOnAnotherThreadAreReused) {
  constexpr int kRows = 1024;
  const int64_t live = Row::LiveBlocks();
  // 109 bytes each, in the 112-byte class; the string starts 9 bytes in.
  auto make = [](int i) {
    return Row{Value::BigInt(1000 + i), Value::Varchar(std::string(100, 'p'))};
  };
  std::vector<Row> rows;
  std::thread([&] {
    for (int i = 0; i < kRows; i++) rows.push_back(make(i));
  }).join();
  std::set<const char*> blocks;
  for (const Row& r : rows) {
    ASSERT_EQ(r.BlockBytes(), 109u);
    blocks.insert(r[1].string_value().data());
  }
  EXPECT_EQ(Row::LiveBlocks(), live + kRows);
  std::thread([&] { rows.clear(); }).join();
  EXPECT_EQ(Row::LiveBlocks(), live);
  std::thread([&] {
    for (int i = 0; i < kRows; i++) rows.push_back(make(i));
  }).join();
  size_t reused = 0;
  for (const Row& r : rows) reused += blocks.count(r[1].string_value().data());
  EXPECT_EQ(reused, size_t{kRows});
  rows.clear();
  EXPECT_EQ(Row::LiveBlocks(), live);
}

// Threads that pack and free rows of every class and exit give their
// cached blocks and their counts back; rows they hand over stay counted
// until freed.
TEST_F(RowPoolTest, ExitedThreadsLeaveTheLiveCountWhereItWas) {
  constexpr size_t kThreads = 4, kKept = 100;
  const int64_t live = Row::LiveBlocks();
  std::vector<Row> kept(kThreads * kKept);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&kept, t] {
      std::vector<Row> mine;
      for (size_t i = 0; i < 600; i++)
        mine.emplace_back(CellsOfBlockBytes(5 + (i * 7 + t) % 600, 0x5A));
      for (size_t i = 1; i < mine.size(); i += 2) mine[i] = Row();
      for (size_t k = 0; k < kKept; k++)
        kept[t * kKept + k] = std::move(mine[2 * k]);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Row::LiveBlocks(), live + static_cast<int64_t>(kept.size()));
  kept.clear();
  EXPECT_EQ(Row::LiveBlocks(), live);
}

// The leak check LeakSanitizer no longer gives for row blocks: a ledger
// database that ran 200 transactions and a checkpoint frees every row
// block it allocated when it closes.
TEST_F(RowPoolTest, ClosedDatabaseLeavesNoLiveBlocks) {
  const int64_t live = Row::LiveBlocks();
  {
    LedgerDatabaseOptions options;
    options.data_dir = Path("db");
    options.database_id = "pooldb";
    options.block_size = 4;
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                   TableKind::kUpdateable)
                    .ok());
    for (int64_t i = 0; i < 200; i++) {
      auto txn = (*db)->Begin("pool");
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*db)->Insert(*txn, "t",
                                {Value::BigInt(i),
                                 Value::Varchar(std::string(i % 300, 'r'))})
                      .ok());
      if (i % 2 == 1) {
        ASSERT_TRUE((*db)->Update(*txn, "t",
                                  {Value::BigInt(i - 1), Value::Varchar("u")})
                        .ok());
      }
      if (i % 5 == 4) {
        ASSERT_TRUE((*db)->Delete(*txn, "t", {Value::BigInt(i - 2)}).ok());
      }
      ASSERT_TRUE((*db)->Commit(*txn).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_GT(Row::LiveBlocks(), live);
  }
  EXPECT_EQ(Row::LiveBlocks(), live);
}

#if defined(__SANITIZE_ADDRESS__)
// A freed block is poisoned, and a live one is addressable for exactly its
// row's bytes, so AddressSanitizer reports both reads as reads of memory
// the pool poisoned.
TEST(RowPoolDeathTest, ReadingAFreedOrOverrunBlockIsReported) {
  EXPECT_DEATH(
      {
        const char* freed;
        {
          Row row{Value::Varchar("freed")};
          freed = row[0].string_value().data();
        }
        EXPECT_EQ(*static_cast<const volatile char*>(freed), 'f');
      },
      "AddressSanitizer: use-after-poison");
  EXPECT_DEATH(
      {
        Row row{Value::Varchar("abcdefghijk")};  // 17 of a 24-byte block
        const char* end = row[0].string_value().data() + 11;
        EXPECT_EQ(*static_cast<const volatile char*>(end), 0);
      },
      "AddressSanitizer: use-after-poison");
}
#endif

}  // namespace
}  // namespace sqlledger

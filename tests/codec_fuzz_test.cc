// Seeded fuzzing of the WAL/checkpoint codec (Cell::EncodeTo, EncodeRow,
// DecodeRow with and without a predecessor, WalCommitRecord with its
// chained header, roots count and check, runs, sequence gaps, row,
// ledger-delete and table-definition ops): random rows of every type,
// NULLs, empty and 64 KiB strings, ±0.0, NaN, amounts of whole cents (a
// DOUBLE's decimal form) and running sums of them (often raw) round-trip
// exactly, alone and against predecessors whose cells repeat, change
// (integers across the INT64_MIN/INT64_MAX wrap), turn NULL or change type;
// the zigzag edges keep their value and their varint length; every strict
// prefix of an encoded row or commit record (decoded against its header
// chain) is Corruption, and so are cell state 3 over a predecessor cell
// that is NULL or no DOUBLE and a set unused state bit; and
// every single-byte flip decodes to OK or Corruption without crashing (the
// sanitizer builds check the reads). SQLLEDGER_TEST_SEED picks the values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

constexpr size_t kBigString = 64 * 1024;

/// An int64 of random magnitude, so every varint length shows up.
int64_t RandomInt64(Random* rng) {
  uint64_t v = rng->Next() >> rng->Uniform(64);
  return static_cast<int64_t>(rng->Bernoulli(0.5) ? v : ~v);
}

/// 25 % empty, `big_share` 64 KiB, else 1-48 bytes.
std::string RandomBytes(Random* rng, double big_share) {
  double p = rng->NextDouble();
  size_t len = p < 0.25                ? 0
               : p < 0.25 + big_share ? kBigString
                                      : 1 + rng->Uniform(48);
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>(rng->Next());
  return s;
}

Value RandomValueOfType(Random* rng, DataType type, double big_share) {
  if (rng->Bernoulli(0.15)) return Value::Null(type);
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case DataType::kSmallInt:
      return Value::SmallInt(static_cast<int16_t>(RandomInt64(rng)));
    case DataType::kInt:
      return Value::Int(static_cast<int32_t>(RandomInt64(rng)));
    case DataType::kBigInt:
      return Value::BigInt(RandomInt64(rng));
    case DataType::kDouble: {
      uint64_t bits = rng->Next();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case DataType::kVarchar:
      return Value::Varchar(RandomBytes(rng, big_share));
    case DataType::kVarbinary: {
      std::string s = RandomBytes(rng, big_share);
      return Value::Varbinary(std::vector<uint8_t>(s.begin(), s.end()));
    }
    case DataType::kTimestamp:
      return Value::Timestamp(RandomInt64(rng));
  }
  return Value();
}

Value RandomValue(Random* rng, double big_share) {
  return RandomValueOfType(
      rng, static_cast<DataType>(rng->UniformRange(1, 8)), big_share);
}

std::vector<Value> RandomValues(Random* rng, size_t max_cells,
                                double big_share) {
  std::vector<Value> values(rng->Uniform(max_cells + 1));
  for (Value& v : values) v = RandomValue(rng, big_share);
  return values;
}

/// Strict identity: tag, integral payload, double bits and string bytes
/// (Compare alone equates NULLs of different types and NaN with anything).
void ExpectSameCell(const Cell& got, const Cell& want, size_t i) {
  EXPECT_EQ(got.tag(), want.tag()) << "cell " << i;
  EXPECT_EQ(got.AsInt64(), want.AsInt64()) << "cell " << i;
  double g = got.double_value(), w = want.double_value();
  EXPECT_EQ(std::memcmp(&g, &w, sizeof(g)), 0) << "cell " << i;
  EXPECT_EQ(got.string_value(), want.string_value()) << "cell " << i;
}

Schema RandomSchema(Random* rng) {
  Schema schema;
  for (uint64_t i = 1 + rng->Uniform(8); i > 0; i--) {
    size_t ord = schema.AddColumn(
        rng->AlphaString(1 + rng->Uniform(10)),
        static_cast<DataType>(rng->UniformRange(1, 8)), rng->Bernoulli(0.5),
        static_cast<uint32_t>(rng->Uniform(64)), rng->Bernoulli(0.3));
    schema.mutable_column(ord)->dropped = rng->Bernoulli(0.2);
  }
  schema.SetPrimaryKey({0});
  schema.set_next_column_id(schema.next_column_id() +
                            static_cast<uint32_t>(rng->Uniform(4)));
  return schema;
}

std::vector<IndexDef> RandomIndexes(Random* rng, const Schema& schema) {
  std::vector<IndexDef> indexes(rng->Uniform(3));
  for (IndexDef& idx : indexes) {
    idx.name = rng->AlphaString(1 + rng->Uniform(10));
    for (uint64_t k = 1 + rng->Uniform(2); k > 0; k--)
      idx.ordinals.push_back(rng->Uniform(schema.num_columns()));
    idx.unique = rng->Bernoulli(0.5);
  }
  return indexes;
}

TableDefinition::Store RandomStore(Random* rng) {
  TableDefinition::Store store;
  store.name = rng->AlphaString(1 + rng->Uniform(12));
  store.schema = RandomSchema(rng);
  store.indexes = RandomIndexes(rng, store.schema);
  return store;
}

std::shared_ptr<const TableDefinition> RandomDefinition(Random* rng) {
  auto def = std::make_shared<TableDefinition>();
  def->kind = static_cast<uint8_t>(rng->Uniform(3));
  def->dropped = rng->Bernoulli(0.3);
  def->main = RandomStore(rng);
  if (rng->Bernoulli(0.5)) {
    def->history_table_id = static_cast<uint32_t>(1 + rng->Uniform(300));
    def->history = RandomStore(rng);
  }
  return def;
}

/// An amount of k whole cents, k of random magnitude up to 2^54 (past the
/// decimal form's 2^53 too).
double Amount(Random* rng) {
  return static_cast<double>(RandomInt64(rng) >> 9) / 100.0;
}

/// A value that tends to sit at a byte-identity edge: +0.0 and -0.0 (equal
/// by Compare, different bytes), NaN, an amount, a NULL of any type, or any
/// value.
Value EdgeValue(Random* rng) {
  switch (rng->Uniform(7)) {
    case 0:
      return Value::Double(0.0);
    case 1:
      return Value::Double(-0.0);
    case 2:
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    case 3:
      return Value::Double(Amount(rng));
    case 4:
      return Value::Null(static_cast<DataType>(rng->UniformRange(1, 8)));
    default:
      return RandomValue(rng, 0);
  }
}

bool IsIntegral(DataType t) {
  return t == DataType::kBool || t == DataType::kSmallInt ||
         t == DataType::kInt || t == DataType::kBigInt ||
         t == DataType::kTimestamp;
}

/// A value of `prev`'s type, often at an edge of a change from it: an
/// integer one step away or at its type's extreme (so a difference wraps
/// past INT64_MIN/INT64_MAX), ±0.0, NaN, an amount or `prev` plus one (a
/// running sum, which drifts off the grid of hundredths), an empty
/// string, or NULL.
Value ValueLike(Random* rng, const Value& prev) {
  const DataType type = prev.type();
  const uint64_t pick = rng->Uniform(4);
  if (pick == 0) return Value::Null(type);
  if (pick == 1) return RandomValueOfType(rng, type, 0);
  switch (type) {
    case DataType::kBool:
      return Value::Bool(!prev.bool_value());
    case DataType::kSmallInt:
      return Value::SmallInt(pick == 2 ? INT16_MIN : INT16_MAX);
    case DataType::kInt:
      return Value::Int(pick == 2 ? INT32_MIN : INT32_MAX);
    case DataType::kBigInt:
      return Value::BigInt(pick == 2 ? INT64_MIN : INT64_MAX);
    case DataType::kTimestamp:
      return Value::Timestamp(
          pick == 2 ? static_cast<int64_t>(
                          static_cast<uint64_t>(prev.AsInt64()) + 1)
                    : INT64_MIN);
    case DataType::kDouble:
      switch (rng->Uniform(4)) {
        case 0:
          return Value::Double(std::numeric_limits<double>::quiet_NaN());
        case 1:
          return Value::Double(rng->Bernoulli(0.5) ? 0.0 : -0.0);
        case 2:
          return Value::Double(Amount(rng));
        default:
          return Value::Double(
              (prev.is_null() ? 0.0 : prev.double_value()) + Amount(rng));
      }
    case DataType::kVarchar:
      return Value::Varchar("");
    case DataType::kVarbinary:
      return Value::Varbinary({});
  }
  return Value();
}

/// `width` cells, each (where `prev` has a cell at its position) a copy of
/// it 40 % of the time, a ValueLike it 35 %, else an EdgeValue of any type.
std::vector<Value> RelatedValues(Random* rng, const std::vector<Value>& prev,
                                 size_t width) {
  std::vector<Value> values(width);
  for (size_t i = 0; i < width; i++) {
    const double p = rng->NextDouble();
    values[i] = i >= prev.size() ? EdgeValue(rng)
                : p < 0.40       ? prev[i]
                : p < 0.75       ? ValueLike(rng, prev[i])
                                 : EdgeValue(rng);
  }
  return values;
}

/// The bytes Cell::EncodeTo writes for `v`.
std::vector<uint8_t> CellBytes(const Cell& v) {
  std::vector<uint8_t> bytes;
  v.EncodeTo(&bytes);
  return bytes;
}

/// Counts how many of a test's records exercise the optional parts of the
/// commit record: the roots check, ledger deletes and sequence gaps.
struct RecordCoverage {
  int checks = 0;
  int ledger_deletes = 0;
  int gaps = 0;

  void Add(const WalCommitRecord& rec) {
    checks += rec.ledger_tables > 0;
    for (const WalOp& op : rec.ops) {
      ledger_deletes += op.type == WalOpType::kLedgerDelete;
      gaps += op.seq_gap != 0;
    }
  }
};

WalCommitRecord RandomRecord(Random* rng) {
  WalCommitRecord rec;
  rec.txn_id = rng->Next() >> rng->Uniform(64);
  rec.commit_ts_micros = RandomInt64(rng);
  rec.user_name = rng->AlphaString(rng->Uniform(12));
  rec.block_id = rng->Uniform(1000);
  rec.block_ordinal = rng->Uniform(1000);
  // A varint count of every length; the check only follows a nonzero one.
  rec.ledger_tables = static_cast<uint32_t>(rng->Next() >> rng->Uniform(64));
  if (rng->Bernoulli(0.3)) rec.ledger_tables = 0;
  if (rec.ledger_tables > 0) rec.roots_check = rng->Next();
  // A few table ids, and tuples often like the one before, so that tuples
  // find predecessors and repeat some of their cells.
  std::vector<Value> last;
  for (uint64_t i = 1 + rng->Uniform(8); i > 0; i--) {
    WalOp op;
    op.type = static_cast<WalOpType>(rng->UniformRange(1, 5));
    op.table_id = static_cast<uint32_t>(
        rng->Bernoulli(0.7) ? rng->Uniform(3) : rng->Uniform(300));
    if (op.type == WalOpType::kDefineTable) {
      op.definition = RandomDefinition(rng);
      rec.ops.push_back(std::move(op));
      continue;
    }
    if (rng->Bernoulli(0.3))
      op.seq_gap = std::max<uint64_t>(1, rng->Next() >> rng->Uniform(64));
    const bool deletes = op.type == WalOpType::kDelete ||
                         op.type == WalOpType::kLedgerDelete;
    const size_t max_cells = deletes ? 3 : 12;
    std::vector<Value> values =
        !last.empty() && rng->Bernoulli(0.6)
            ? RelatedValues(rng, last,
                            rng->Bernoulli(0.7) ? last.size()
                                                : rng->Uniform(max_cells + 1))
            : RandomValues(rng, max_cells, 0);
    (deletes ? op.key : op.new_row) = Row(values);
    last = std::move(values);
    rec.ops.push_back(std::move(op));
  }
  return rec;
}

TEST(CodecFuzzTest, RandomRowsRoundTrip) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  Random rng(TestCaseSeed(1));
  std::vector<std::vector<Value>> rows;
  std::vector<uint8_t> buf;
  for (int r = 0; r < 300; r++) {
    rows.push_back(RandomValues(&rng, 24, 0.02));
    size_t start = buf.size();
    EncodeRow(Row(rows.back()), &buf);
    // A packed row encodes as its count, then each value's EncodeTo.
    std::vector<uint8_t> cell_bytes;
    PutVarint32(&cell_bytes, static_cast<uint32_t>(rows.back().size()));
    for (const Value& v : rows.back()) v.EncodeTo(&cell_bytes);
    ASSERT_EQ(std::vector<uint8_t>(buf.begin() + start, buf.end()),
              cell_bytes);
  }
  // Rows are prefix-free: they decode back to back from one buffer.
  Decoder rows_dec{Slice(buf)};
  for (const std::vector<Value>& want : rows) {
    auto row = DecodeRow(&rows_dec);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_EQ(row->size(), want.size());
    Row::Iterator got = row->begin();
    for (size_t i = 0; i < want.size(); i++, ++got)
      ExpectSameCell(*got, want[i], i);
  }
  EXPECT_TRUE(rows_dec.done());
}

// Commit records holding table definitions (a schema change), ledger
// deletes and a roots check, their headers chained (and a chain restarted
// every 16 records, as a reopened writer does), decode to records that
// encode to the same bytes.
TEST(CodecFuzzTest, CommitRecordsWithDefinitionsRoundTrip) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  Random rng(TestCaseSeed(4));
  int definitions = 0, chain_starts = 0;
  RecordCoverage coverage;
  WalHeaderChain writer, reader, again_writer;
  for (int r = 0; r < 100; r++) {
    WalCommitRecord rec = RandomRecord(&rng);
    coverage.Add(rec);
    if (r % 16 == 15) writer = WalHeaderChain{};
    std::vector<uint8_t> buf;
    EncodeCommitRecord(rec, &writer, &buf);
    WalRecordLayout layout;
    auto decoded = WalCommitRecord::Decode(Slice(buf), &reader, &layout);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    chain_starts += layout.chain_start;
    ASSERT_EQ(decoded->txn_id, rec.txn_id);
    ASSERT_EQ(decoded->commit_ts_micros, rec.commit_ts_micros);
    ASSERT_EQ(decoded->user_name, rec.user_name);
    ASSERT_EQ(decoded->block_id, rec.block_id);
    ASSERT_EQ(decoded->block_ordinal, rec.block_ordinal);
    ASSERT_EQ(decoded->ledger_tables, rec.ledger_tables);
    ASSERT_EQ(decoded->roots_check, rec.roots_check);
    ASSERT_EQ(decoded->ops.size(), rec.ops.size());
    for (size_t i = 0; i < rec.ops.size(); i++) {
      definitions += rec.ops[i].type == WalOpType::kDefineTable;
      ASSERT_EQ(decoded->ops[i].type, rec.ops[i].type) << i;
      ASSERT_EQ(decoded->ops[i].table_id, rec.ops[i].table_id) << i;
      ASSERT_EQ(decoded->ops[i].seq_gap, rec.ops[i].seq_gap) << i;
      EXPECT_TRUE(decoded->ops[i].key == rec.ops[i].key) << i;
      EXPECT_TRUE(decoded->ops[i].new_row == rec.ops[i].new_row) << i;
      ASSERT_EQ(decoded->ops[i].definition != nullptr,
                rec.ops[i].definition != nullptr)
          << i;
    }
    if (layout.chain_start) again_writer = WalHeaderChain{};
    std::vector<uint8_t> again;
    EncodeCommitRecord(*decoded, &again_writer, &again);
    EXPECT_EQ(again, buf);
  }
  EXPECT_EQ(chain_starts, 7);
  EXPECT_GT(definitions, 20);
  EXPECT_GT(coverage.ledger_deletes, 20);
  EXPECT_GT(coverage.gaps, 20);
  EXPECT_GT(coverage.checks, 20);
  EXPECT_LT(coverage.checks, 100);
}

// Rows encoded against random predecessors, of the same width or another,
// decode to the same cells, and the bytes are exactly EncodeRow's: a cell
// is in state 0 exactly when its bytes equal the predecessor's (so +0.0
// never stands for -0.0), else, when it keeps the predecessor's tag and is
// not NULL, in state 3 exactly when it is a DOUBLE in the decimal form and
// in state 1 otherwise, else in state 2. Every type changes in state 1,
// integers across the wrap, NULLs come and go, and DOUBLEs are written in
// both forms, whole and changed. Every strict prefix, cell state 3 over a
// predecessor cell that is NULL or no DOUBLE and every set unused state
// bit are Corruption; every single-byte flip decodes to OK or Corruption.
TEST(CodecFuzzTest, RowsRoundTripAgainstPredecessors) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  Random rng(TestCaseSeed(5));
  int with_states = 0, repeats = 0, signed_zero_pairs = 0, wraps = 0,
      null_transitions = 0, type_changes = 0;
  int changed[9] = {};  // state-1 cells by type id
  // Written DOUBLE cells by form: [decimal][changed], whole or state 1/3.
  int doubles[2][2] = {};
  auto ok_or_corruption = [](const Status& st) {
    return st.ok() || st.IsCorruption();
  };
  for (int r = 0; r < 400; r++) {
    std::vector<Value> prev_values = RelatedValues(&rng, {}, rng.Uniform(21));
    const size_t width =
        rng.Bernoulli(0.75) ? prev_values.size() : rng.Uniform(21);
    std::vector<Value> values = RelatedValues(&rng, prev_values, width);
    const Row prev(prev_values), row(values);
    std::vector<uint8_t> buf;
    EncodeRow(row, &prev, &buf);
    std::vector<uint8_t> plain;
    EncodeRow(row, &plain);

    Decoder dec{Slice(buf)};
    auto got = DecodeRow(&dec, &prev);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(dec.done());
    ASSERT_EQ(got->size(), width);
    Row::Iterator cell = got->begin();
    for (size_t i = 0; i < width; i++, ++cell)
      ExpectSameCell(*cell, values[i], i);

    if (width != prev_values.size()) {
      EXPECT_EQ(buf, plain);  // no states against another width
      continue;
    }
    // The count (one byte here), the states, then the cells not repeated.
    with_states++;
    const size_t state_bytes = (width + 3) / 4;
    std::vector<uint8_t> want(plain.begin(), plain.begin() + 1);
    want.resize(1 + state_bytes, 0);
    for (size_t i = 0; i < width; i++) {
      const Value& v = values[i];
      const Value& p = prev_values[i];
      std::vector<uint8_t> bytes = CellBytes(v);
      signed_zero_pairs += v.type() == DataType::kDouble &&
                           p.type() == DataType::kDouble && !v.is_null() &&
                           !p.is_null() && v.double_value() == 0 &&
                           p.double_value() == 0 && bytes != CellBytes(p);
      null_transitions += v.is_null() != p.is_null();
      type_changes += v.type() != p.type();
      const bool decimal = (bytes[0] & Cell::kDecimalTag) != 0;
      uint8_t state = 2;
      if (bytes == CellBytes(p)) {
        state = 0;
        repeats++;
      } else if (!v.is_null() && v.tag() == p.tag()) {
        state = decimal ? 3 : 1;
        if (!decimal) changed[static_cast<int>(v.type())]++;
        if (IsIntegral(v.type())) {
          int64_t diff;
          wraps += __builtin_sub_overflow(v.AsInt64(), p.AsInt64(), &diff);
          PutVarint64(&want, ZigZagEncode64(static_cast<int64_t>(
                                 static_cast<uint64_t>(v.AsInt64()) -
                                 static_cast<uint64_t>(p.AsInt64()))));
        } else {
          want.insert(want.end(), bytes.begin() + 1, bytes.end());
        }
      } else {
        want.insert(want.end(), bytes.begin(), bytes.end());
      }
      if (state != 0 && !v.is_null() && v.type() == DataType::kDouble)
        doubles[decimal][state != 2]++;
      want[1 + i / 4] |= static_cast<uint8_t>(state << (2 * (i % 4)));
    }
    ASSERT_EQ(buf, want);

    for (size_t cut = 0; cut < buf.size(); cut++) {
      Decoder prefix{Slice(buf.data(), cut)};
      EXPECT_TRUE(DecodeRow(&prefix, &prev).status().IsCorruption()) << cut;
    }
    for (size_t i = 0; i < width; i++) {
      std::vector<uint8_t> bad = buf;
      bad[1 + i / 4] |= static_cast<uint8_t>(3u << (2 * (i % 4)));
      Decoder bad_dec{Slice(bad)};
      const Status st = DecodeRow(&bad_dec, &prev).status();
      const Value& p = prev_values[i];
      if (p.is_null() || p.type() != DataType::kDouble) {
        EXPECT_TRUE(st.IsCorruption()) << "state 3 at cell " << i;
      } else {
        EXPECT_TRUE(ok_or_corruption(st)) << "state 3 at cell " << i;
      }
    }
    for (size_t bit = 2 * width; bit < 8 * state_bytes; bit++) {
      std::vector<uint8_t> bad = buf;
      bad[1 + bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      Decoder bad_dec{Slice(bad)};
      EXPECT_TRUE(DecodeRow(&bad_dec, &prev).status().IsCorruption()) << bit;
    }
    for (size_t i = 0; i < buf.size(); i++) {
      std::vector<uint8_t> flipped = buf;
      flipped[i] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      Decoder flip_dec{Slice(flipped)};
      EXPECT_TRUE(ok_or_corruption(DecodeRow(&flip_dec, &prev).status()))
          << i;
    }
  }
  EXPECT_GT(with_states, 200);
  EXPECT_GT(repeats, 500);
  EXPECT_GT(signed_zero_pairs, 0);
  EXPECT_GT(wraps, 0);
  EXPECT_GT(null_transitions, 100);
  EXPECT_GT(type_changes, 100);
  for (int t = 1; t <= 8; t++)
    EXPECT_GT(changed[t], 0) << DataTypeName(static_cast<DataType>(t));
  for (int decimal = 0; decimal < 2; decimal++) {
    for (int change = 0; change < 2; change++)
      EXPECT_GT(doubles[decimal][change], 50) << decimal << change;
  }
}

TEST(CodecFuzzTest, ZigZagEdgesRoundTrip) {
  // 2020-01-01T00:00:00Z in microseconds.
  constexpr int64_t kTs2020 = 1577836800000000;
  // (value, encoded bytes: tag + zigzag varint). zigzag(v) is 2v for v >= 0
  // and -2v - 1 below, and a varint holds 7 bits per byte.
  const std::pair<Value, size_t> cases[] = {
      {Value::BigInt(0), 2},        {Value::BigInt(1), 2},
      {Value::BigInt(-1), 2},       {Value::BigInt(-64), 2},   // 127
      {Value::BigInt(63), 2},                                  // 126
      {Value::BigInt(64), 3},                                  // 128
      {Value::SmallInt(std::numeric_limits<int16_t>::min()), 4},  // 2^16-1
      {Value::SmallInt(std::numeric_limits<int16_t>::max()), 4},  // 2^16-2
      {Value::Int(std::numeric_limits<int32_t>::min()), 6},       // 2^32-1
      {Value::Int(std::numeric_limits<int32_t>::max()), 6},       // 2^32-2
      {Value::BigInt(std::numeric_limits<int64_t>::min()), 11},   // 2^64-1
      {Value::BigInt(std::numeric_limits<int64_t>::max()), 11},   // 2^64-2
      {Value::Timestamp(kTs2020), 9},  // 3155673600000000 < 2^52
  };
  for (const auto& [value, size] : cases) {
    const int64_t v = value.AsInt64();
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v);
    std::vector<uint8_t> buf;
    value.EncodeTo(&buf);
    EXPECT_EQ(buf.size(), size) << v;
    Decoder dec{Slice(buf)};
    auto got = Value::DecodeFrom(&dec);
    ASSERT_TRUE(got.ok()) << v;
    ExpectSameCell(*got, value, 0);
    EXPECT_TRUE(dec.done());
  }
  EXPECT_EQ(ZigZagEncode64(std::numeric_limits<int64_t>::min()),
            std::numeric_limits<uint64_t>::max());
}

TEST(CodecFuzzTest, EveryStrictPrefixIsCorruption) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  Random rng(TestCaseSeed(2));
  for (int r = 0; r < 40; r++) {
    std::vector<uint8_t> buf;
    EncodeRow(RandomValues(&rng, 16, 0), &buf);
    for (size_t cut = 0; cut < buf.size(); cut++) {
      Decoder row_dec{Slice(buf.data(), cut)};
      EXPECT_TRUE(DecodeRow(&row_dec).status().IsCorruption()) << cut;
    }
  }
  // Records in one header chain: each strict prefix of a record is
  // Corruption against the chain its whole decodes against.
  RecordCoverage coverage;
  WalHeaderChain writer, reader;
  for (int r = 0; r < 40; r++) {
    std::vector<uint8_t> buf;
    WalCommitRecord rec = RandomRecord(&rng);
    coverage.Add(rec);
    EncodeCommitRecord(rec, &writer, &buf);
    for (size_t cut = 0; cut < buf.size(); cut++) {
      WalHeaderChain chain = reader;
      EXPECT_TRUE(WalCommitRecord::Decode(Slice(buf.data(), cut), &chain)
                      .status()
                      .IsCorruption())
          << cut;
    }
    ASSERT_TRUE(WalCommitRecord::Decode(Slice(buf), &reader).ok());
  }
  EXPECT_GT(coverage.checks, 0);
  EXPECT_GT(coverage.ledger_deletes, 0);
  EXPECT_GT(coverage.gaps, 0);
}

TEST(CodecFuzzTest, SingleByteFlipsNeverCrash) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  Random rng(TestCaseSeed(3));
  auto ok_or_corruption = [](const Status& st) {
    return st.ok() || st.IsCorruption();
  };
  // Records in one header chain, each flipped record decoded against the
  // chain its original decodes against.
  RecordCoverage coverage;
  WalHeaderChain writer, reader;
  for (int r = 0; r < 30; r++) {
    std::vector<uint8_t> row_bytes;
    EncodeRow(RandomValues(&rng, 16, 0), &row_bytes);
    std::vector<uint8_t> record_bytes;
    WalCommitRecord rec = RandomRecord(&rng);
    coverage.Add(rec);
    EncodeCommitRecord(rec, &writer, &record_bytes);
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF},
                         static_cast<uint8_t>(1 + rng.Uniform(255))}) {
      for (size_t i = 0; i < row_bytes.size(); i++) {
        std::vector<uint8_t> flipped = row_bytes;
        flipped[i] ^= mask;
        Decoder row_dec{Slice(flipped)};
        EXPECT_TRUE(ok_or_corruption(DecodeRow(&row_dec).status())) << i;
      }
      for (size_t i = 0; i < record_bytes.size(); i++) {
        std::vector<uint8_t> flipped = record_bytes;
        flipped[i] ^= mask;
        WalHeaderChain chain = reader;
        EXPECT_TRUE(ok_or_corruption(
            WalCommitRecord::Decode(Slice(flipped), &chain).status()))
            << i;
      }
    }
    ASSERT_TRUE(WalCommitRecord::Decode(Slice(record_bytes), &reader).ok());
  }
  EXPECT_GT(coverage.checks, 0);
  EXPECT_GT(coverage.ledger_deletes, 0);
}

}  // namespace
}  // namespace sqlledger

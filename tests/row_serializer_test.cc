// Canonical row serialization tests, including the paper's metadata-attack
// examples: the §3.2 INT/SMALLINT type swap and the §3.5.1 NULL-ordinal
// attack must both change the hash.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ledger/row_serializer.h"
#include "util/hex.h"

namespace sqlledger {
namespace {

Schema TwoIntSchema(DataType t1, DataType t2) {
  Schema s;
  s.AddColumn("Column1", t1, true);
  s.AddColumn("Column2", t2, true);
  s.SetPrimaryKey({0});
  return s;
}

// Every row hash, block root and digest commits to these exact bytes, so
// they must never drift: one value of each type, a NULL (skipped) and a
// hidden column (carried by the header, not serialized).
TEST(RowSerializerTest, GoldenBytesAndLeafHash) {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("flag", DataType::kBool, true);
  s.AddColumn("qty", DataType::kSmallInt, true);
  s.AddColumn("n", DataType::kInt, true);
  s.AddColumn("price", DataType::kDouble, true);
  s.AddColumn("name", DataType::kVarchar, true, 32);
  s.AddColumn("blob", DataType::kVarbinary, true);
  s.AddColumn("ts", DataType::kTimestamp, true);
  s.AddColumn("note", DataType::kVarchar, true, 32);
  s.AddColumn("sys_txn", DataType::kBigInt, true, 0, /*hidden=*/true);
  s.SetPrimaryKey({0});
  Row row{Value::BigInt(42),
          Value::Bool(true),
          Value::SmallInt(-2),
          Value::Int(0x12345678),
          Value::Double(1.5),
          Value::Varchar("ledger"),
          Value::Varbinary({0xDE, 0xAD, 0xBE, 0xEF}),
          Value::Timestamp(1600000000000000),
          Value::Null(DataType::kVarchar),
          Value::BigInt(7)};

  auto bytes = SerializeRowVersion(s, row, RowOp::kInsert, 100, 7, 3);
  EXPECT_EQ(HexEncode(Slice(bytes)),
            "0101640000000700000000000000030000000000000008"  // header, count
            "0104082a00000000000000"                          // id
            "02010101"                                        // flag
            "030202feff"                                      // qty
            "04030478563412"                                  // n
            "050508000000000000f83f"                          // price
            "0606066c6564676572"                              // name
            "070704deadbeef"                                  // blob
            "0808080000a40731af0500");                        // ts
  EXPECT_EQ(RowVersionLeafHash(s, row, RowOp::kInsert, 100, 7, 3).ToHex(),
            "18461517b3f425de040d5cc6e1f869f7b3af5a62a64fed9661569d50a55e2539");
}

TEST(RowSerializerTest, Deterministic) {
  Schema s = TwoIntSchema(DataType::kInt, DataType::kSmallInt);
  Row row{Value::Int(0x12), Value::SmallInt(0x34)};
  auto a = SerializeRowVersion(s, row, RowOp::kInsert, 100, 7, 3);
  auto b = SerializeRowVersion(s, row, RowOp::kInsert, 100, 7, 3);
  EXPECT_EQ(a, b);
}

// The paper's §3.2 example: declaring Column1 SMALLINT and Column2 INT must
// produce a different serialization even though a metadata-free format
// would emit identical value bytes.
TEST(RowSerializerTest, TypeSwapAttackChangesHash) {
  Schema honest = TwoIntSchema(DataType::kInt, DataType::kSmallInt);
  Row honest_row{Value::Int(0x12), Value::SmallInt(0x34)};

  Schema tampered = TwoIntSchema(DataType::kSmallInt, DataType::kInt);
  Row tampered_row{Value::SmallInt(0x12), Value::Int(0x34)};

  EXPECT_NE(
      RowVersionLeafHash(honest, honest_row, RowOp::kInsert, 100, 7, 3),
      RowVersionLeafHash(tampered, tampered_row, RowOp::kInsert, 100, 7, 3));
}

// §3.5.1: moving a value to a different column (NULL-map manipulation) must
// change the hash because non-NULL column ids are explicit.
TEST(RowSerializerTest, NullOrdinalAttackChangesHash) {
  Schema s = TwoIntSchema(DataType::kInt, DataType::kInt);
  Row row_a{Value::Int(5), Value::Null(DataType::kInt)};
  Row row_b{Value::Null(DataType::kInt), Value::Int(5)};
  EXPECT_NE(RowVersionLeafHash(s, row_a, RowOp::kInsert, 100, 7, 3),
            RowVersionLeafHash(s, row_b, RowOp::kInsert, 100, 7, 3));
}

TEST(RowSerializerTest, NullsDoNotContribute) {
  // Adding a trailing NULL column must not change the serialization —
  // the property AddColumn (§3.5.1) depends on.
  Schema before = TwoIntSchema(DataType::kInt, DataType::kInt);
  Row row_before{Value::Int(1), Value::Int(2)};
  auto bytes_before =
      SerializeRowVersion(before, row_before, RowOp::kInsert, 100, 7, 3);

  Schema after = before;
  after.AddColumn("new_col", DataType::kVarchar, true);
  Row row_after{Value::Int(1), Value::Int(2), Value::Null(DataType::kVarchar)};
  auto bytes_after =
      SerializeRowVersion(after, row_after, RowOp::kInsert, 100, 7, 3);

  EXPECT_EQ(bytes_before, bytes_after);
}

TEST(RowSerializerTest, OpTypeDistinguishesLeaves) {
  Schema s = TwoIntSchema(DataType::kInt, DataType::kInt);
  Row row{Value::Int(1), Value::Int(2)};
  EXPECT_NE(RowVersionLeafHash(s, row, RowOp::kInsert, 100, 7, 3),
            RowVersionLeafHash(s, row, RowOp::kDelete, 100, 7, 3));
}

TEST(RowSerializerTest, IdentityFieldsDistinguishLeaves) {
  Schema s = TwoIntSchema(DataType::kInt, DataType::kInt);
  Row row{Value::Int(1), Value::Int(2)};
  Hash256 base = RowVersionLeafHash(s, row, RowOp::kInsert, 100, 7, 3);
  EXPECT_NE(base, RowVersionLeafHash(s, row, RowOp::kInsert, 101, 7, 3));
  EXPECT_NE(base, RowVersionLeafHash(s, row, RowOp::kInsert, 100, 8, 3));
  EXPECT_NE(base, RowVersionLeafHash(s, row, RowOp::kInsert, 100, 7, 4));
}

TEST(RowSerializerTest, HiddenColumnsExcluded) {
  Schema s = TwoIntSchema(DataType::kInt, DataType::kInt);
  Row row{Value::Int(1), Value::Int(2)};
  auto without = SerializeRowVersion(s, row, RowOp::kInsert, 100, 7, 3);

  Schema with_hidden = s;
  with_hidden.AddColumn("sys", DataType::kBigInt, true, 0, /*hidden=*/true);
  Row row_hidden{Value::Int(1), Value::Int(2), Value::BigInt(999)};
  auto with = SerializeRowVersion(with_hidden, row_hidden, RowOp::kInsert,
                                  100, 7, 3);
  EXPECT_EQ(without, with);
}

TEST(RowSerializerTest, DroppedColumnValuesStillSerialize) {
  // Historical versions carry values in logically dropped columns; those
  // values must keep contributing to the hash so old roots keep verifying.
  Schema s = TwoIntSchema(DataType::kInt, DataType::kInt);
  Row row{Value::Int(1), Value::Int(2)};
  auto before = SerializeRowVersion(s, row, RowOp::kInsert, 100, 7, 3);

  Schema dropped = s;
  dropped.mutable_column(1)->dropped = true;
  auto after = SerializeRowVersion(dropped, row, RowOp::kInsert, 100, 7, 3);
  EXPECT_EQ(before, after);
}

TEST(RowSerializerTest, ValueChangesChangeHash) {
  Schema s = TwoIntSchema(DataType::kInt, DataType::kInt);
  EXPECT_NE(RowVersionLeafHash(s, {Value::Int(1), Value::Int(2)},
                               RowOp::kInsert, 100, 7, 3),
            RowVersionLeafHash(s, {Value::Int(1), Value::Int(3)},
                               RowOp::kInsert, 100, 7, 3));
}

TEST(RowSerializerTest, AllValueTypesSerialize) {
  Schema s;
  s.AddColumn("b", DataType::kBool, true);
  s.AddColumn("si", DataType::kSmallInt, true);
  s.AddColumn("i", DataType::kInt, true);
  s.AddColumn("bi", DataType::kBigInt, true);
  s.AddColumn("d", DataType::kDouble, true);
  s.AddColumn("v", DataType::kVarchar, true);
  s.AddColumn("vb", DataType::kVarbinary, true);
  s.AddColumn("ts", DataType::kTimestamp, true);
  s.SetPrimaryKey({0});
  Row row{Value::Bool(true),    Value::SmallInt(-2), Value::Int(3),
          Value::BigInt(-4),    Value::Double(5.5),  Value::Varchar("six"),
          Value::Varbinary({7}), Value::Timestamp(8)};
  auto bytes = SerializeRowVersion(s, row, RowOp::kInsert, 1, 2, 3);
  EXPECT_GT(bytes.size(), 8u * 3);  // header + 8 columns with metadata

  // Varchar "six" and Varbinary {'s','i','x'} at the same ordinal must
  // differ via the type byte.
  Schema s2 = s;
  s2.mutable_column(5)->type = DataType::kVarbinary;
  Row row2 = row;
  row2[5] = Value::Varbinary({'s', 'i', 'x'});
  EXPECT_NE(bytes, SerializeRowVersion(s2, row2, RowOp::kInsert, 1, 2, 3));
}

// RowVersionBytesBound covers the serialization at its widest: column ids
// of 5 varint bytes, +0.0 DOUBLEs (a 1-byte tag in the block, 8 value
// bytes here), a string whose length takes 3 varint bytes, every type at
// its extremes, NULL and hidden cells, and no cells at all.
TEST(RowSerializerTest, RowVersionBytesBoundCoversTheSerialization) {
  std::vector<std::pair<Schema, Row>> cases;
  cases.push_back({Schema(), Row{}});
  {
    Schema s;
    s.set_next_column_id(uint32_t{1} << 31);
    for (int i = 0; i < 300; i++)
      s.AddColumn("d" + std::to_string(i), DataType::kDouble, true);
    cases.push_back({s, Row(std::vector<Value>(300, Value::Double(0.0)))});
  }
  {
    Schema s;
    s.set_next_column_id(uint32_t{1} << 31);
    s.AddColumn("b", DataType::kBool, true);
    s.AddColumn("si", DataType::kSmallInt, true);
    s.AddColumn("i", DataType::kInt, true);
    s.AddColumn("bi", DataType::kBigInt, true);
    s.AddColumn("d", DataType::kDouble, true);
    s.AddColumn("v", DataType::kVarchar, true);
    s.AddColumn("vb", DataType::kVarbinary, true);
    s.AddColumn("ts", DataType::kTimestamp, true);
    s.AddColumn("e", DataType::kVarchar, true);
    s.AddColumn("n", DataType::kInt, true);
    s.AddColumn("h", DataType::kBigInt, true, 0, /*hidden=*/true);
    cases.push_back(
        {s, Row{Value::Bool(false), Value::SmallInt(INT16_MIN),
                Value::Int(INT32_MIN), Value::BigInt(INT64_MIN),
                Value::Double(-0.0), Value::Varchar(std::string(20000, 'v')),
                Value::Varbinary(std::vector<uint8_t>(130, 0xAB)),
                Value::Timestamp(INT64_MAX), Value::Varchar(""),
                Value::Null(DataType::kInt), Value::BigInt(INT64_MIN)}});
  }
  for (const auto& [schema, row] : cases) {
    const auto bytes = SerializeRowVersion(schema, row, RowOp::kDelete,
                                           UINT32_MAX, UINT64_MAX, UINT64_MAX);
    EXPECT_LE(bytes.size(), RowVersionBytesBound(row)) << row.size();
  }
}

// RowVersionLeafHashMany (the verifier's and ledger_bench's path) reuses one
// scratch buffer across jobs; every output must still equal the per-row
// RowVersionLeafHash, including a short row hashed after a long one.
TEST(RowSerializerTest, LeafHashManyMatchesLeafHash) {
  Schema s;
  s.AddColumn("b", DataType::kBool, true);
  s.AddColumn("si", DataType::kSmallInt, true);
  s.AddColumn("i", DataType::kInt, true);
  s.AddColumn("bi", DataType::kBigInt, true);
  s.AddColumn("d", DataType::kDouble, true);
  s.AddColumn("v", DataType::kVarchar, true);
  s.AddColumn("vb", DataType::kVarbinary, true);
  s.AddColumn("ts", DataType::kTimestamp, true);
  s.SetPrimaryKey({2});
  std::vector<Row> rows = {
      {Value::Bool(false), Value::SmallInt(9), Value::Int(1),
       Value::BigInt(1), Value::Double(-0.25),
       Value::Varchar(std::string(300, 'w')),
       Value::Varbinary(std::vector<uint8_t>(200, 0xAB)),
       Value::Timestamp(99)},
      {Value::Null(DataType::kBool), Value::Null(DataType::kSmallInt),
       Value::Int(2), Value::Null(DataType::kBigInt),
       Value::Null(DataType::kDouble), Value::Varchar("x"),
       Value::Null(DataType::kVarbinary), Value::Null(DataType::kTimestamp)},
      {Value::Bool(true), Value::SmallInt(-2), Value::Int(3),
       Value::BigInt(-4), Value::Double(5.5), Value::Varchar(""),
       Value::Varbinary({7}), Value::Timestamp(8)},
  };
  std::vector<RowVersionHashJob> jobs;
  for (uint32_t r = 0; r < rows.size(); r++) {
    for (RowOp op : {RowOp::kInsert, RowOp::kDelete}) {
      jobs.push_back(
          RowVersionHashJob{&s, &rows[r], op, 100 + r, 7u + r, jobs.size()});
    }
  }
  std::vector<Hash256> out(jobs.size());
  RowVersionLeafHashMany(jobs.data(), jobs.size(), out.data());
  for (size_t i = 0; i < jobs.size(); i++) {
    const RowVersionHashJob& j = jobs[i];
    EXPECT_EQ(out[i], RowVersionLeafHash(*j.schema, *j.row, j.op, j.table_id,
                                         j.txn_id, j.sequence))
        << "job " << i;
  }
  EXPECT_NE(out[0], out[1]);  // INSERT and DELETE leaves differ

  Hash256 untouched = out[0];
  RowVersionLeafHashMany(jobs.data(), 0, &untouched);
  EXPECT_EQ(untouched, out[0]);
}

}  // namespace
}  // namespace sqlledger

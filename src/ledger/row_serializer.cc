#include "ledger/row_serializer.h"

#include <cstring>

#include "crypto/merkle.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
constexpr uint8_t kFormatVersion = 0x01;

void SerializeValue(const Value& v, std::vector<uint8_t>* out) {
  switch (v.type()) {
    case DataType::kBool: {
      PutVarint32(out, 1);
      out->push_back(v.bool_value() ? 1 : 0);
      break;
    }
    case DataType::kSmallInt: {
      PutVarint32(out, 2);
      uint16_t u = static_cast<uint16_t>(v.smallint_value());
      PutFixed16(out, u);
      break;
    }
    case DataType::kInt: {
      PutVarint32(out, 4);
      PutFixed32(out, static_cast<uint32_t>(v.int_value()));
      break;
    }
    case DataType::kBigInt:
    case DataType::kTimestamp: {
      PutVarint32(out, 8);
      PutFixed64(out, static_cast<uint64_t>(v.AsInt64()));
      break;
    }
    case DataType::kDouble: {
      PutVarint32(out, 8);
      uint64_t bits = 0;
      double d = v.double_value();
      std::memcpy(&bits, &d, 8);
      PutFixed64(out, bits);
      break;
    }
    case DataType::kVarchar:
    case DataType::kVarbinary: {
      std::string_view s = v.string_value();
      PutVarint32(out, static_cast<uint32_t>(s.size()));
      out->insert(out->end(), s.begin(), s.end());
      break;
    }
  }
}

/// As SerializeRowVersion, but appends to `out` so RowVersionLeafHashMany
/// can reuse one scratch buffer across rows.
void AppendRowVersion(const Schema& schema, const Row& row, RowOp op,
                      uint32_t table_id, uint64_t txn_id, uint64_t sequence,
                      std::vector<uint8_t>* out) {
  out->push_back(kFormatVersion);
  out->push_back(static_cast<uint8_t>(op));
  PutFixed32(out, table_id);
  PutFixed64(out, txn_id);
  PutFixed64(out, sequence);

  // Count non-NULL, non-hidden columns first: the column count is part of
  // the hashed metadata (Figure 4).
  uint32_t count = 0;
  for (size_t i = 0; i < schema.num_columns(); i++) {
    if (schema.column(i).hidden) continue;
    if (!row[i].is_null()) count++;
  }
  PutVarint32(out, count);

  for (size_t i = 0; i < schema.num_columns(); i++) {
    const ColumnDef& col = schema.column(i);
    if (col.hidden) continue;
    const Value& v = row[i];
    if (v.is_null()) continue;  // NULLs skipped (paper §3.5.1)
    PutVarint32(out, col.column_id);                  // stable column id
    out->push_back(static_cast<uint8_t>(col.type));   // declared type
    SerializeValue(v, out);                           // length + raw bytes
  }
}
}  // namespace

std::vector<uint8_t> SerializeRowVersion(const Schema& schema, const Row& row,
                                         RowOp op, uint32_t table_id,
                                         uint64_t txn_id, uint64_t sequence) {
  std::vector<uint8_t> out;
  AppendRowVersion(schema, row, op, table_id, txn_id, sequence, &out);
  return out;
}

Hash256 RowVersionLeafHash(const Schema& schema, const Row& row, RowOp op,
                           uint32_t table_id, uint64_t txn_id,
                           uint64_t sequence) {
  return MerkleLeafHash(
      Slice(SerializeRowVersion(schema, row, op, table_id, txn_id, sequence)));
}

void RowVersionLeafHashMany(const RowVersionHashJob* jobs, size_t n,
                            Hash256* out) {
  std::vector<uint8_t> scratch;
  for (size_t i = 0; i < n; i++) {
    const RowVersionHashJob& j = jobs[i];
    scratch.clear();
    AppendRowVersion(*j.schema, *j.row, j.op, j.table_id, j.txn_id,
                     j.sequence, &scratch);
    out[i] = MerkleLeafHash(Slice(scratch));
  }
}

}  // namespace sqlledger

#include "ledger/ledger_table.h"

#include "ledger/row_serializer.h"

namespace sqlledger {

void LedgerTableRef::RefreshOrdinals() {
  if (main == nullptr) return;
  const Schema& s = main->schema();
  start_txn_ord = s.FindColumn(kColStartTxn);
  start_seq_ord = s.FindColumn(kColStartSeq);
  end_txn_ord = s.FindColumn(kColEndTxn);
  end_seq_ord = s.FindColumn(kColEndSeq);
}

Schema MakeLedgerSchema(const Schema& user_schema, TableKind kind) {
  Schema s = user_schema;
  if (kind == TableKind::kRegular) return s;
  s.AddColumn(kColStartTxn, DataType::kBigInt, /*nullable=*/true, 0,
              /*hidden=*/true);
  s.AddColumn(kColStartSeq, DataType::kBigInt, true, 0, true);
  if (kind == TableKind::kUpdateable) {
    s.AddColumn(kColEndTxn, DataType::kBigInt, true, 0, true);
    s.AddColumn(kColEndSeq, DataType::kBigInt, true, 0, true);
  }
  return s;
}

Schema MakeHistorySchema(const Schema& ledger_schema) {
  Schema s = ledger_schema;
  std::vector<size_t> key;
  int end_txn = s.FindColumn(kColEndTxn);
  int end_seq = s.FindColumn(kColEndSeq);
  // MakeLedgerSchema always adds the end columns for updateable tables, and
  // only updateable tables have histories.
  key.push_back(static_cast<size_t>(end_txn));
  key.push_back(static_cast<size_t>(end_seq));
  s.SetPrimaryKey(std::move(key));
  return s;
}

namespace {
Hash256 VersionLeaf(const LedgerTableRef& t, const Row& row, RowOp op,
                    uint64_t txn_id, uint64_t seq) {
  return RowVersionLeafHash(t.main->schema(), row, op, t.table_id, txn_id,
                            seq);
}
}  // namespace

Status LedgerInsert(Transaction* txn, const LedgerTableRef& t,
                    const Row& user_row) {
  if (!txn->active()) return Status::InvalidArgument("transaction not active");
  auto padded = t.main->schema().PadRow(user_row);
  if (!padded.ok()) return padded.status();
  Row full = std::move(*padded);

  if (t.kind == TableKind::kRegular) {
    KeyTuple key = t.main->KeyOf(full);
    SL_RETURN_IF_ERROR(t.main->Insert(full));
    txn->RecordInsert(t.main, key, full);
    return Status::OK();
  }

  uint64_t seq = txn->NextSequence();
  full[t.start_txn_ord] = Value::BigInt(static_cast<int64_t>(txn->id()));
  full[t.start_seq_ord] = Value::BigInt(static_cast<int64_t>(seq));
  KeyTuple key = t.main->KeyOf(full);
  SL_RETURN_IF_ERROR(t.main->Insert(full));
  txn->RecordInsert(t.main, key, full);
  txn->MerkleForTable(t.table_id)
      ->AddLeafHash(VersionLeaf(t, full, RowOp::kInsert, txn->id(), seq));
  return Status::OK();
}

Status LedgerDelete(Transaction* txn, const LedgerTableRef& t,
                    const KeyTuple& key) {
  if (!txn->active()) return Status::InvalidArgument("transaction not active");
  if (t.kind == TableKind::kAppendOnly)
    return Status::NotSupported(
        "DELETE is not allowed on append-only ledger tables");

  auto current = t.main->GetCopy(key);
  if (!current.has_value()) return Status::NotFound("row not found");

  if (t.kind == TableKind::kRegular) {
    SL_RETURN_IF_ERROR(t.main->Delete(key));
    txn->RecordDelete(t.main, key, *current);
    return Status::OK();
  }

  Row old_row = std::move(*current);
  uint64_t seq = txn->NextSequence();
  Row retired = old_row;
  retired[t.end_txn_ord] = Value::BigInt(static_cast<int64_t>(txn->id()));
  retired[t.end_seq_ord] = Value::BigInt(static_cast<int64_t>(seq));

  SL_RETURN_IF_ERROR(t.main->Delete(key));
  txn->RecordLedgerDelete(t.main, key, old_row, seq);

  KeyTuple history_key = t.history->KeyOf(retired);
  SL_RETURN_IF_ERROR(t.history->Insert(retired));
  txn->RecordRetire(t.history, history_key);

  txn->MerkleForTable(t.table_id)
      ->AddLeafHash(VersionLeaf(t, retired, RowOp::kDelete, txn->id(), seq));
  return Status::OK();
}

Status LedgerUpdate(Transaction* txn, const LedgerTableRef& t,
                    const Row& user_row) {
  if (!txn->active()) return Status::InvalidArgument("transaction not active");
  if (t.kind == TableKind::kAppendOnly)
    return Status::NotSupported(
        "UPDATE is not allowed on append-only ledger tables");

  auto padded = t.main->schema().PadRow(user_row);
  if (!padded.ok()) return padded.status();
  Row full = std::move(*padded);
  KeyTuple key = t.main->KeyOf(full);

  auto current = t.main->GetCopy(key);
  if (!current.has_value()) return Status::NotFound("row not found");

  if (t.kind == TableKind::kRegular) {
    SL_RETURN_IF_ERROR(t.main->Update(full));
    txn->RecordUpdate(t.main, key, *current, full);
    return Status::OK();
  }

  Row old_row = std::move(*current);
  // The update retires the old version into the history table (the delete
  // half, paper §3.2) and installs the new one. The install runs first: it
  // makes every check that can fail (types, lengths, NULLs, unique
  // indexes), so a rejected update writes nothing. The history key
  // (end_txn, end_seq) is fresh, so the retire cannot collide. The redo op
  // logs only the new row: replay retires the pre-image at seq_ins - 1.
  uint64_t seq_del = txn->NextSequence();
  uint64_t seq_ins = txn->NextSequence();
  full[t.start_txn_ord] = Value::BigInt(static_cast<int64_t>(txn->id()));
  full[t.start_seq_ord] = Value::BigInt(static_cast<int64_t>(seq_ins));
  SL_RETURN_IF_ERROR(t.main->Update(full));

  Row retired = old_row;
  retired[t.end_txn_ord] = Value::BigInt(static_cast<int64_t>(txn->id()));
  retired[t.end_seq_ord] = Value::BigInt(static_cast<int64_t>(seq_del));
  KeyTuple history_key = t.history->KeyOf(retired);
  SL_RETURN_IF_ERROR(t.history->Insert(retired));
  txn->RecordRetire(t.history, history_key);
  txn->RecordUpdate(t.main, key, old_row, full);

  MerkleBuilder* merkle = txn->MerkleForTable(t.table_id);
  merkle->AddLeafHash(VersionLeaf(t, retired, RowOp::kDelete, txn->id(),
                                  seq_del));
  merkle->AddLeafHash(VersionLeaf(t, full, RowOp::kInsert, txn->id(),
                                  seq_ins));
  return Status::OK();
}

}  // namespace sqlledger

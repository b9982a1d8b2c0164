#include "ledger/ledger_table.h"

#include "ledger/row_serializer.h"

namespace sqlledger {

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

Result<Row> PadVersion(const LedgerTableRef& t, const Row& user_row,
                       uint64_t txn_id, uint64_t seq) {
  const Schema& schema = t.main->schema();
  if (t.kind == TableKind::kRegular) return schema.PadRow(user_row);
  return schema.PadRow(
      user_row,
      {{static_cast<size_t>(t.plan->start_txn_ord),
        Value::BigInt(static_cast<int64_t>(txn_id))},
       {static_cast<size_t>(t.plan->start_seq_ord),
        Value::BigInt(static_cast<int64_t>(seq))}});
}

Status LedgerInsert(Transaction* txn, const LedgerTableRef& t,
                    const Row& user_row) {
  if (!txn->active()) return Status::InvalidArgument("transaction not active");
  // The version takes the next sequence number once it pads.
  const uint64_t seq = txn->sequence_count();
  auto full = PadVersion(t, user_row, txn->id(), seq);
  if (!full.ok()) return full.status();
  KeyTuple key = t.main->KeyOf(*full);

  if (t.kind == TableKind::kRegular) {
    SL_RETURN_IF_ERROR(t.main->Insert(std::move(*full)));
    txn->RecordInsert(t.main, key, user_row);
    return Status::OK();
  }

  // The leaf is hashed before the version moves into the store; it joins
  // the tree only if the insert succeeds.
  txn->NextSequence();
  const Hash256 leaf = VersionLeaf(t, *full, RowOp::kInsert, txn->id(), seq);
  SL_RETURN_IF_ERROR(t.main->Insert(std::move(*full)));
  txn->RecordInsert(t.main, key, user_row, seq);
  txn->MerkleForTable(t.table_id)->AddLeafHash(leaf);
  return Status::OK();
}

Result<KeyTuple> RetireVersion(const LedgerTableRef& t, const Row& current,
                               uint64_t txn_id, uint64_t seq,
                               MerkleBuilder* merkle) {
  Row version = current.With(
      {{static_cast<size_t>(t.plan->end_txn_ord),
        Value::BigInt(static_cast<int64_t>(txn_id))},
       {static_cast<size_t>(t.plan->end_seq_ord),
        Value::BigInt(static_cast<int64_t>(seq))}});
  KeyTuple key = t.history->KeyOf(version);
  Hash256 leaf = VersionLeaf(t, version, RowOp::kDelete, txn_id, seq);
  SL_RETURN_IF_ERROR(t.history->Insert(std::move(version)));
  merkle->AddLeafHash(leaf);
  return key;
}

Status LedgerDelete(Transaction* txn, const LedgerTableRef& t,
                    const KeyTuple& key) {
  if (!txn->active()) return Status::InvalidArgument("transaction not active");
  if (t.kind == TableKind::kAppendOnly)
    return Status::NotSupported(
        "DELETE is not allowed on append-only ledger tables");

  auto current = t.main->GetCopy(key);
  if (!current.has_value()) return Status::NotFound("row not found");
  SL_RETURN_IF_ERROR(t.main->Delete(key));
  if (t.kind == TableKind::kRegular) {
    txn->RecordDelete(t.main, key, *current);
    return Status::OK();
  }

  uint64_t seq = txn->NextSequence();
  txn->RecordDelete(t.main, key, *current, seq);
  auto history_key = RetireVersion(t, *current, txn->id(), seq,
                                   txn->MerkleForTable(t.table_id));
  if (!history_key.ok()) return history_key.status();
  txn->RecordRetire(t.history, *history_key);
  return Status::OK();
}

Status LedgerUpdate(Transaction* txn, const LedgerTableRef& t,
                    const Row& user_row) {
  if (!txn->active()) return Status::InvalidArgument("transaction not active");
  if (t.kind == TableKind::kAppendOnly)
    return Status::NotSupported(
        "UPDATE is not allowed on append-only ledger tables");

  // An update takes two sequence numbers once its row is found: the
  // retire's, then the install's (UpdateRetireSeq).
  const uint64_t seq = txn->sequence_count() + 1;
  auto padded = PadVersion(t, user_row, txn->id(), seq);
  if (!padded.ok()) return padded.status();
  const Row& full = *padded;
  KeyTuple key = t.main->KeyOf(full);

  auto current = t.main->GetCopy(key);
  if (!current.has_value()) return Status::NotFound("row not found");

  if (t.kind == TableKind::kRegular) {
    SL_RETURN_IF_ERROR(t.main->Update(full));
    txn->RecordUpdate(t.main, key, *current, user_row);
    return Status::OK();
  }

  // The update retires the old version into the history table (the delete
  // half, paper §3.2) and installs the new one. The install runs first: it
  // makes every check that can fail (types, lengths, NULLs, unique
  // indexes), so a rejected update writes nothing. The history key
  // (end_txn, end_seq) is fresh, so the retire cannot collide.
  txn->NextSequence();  // the retire's: UpdateRetireSeq(seq)
  txn->NextSequence();
  SL_RETURN_IF_ERROR(t.main->Update(full));
  txn->RecordUpdate(t.main, key, *current, user_row, UpdateRetireSeq(seq));

  MerkleBuilder* merkle = txn->MerkleForTable(t.table_id);
  auto history_key = RetireVersion(t, *current, txn->id(),
                                   UpdateRetireSeq(seq), merkle);
  if (!history_key.ok()) return history_key.status();
  txn->RecordRetire(t.history, *history_key);
  merkle->AddLeafHash(VersionLeaf(t, full, RowOp::kInsert, txn->id(), seq));
  return Status::OK();
}

}  // namespace sqlledger

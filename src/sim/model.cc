#include "sim/model.h"

#include <algorithm>

#include "crypto/merkle.h"
#include "ledger/row_serializer.h"

namespace sqlledger {
namespace sim {

Hash256 NaiveMerkleRoot(std::vector<Hash256> leaves) {
  if (leaves.empty()) return Hash256{};
  while (leaves.size() > 1) {
    std::vector<Hash256> next;
    for (size_t i = 0; i < leaves.size(); i += 2) {
      if (i + 1 < leaves.size()) {
        next.push_back(MerkleNodeHash(leaves[i], leaves[i + 1]));
      } else {
        next.push_back(leaves[i]);  // lone node promoted unchanged
      }
    }
    leaves = std::move(next);
  }
  return leaves[0];
}

// ---- Tables ----

Status ReferenceModel::CreateTable(const std::string& name,
                                   const Schema& user_schema,
                                   TableKind kind) {
  if (by_name_.count(name))
    return Status::AlreadyExists("table '" + name + "' already exists");
  auto t = std::make_unique<Table>();
  t->name = name;
  t->kind = kind;
  t->table_id = next_table_id_++;
  // Re-derive the full physical schema the plain way: user columns, then
  // the hidden ledger pair(s), in declaration order.
  t->schema = user_schema;
  if (kind != TableKind::kRegular) {
    t->schema.AddColumn(kColStartTxn, DataType::kBigInt, true, 0, true);
    t->schema.AddColumn(kColStartSeq, DataType::kBigInt, true, 0, true);
    if (kind == TableKind::kUpdateable) {
      t->schema.AddColumn(kColEndTxn, DataType::kBigInt, true, 0, true);
      t->schema.AddColumn(kColEndSeq, DataType::kBigInt, true, 0, true);
    }
  }
  if (kind == TableKind::kUpdateable) {
    t->history_table_id = next_table_id_++;
    t->history_schema = t->schema;
    int end_txn = t->history_schema.FindColumn(kColEndTxn);
    int end_seq = t->history_schema.FindColumn(kColEndSeq);
    t->history_schema.SetPrimaryKey(
        {static_cast<size_t>(end_txn), static_cast<size_t>(end_seq)});
  }
  by_name_[name] = t->table_id;
  tables_[t->table_id] = std::move(t);
  return Status::OK();
}

Status ReferenceModel::AddColumn(const std::string& name,
                                 const std::string& column, DataType type,
                                 uint32_t max_length) {
  Table* t = FindTable(name);
  if (t == nullptr) return Status::NotFound("table '" + name + "' not found");
  if (t->schema.FindColumn(column) >= 0)
    return Status::AlreadyExists("column '" + column + "' already exists");
  t->schema.AddColumn(column, type, /*nullable=*/true, max_length);
  for (auto& [key, row] : t->rows) row = row.Extended(Value::Null(type));
  if (t->history_table_id != 0) {
    t->history_schema.AddColumn(column, type, true, max_length);
    for (auto& [key, row] : t->history)
      row = row.Extended(Value::Null(type));
  }
  return Status::OK();
}

Status ReferenceModel::DropColumn(const std::string& name,
                                  const std::string& column) {
  Table* t = FindTable(name);
  if (t == nullptr) return Status::NotFound("table '" + name + "' not found");
  int ord = t->schema.FindColumn(column);
  if (ord < 0) return Status::NotFound("column '" + column + "' not found");
  if (t->schema.column(ord).hidden)
    return Status::InvalidArgument("cannot drop a system column");
  for (size_t key_ord : t->schema.key_ordinals()) {
    if (static_cast<int>(key_ord) == ord)
      return Status::InvalidArgument("cannot drop a primary-key column");
  }
  t->schema.mutable_column(ord)->dropped = true;
  if (t->history_table_id != 0) {
    int h = t->history_schema.FindColumn(column);
    if (h >= 0) t->history_schema.mutable_column(h)->dropped = true;
  }
  return Status::OK();
}

ReferenceModel::Table* ReferenceModel::FindTable(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return tables_.at(it->second).get();
}

ReferenceModel::Table* ReferenceModel::FindTableById(uint32_t table_id) {
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second.get();
}

// ---- Transactions ----

uint64_t ReferenceModel::BeginTxn(const std::string& user) {
  txn_ = std::make_unique<Txn>();
  txn_->id = next_txn_id_++;
  txn_->user = user;
  return txn_->id;
}

std::map<KeyTuple, Row, KeyTupleLess>* ReferenceModel::ResolveStore(
    uint32_t table_id, bool history) {
  Table* t = FindTableById(table_id);
  if (t == nullptr) return nullptr;
  return history ? &t->history : &t->rows;
}

Status ReferenceModel::Insert(const std::string& table, const Row& user_row) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table '" + table + "' not found");
  auto padded = t->schema.PadRow(user_row);
  if (!padded.ok()) return padded.status();
  Row full = std::move(*padded);

  if (t->kind == TableKind::kRegular) {
    KeyTuple key = t->schema.ExtractKey(full);
    if (t->rows.count(key))
      return Status::AlreadyExists("duplicate primary key");
    t->rows[key] = full;
    txn_->undo.push_back({UndoRec::Kind::kInsert, t->table_id, false, key, {}});
    txn_->op_count++;
    return Status::OK();
  }

  // The sequence number is consumed before the duplicate check, exactly as
  // the production DML layer does (store insert fails after NextSequence).
  uint64_t seq = txn_->next_seq++;
  int start_txn = t->schema.FindColumn(kColStartTxn);
  int start_seq = t->schema.FindColumn(kColStartSeq);
  full[start_txn] = Value::BigInt(static_cast<int64_t>(txn_->id));
  full[start_seq] = Value::BigInt(static_cast<int64_t>(seq));
  KeyTuple key = t->schema.ExtractKey(full);
  if (t->rows.count(key)) return Status::AlreadyExists("duplicate primary key");
  t->rows[key] = full;
  txn_->undo.push_back({UndoRec::Kind::kInsert, t->table_id, false, key, {}});
  txn_->op_count++;
  txn_->leaves[t->table_id].push_back(RowVersionLeafHash(
      t->schema, full, RowOp::kInsert, t->table_id, txn_->id, seq));
  return Status::OK();
}

Status ReferenceModel::Update(const std::string& table, const Row& user_row) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table '" + table + "' not found");
  if (t->kind == TableKind::kAppendOnly)
    return Status::NotSupported(
        "UPDATE is not allowed on append-only ledger tables");
  auto padded = t->schema.PadRow(user_row);
  if (!padded.ok()) return padded.status();
  Row full = std::move(*padded);
  KeyTuple key = t->schema.ExtractKey(full);
  auto it = t->rows.find(key);
  if (it == t->rows.end()) return Status::NotFound("row not found");

  if (t->kind == TableKind::kRegular) {
    Row old_row = it->second;
    it->second = full;
    txn_->undo.push_back(
        {UndoRec::Kind::kUpdate, t->table_id, false, key, old_row});
    txn_->op_count++;
    return Status::OK();
  }

  Row old_row = it->second;
  int start_txn = t->schema.FindColumn(kColStartTxn);
  int start_seq = t->schema.FindColumn(kColStartSeq);
  int end_txn = t->schema.FindColumn(kColEndTxn);
  int end_seq = t->schema.FindColumn(kColEndSeq);

  // Retire the old version into history (delete half of the update)...
  uint64_t seq_del = txn_->next_seq++;
  Row retired = old_row;
  retired[end_txn] = Value::BigInt(static_cast<int64_t>(txn_->id));
  retired[end_seq] = Value::BigInt(static_cast<int64_t>(seq_del));
  KeyTuple hkey = t->history_schema.ExtractKey(retired);
  t->history[hkey] = retired;
  txn_->undo.push_back({UndoRec::Kind::kInsert, t->table_id, true, hkey, {}});
  txn_->op_count++;

  // ...then install the new version.
  uint64_t seq_ins = txn_->next_seq++;
  full[start_txn] = Value::BigInt(static_cast<int64_t>(txn_->id));
  full[start_seq] = Value::BigInt(static_cast<int64_t>(seq_ins));
  it->second = full;
  txn_->undo.push_back(
      {UndoRec::Kind::kUpdate, t->table_id, false, key, old_row});
  txn_->op_count++;

  auto& leaves = txn_->leaves[t->table_id];
  leaves.push_back(RowVersionLeafHash(t->schema, retired, RowOp::kDelete,
                                      t->table_id, txn_->id, seq_del));
  leaves.push_back(RowVersionLeafHash(t->schema, full, RowOp::kInsert,
                                      t->table_id, txn_->id, seq_ins));
  return Status::OK();
}

Status ReferenceModel::Delete(const std::string& table, const KeyTuple& key) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table '" + table + "' not found");
  if (t->kind == TableKind::kAppendOnly)
    return Status::NotSupported(
        "DELETE is not allowed on append-only ledger tables");
  auto it = t->rows.find(key);
  if (it == t->rows.end()) return Status::NotFound("row not found");

  if (t->kind == TableKind::kRegular) {
    Row old_row = it->second;
    t->rows.erase(it);
    txn_->undo.push_back(
        {UndoRec::Kind::kDelete, t->table_id, false, key, old_row});
    txn_->op_count++;
    return Status::OK();
  }

  Row old_row = it->second;
  int end_txn = t->schema.FindColumn(kColEndTxn);
  int end_seq = t->schema.FindColumn(kColEndSeq);
  uint64_t seq = txn_->next_seq++;
  Row retired = old_row;
  retired[end_txn] = Value::BigInt(static_cast<int64_t>(txn_->id));
  retired[end_seq] = Value::BigInt(static_cast<int64_t>(seq));

  t->rows.erase(it);
  txn_->undo.push_back(
      {UndoRec::Kind::kDelete, t->table_id, false, key, old_row});
  txn_->op_count++;
  KeyTuple hkey = t->history_schema.ExtractKey(retired);
  t->history[hkey] = retired;
  txn_->undo.push_back({UndoRec::Kind::kInsert, t->table_id, true, hkey, {}});
  txn_->op_count++;

  txn_->leaves[t->table_id].push_back(RowVersionLeafHash(
      t->schema, retired, RowOp::kDelete, t->table_id, txn_->id, seq));
  return Status::OK();
}

Row ReferenceModel::VisibleProjection(const Table& t, const Row& full) const {
  return full.Project(t.schema.VisibleOrdinals());
}

Result<Row> ReferenceModel::Get(const std::string& table,
                                const KeyTuple& key) const {
  auto it = by_name_.find(table);
  if (it == by_name_.end())
    return Status::NotFound("table '" + table + "' not found");
  const Table& t = *tables_.at(it->second);
  auto row = t.rows.find(key);
  if (row == t.rows.end()) return Status::NotFound("row not found");
  return VisibleProjection(t, row->second);
}

Result<std::vector<Row>> ReferenceModel::Scan(const std::string& table) const {
  auto it = by_name_.find(table);
  if (it == by_name_.end())
    return Status::NotFound("table '" + table + "' not found");
  const Table& t = *tables_.at(it->second);
  std::vector<Row> out;
  for (const auto& [key, row] : t.rows)
    out.push_back(VisibleProjection(t, row));
  return out;
}

Status ReferenceModel::Savepoint(const std::string& name) {
  if (txn_ == nullptr) return Status::InvalidArgument("transaction not active");
  SavepointRec sp;
  sp.name = name;
  sp.undo_size = txn_->undo.size();
  sp.op_count = txn_->op_count;
  sp.next_seq = txn_->next_seq;
  for (const auto& [table_id, leaves] : txn_->leaves)
    sp.leaf_sizes[table_id] = leaves.size();
  txn_->savepoints.push_back(std::move(sp));
  return Status::OK();
}

Status ReferenceModel::RollbackToSavepoint(const std::string& name) {
  if (txn_ == nullptr) return Status::InvalidArgument("transaction not active");
  int found = -1;
  for (int i = static_cast<int>(txn_->savepoints.size()) - 1; i >= 0; i--) {
    if (txn_->savepoints[i].name == name) {
      found = i;
      break;
    }
  }
  if (found < 0) return Status::NotFound("savepoint '" + name + "' not found");
  SavepointRec& sp = txn_->savepoints[found];
  ApplyUndo(sp.undo_size);
  txn_->op_count = sp.op_count;
  txn_->next_seq = sp.next_seq;
  for (auto it = txn_->leaves.begin(); it != txn_->leaves.end();) {
    auto size_it = sp.leaf_sizes.find(it->first);
    if (size_it == sp.leaf_sizes.end()) {
      it = txn_->leaves.erase(it);
    } else {
      it->second.resize(size_it->second);
      ++it;
    }
  }
  txn_->savepoints.resize(static_cast<size_t>(found) + 1);
  return Status::OK();
}

void ReferenceModel::ApplyUndo(size_t from) {
  while (txn_->undo.size() > from) {
    UndoRec& u = txn_->undo.back();
    auto* store = ResolveStore(u.table_id, u.history);
    if (store != nullptr) {
      switch (u.kind) {
        case UndoRec::Kind::kInsert:
          store->erase(u.key);
          break;
        case UndoRec::Kind::kUpdate:
        case UndoRec::Kind::kDelete:
          (*store)[u.key] = u.old_row;
          break;
      }
    }
    txn_->undo.pop_back();
  }
}

void ReferenceModel::AbortTxn() {
  if (txn_ == nullptr) return;
  ApplyUndo(0);
  txn_.reset();
}

ReferenceModel::CommitOutcome ReferenceModel::PrepareCommit(
    int64_t commit_ts) {
  CommitOutcome out;
  if (txn_ == nullptr || txn_->op_count == 0) return out;
  out.has_entry = true;
  out.entry.txn_id = txn_->id;
  out.entry.block_id = chain_.open_block_id;
  out.entry.block_ordinal = chain_.next_ordinal;
  out.entry.commit_ts_micros = commit_ts;
  out.entry.user_name = txn_->user;
  for (const auto& [table_id, leaves] : txn_->leaves) {
    if (leaves.empty()) continue;  // fully rolled back
    std::vector<Hash256> ordered = leaves;
    if (config_.break_hash_order)
      std::reverse(ordered.begin(), ordered.end());
    out.entry.table_roots.emplace_back(table_id,
                                       NaiveMerkleRoot(std::move(ordered)));
  }
  return out;
}

void ReferenceModel::FinalizeCommit() { txn_.reset(); }

void ReferenceModel::UndoCommit() {
  if (txn_ == nullptr) return;
  ApplyUndo(0);
  txn_.reset();
}

// ---- Chain ----

Status ReferenceModel::OnEntryAppended(const TransactionEntry& entry) {
  if (entry.block_id != chain_.open_block_id)
    return Status::Internal(
        "model: entry for block " + std::to_string(entry.block_id) +
        " but open block is " + std::to_string(chain_.open_block_id));
  if (entry.block_ordinal != chain_.next_ordinal)
    return Status::Internal(
        "model: entry ordinal " + std::to_string(entry.block_ordinal) +
        " but next expected is " + std::to_string(chain_.next_ordinal));
  chain_.last_commit_ts = entry.commit_ts_micros;
  chain_.entries.push_back(entry);
  chain_.open_entries.push_back(entry);
  chain_.next_ordinal++;
  if (chain_.open_entries.size() >= config_.block_size) CloseBlock();
  return Status::OK();
}

Hash256 ReferenceModel::ExpectedBlockRoot(
    const std::vector<TransactionEntry>& entries) const {
  std::vector<Hash256> leaves;
  leaves.reserve(entries.size());
  for (const TransactionEntry& e : entries) leaves.push_back(e.LeafHash());
  return NaiveMerkleRoot(std::move(leaves));
}

void ReferenceModel::CloseBlock() {
  BlockRecord block;
  block.block_id = chain_.open_block_id;
  block.previous_block_hash = chain_.last_block_hash;
  block.transactions_root = ExpectedBlockRoot(chain_.open_entries);
  block.transaction_count = chain_.open_entries.size();
  block.closed_ts_micros = chain_.open_entries.empty()
                               ? 0
                               : chain_.open_entries.back().commit_ts_micros;
  chain_.last_block_hash = block.ComputeHash();
  chain_.blocks.push_back(std::move(block));
  chain_.open_block_id++;
  chain_.next_ordinal = 0;
  chain_.open_entries.clear();
}

DatabaseDigest ReferenceModel::ExpectedDigest(const std::string& database_id,
                                              const std::string& create_time) {
  if (!chain_.open_entries.empty() || chain_.blocks.empty()) CloseBlock();
  DatabaseDigest digest;
  digest.database_id = database_id;
  digest.database_create_time = create_time;
  digest.block_id = chain_.open_block_id - 1;
  digest.block_hash = chain_.last_block_hash;
  digest.last_commit_ts_micros = chain_.last_commit_ts;
  return digest;
}

void ReferenceModel::SetChainState(ChainState state) {
  chain_ = std::move(state);
}

void ReferenceModel::ReplaceTableContents(
    const std::string& name, std::map<KeyTuple, Row, KeyTupleLess> rows,
    std::map<KeyTuple, Row, KeyTupleLess> history) {
  Table* t = FindTable(name);
  if (t == nullptr) return;
  t->rows = std::move(rows);
  t->history = std::move(history);
}

// ---- Derived expectations ----

Result<std::vector<ReferenceModel::ViewRow>>
ReferenceModel::ExpectedLedgerView(const std::string& table) const {
  auto it = by_name_.find(table);
  if (it == by_name_.end())
    return Status::NotFound("table '" + table + "' not found");
  const Table& t = *tables_.at(it->second);
  if (t.kind == TableKind::kRegular)
    return Status::InvalidArgument("table is not a ledger table");

  int start_txn = t.schema.FindColumn(kColStartTxn);
  int start_seq = t.schema.FindColumn(kColStartSeq);
  int end_txn = t.schema.FindColumn(kColEndTxn);
  int end_seq = t.schema.FindColumn(kColEndSeq);

  std::vector<ViewRow> out;
  auto append_ops = [&](const Row& row, bool include_delete) {
    if (!row[start_txn].is_null()) {
      ViewRow v;
      v.values = VisibleProjection(t, row);
      v.operation = "INSERT";
      v.transaction_id = static_cast<uint64_t>(row[start_txn].AsInt64());
      v.sequence_number = static_cast<uint64_t>(row[start_seq].AsInt64());
      out.push_back(std::move(v));
    }
    if (include_delete && end_txn >= 0 && !row[end_txn].is_null()) {
      ViewRow v;
      v.values = VisibleProjection(t, row);
      v.operation = "DELETE";
      v.transaction_id = static_cast<uint64_t>(row[end_txn].AsInt64());
      v.sequence_number = static_cast<uint64_t>(row[end_seq].AsInt64());
      out.push_back(std::move(v));
    }
  };
  for (const auto& [key, row] : t.rows) append_ops(row, false);
  for (const auto& [key, row] : t.history) append_ops(row, true);
  std::sort(out.begin(), out.end(), [](const ViewRow& a, const ViewRow& b) {
    if (a.transaction_id != b.transaction_id)
      return a.transaction_id < b.transaction_id;
    return a.sequence_number < b.sequence_number;
  });
  return out;
}

}  // namespace sim
}  // namespace sqlledger

#include "txn/transaction.h"

namespace sqlledger {

void Transaction::PushUndo(WalOpType type, TableStore* table,
                           const KeyTuple& key, Row old_row) {
  roots_finalized_ = false;
  UndoEntry undo;
  undo.type = type;
  undo.table = table;
  undo.key = key;
  undo.old_row = std::move(old_row);
  undo_.push_back(std::move(undo));
}

void Transaction::PushRedo(WalOp op, std::optional<uint64_t> first_seq,
                           uint64_t count) {
  if (first_seq.has_value()) {
    op.seq_gap = *first_seq - logged_sequence_;
    logged_sequence_ = *first_seq + count;
  }
  ops_.push_back(std::move(op));
}

void Transaction::RecordInsert(TableStore* table, const KeyTuple& key,
                               const Row& user_row,
                               std::optional<uint64_t> first_seq) {
  WalOp op;
  op.type = WalOpType::kInsert;
  op.table_id = table->table_id();
  op.new_row = user_row;
  PushRedo(std::move(op), first_seq, 1);
  PushUndo(WalOpType::kInsert, table, key);
}

void Transaction::RecordUpdate(TableStore* table, const KeyTuple& key,
                               const Row& old_row, const Row& user_row,
                               std::optional<uint64_t> first_seq) {
  WalOp op;
  op.type = WalOpType::kUpdate;
  op.table_id = table->table_id();
  op.new_row = user_row;
  PushRedo(std::move(op), first_seq, 2);
  PushUndo(WalOpType::kUpdate, table, key, old_row);
}

void Transaction::RecordDelete(TableStore* table, const KeyTuple& key,
                               const Row& old_row,
                               std::optional<uint64_t> first_seq) {
  WalOp op;
  op.type = first_seq.has_value() ? WalOpType::kLedgerDelete
                                  : WalOpType::kDelete;
  op.table_id = table->table_id();
  op.key = key;
  PushRedo(std::move(op), first_seq, 1);
  PushUndo(WalOpType::kDelete, table, key, old_row);
}

void Transaction::RecordRetire(TableStore* history, const KeyTuple& key) {
  PushUndo(WalOpType::kInsert, history, key);
}

void Transaction::RecordDefinition(
    uint32_t table_id, std::shared_ptr<const TableDefinition> definition) {
  WalOp op;
  op.type = WalOpType::kDefineTable;
  op.table_id = table_id;
  op.definition = std::move(definition);
  ops_.push_back(std::move(op));
  defines_tables_ = true;
}

MerkleBuilder* Transaction::MerkleForTable(uint32_t table_id) {
  return &merkle_[table_id];
}

std::vector<std::pair<uint32_t, Hash256>> Transaction::TableRoots() const {
  if (roots_finalized_) return finalized_roots_;
  std::vector<std::pair<uint32_t, Hash256>> roots;
  roots.reserve(merkle_.size());
  for (const auto& [table_id, builder] : merkle_) {
    if (builder.leaf_count() == 0) continue;  // fully rolled back
    roots.emplace_back(table_id, builder.Root());
  }
  return roots;
}

void Transaction::FinalizeForCommit() {
  if (roots_finalized_) return;
  finalized_roots_ = TableRoots();
  roots_finalized_ = true;
}

Status Transaction::CreateSavepoint(const std::string& name) {
  if (!active()) return Status::InvalidArgument("transaction not active");
  SavepointRecord sp;
  sp.name = name;
  sp.undo_size = undo_.size();
  sp.ops_size = ops_.size();
  sp.next_sequence = next_sequence_;
  sp.logged_sequence = logged_sequence_;
  for (const auto& [table_id, builder] : merkle_)
    sp.merkle_states[table_id] = builder.GetState();
  savepoints_.push_back(std::move(sp));
  return Status::OK();
}

Status Transaction::RollbackToSavepoint(const std::string& name) {
  if (!active()) return Status::InvalidArgument("transaction not active");
  int found = -1;
  for (int i = static_cast<int>(savepoints_.size()) - 1; i >= 0; i--) {
    if (savepoints_[i].name == name) {
      found = i;
      break;
    }
  }
  if (found < 0) return Status::NotFound("savepoint '" + name + "' not found");
  SavepointRecord& sp = savepoints_[found];

  UndoRange(sp.undo_size);
  ops_.resize(sp.ops_size);
  roots_finalized_ = false;
  next_sequence_ = sp.next_sequence;
  logged_sequence_ = sp.logged_sequence;

  // Restore Merkle builders: tables captured in the savepoint get their
  // snapshot back; tables first touched after the savepoint are discarded.
  for (auto it = merkle_.begin(); it != merkle_.end();) {
    auto state_it = sp.merkle_states.find(it->first);
    if (state_it == sp.merkle_states.end()) {
      it = merkle_.erase(it);
    } else {
      it->second.RestoreState(state_it->second);
      ++it;
    }
  }
  // Discard savepoints created after this one (keep the target itself).
  savepoints_.resize(static_cast<size_t>(found) + 1);
  return Status::OK();
}

void Transaction::UndoRange(size_t from) {
  while (undo_.size() > from) {
    UndoEntry& e = undo_.back();
    // Undo entries mirror operations that were applied under this
    // transaction's locks, so reversing them cannot fail.
    switch (e.type) {
      case WalOpType::kInsert:
        (void)e.table->Delete(e.key);  // cannot fail; see above
        break;
      case WalOpType::kUpdate:
        (void)e.table->Update(e.old_row);  // cannot fail; see above
        break;
      case WalOpType::kDelete:
        (void)e.table->Insert(e.old_row);  // cannot fail; see above
        break;
      case WalOpType::kDefineTable:  // has no undo entry
      case WalOpType::kLedgerDelete:  // undone as kDelete
        break;
    }
    undo_.pop_back();
  }
}

void Transaction::Abort() {
  if (state_ != State::kActive) return;
  UndoRange(0);
  ops_.clear();
  merkle_.clear();
  roots_finalized_ = false;
  savepoints_.clear();
  state_ = State::kAborted;
}

}  // namespace sqlledger

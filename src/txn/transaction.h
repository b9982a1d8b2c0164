// Transactions. A transaction applies its changes eagerly to table stores
// under strict two-phase hierarchical locks, accumulating:
//   - redo operations (become the WAL commit record),
//   - undo entries (reverse-applied on abort or partial rollback),
//   - one streaming Merkle tree per ledger table touched (paper §3.2), and
//   - a per-transaction operation sequence counter (paper §3.1).
//
// Savepoints snapshot the undo/redo positions, the sequence counter, and
// the O(log N) Merkle builder states (paper §3.2.1), so partial rollback is
// cheap regardless of how many rows were updated.

#ifndef SQLLEDGER_TXN_TRANSACTION_H_
#define SQLLEDGER_TXN_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "storage/table_store.h"
#include "storage/wal.h"
#include "util/status.h"

namespace sqlledger {

class Transaction {
 public:
  enum class State { kActive, kCommitted, kAborted };

  Transaction(uint64_t id, std::string user_name)
      : id_(id), user_name_(std::move(user_name)) {}

  uint64_t id() const { return id_; }
  const std::string& user_name() const { return user_name_; }
  State state() const { return state_; }
  bool active() const { return state_ == State::kActive; }

  /// Next per-transaction operation sequence number (paper §3.1): row
  /// versions are hashed in the order they were updated, and verification
  /// must replay the same order.
  uint64_t NextSequence() { return next_sequence_++; }
  uint64_t sequence_count() const { return next_sequence_; }

  // ---- Change tracking (called by the DML layer) ----

  /// Records a redo op for the WAL and the matching undo entry. An insert
  /// or update logs `user_row`, the row the statement passed, which replay
  /// pads again; `key` is the row's clustered key, which only the undo
  /// entry and a delete's redo op keep. On a ledger table `first_seq` is
  /// the first sequence number the statement took: an insert's version's,
  /// an update's retired version's (it installs at the next), a delete's
  /// retired version's (a ledger delete, from which replay rebuilds the
  /// history row). The redo op logs only its gap from the numbers the ops
  /// before it took (WalOp).
  void RecordInsert(TableStore* table, const KeyTuple& key,
                    const Row& user_row,
                    std::optional<uint64_t> first_seq = std::nullopt);
  void RecordUpdate(TableStore* table, const KeyTuple& key, const Row& old_row,
                    const Row& user_row,
                    std::optional<uint64_t> first_seq = std::nullopt);
  void RecordDelete(TableStore* table, const KeyTuple& key, const Row& old_row,
                    std::optional<uint64_t> first_seq = std::nullopt);
  /// Records the insert of a retired version into a history store. It has
  /// an undo entry but no redo op: replay rebuilds the history row from the
  /// pre-image of the ledger update or delete that retired it.
  void RecordRetire(TableStore* history, const KeyTuple& key);
  /// Records a table's definition after a schema change, ahead of any row
  /// op that depends on it. It has no undo entry: an aborted schema change
  /// keeps its in-memory effect.
  void RecordDefinition(uint32_t table_id,
                        std::shared_ptr<const TableDefinition> definition);
  /// Whether the transaction logs a schema change, which is synced at
  /// commit even when ordinary commits are not.
  bool defines_tables() const { return defines_tables_; }

  /// Streaming Merkle tree for the given ledger table; created on first use.
  MerkleBuilder* MerkleForTable(uint32_t table_id);
  /// (table id, root) pairs for all ledger tables touched, id-ordered —
  /// the transaction entry payload recorded in the Database Ledger.
  /// Returns the cached roots after FinalizeForCommit.
  std::vector<std::pair<uint32_t, Hash256>> TableRoots() const;

  /// Computes and caches the per-table Merkle roots. The commit pipeline
  /// calls this before the transaction joins a commit group, so the root
  /// computation (the SHA-heavy part of commit) runs outside every lock and
  /// concurrent committers finalize in parallel. Any later DML or partial
  /// rollback invalidates the cache.
  void FinalizeForCommit();

  const std::vector<WalOp>& ops() const { return ops_; }

  // ---- Savepoints (paper §3.2.1) ----

  Status CreateSavepoint(const std::string& name);
  /// Reverts table stores, redo ops, sequence counter and Merkle trees to
  /// the state captured by the savepoint. Later savepoints are discarded;
  /// the named savepoint itself remains available.
  Status RollbackToSavepoint(const std::string& name);

  // ---- Terminal transitions (called by the database facade) ----

  /// Reverse-applies all undo entries. Idempotent once aborted.
  void Abort();
  void MarkCommitted() { state_ = State::kCommitted; }

 private:
  struct UndoEntry {
    WalOpType type;
    TableStore* table;
    KeyTuple key;
    Row old_row;  // pre-image for update/delete
  };

  struct SavepointRecord {
    std::string name;
    size_t undo_size;
    size_t ops_size;
    uint64_t next_sequence;
    uint64_t logged_sequence;
    std::map<uint32_t, MerkleBuilderState> merkle_states;
  };

  void PushUndo(WalOpType type, TableStore* table, const KeyTuple& key,
                Row old_row = Row());
  void UndoRange(size_t from);
  /// Appends a redo op and, when the op takes `count` sequence numbers
  /// from `first_seq`, sets its gap and advances logged_sequence_.
  void PushRedo(WalOp op, std::optional<uint64_t> first_seq, uint64_t count);

  uint64_t id_;
  std::string user_name_;
  State state_ = State::kActive;
  uint64_t next_sequence_ = 0;
  // Where replay's sequence counter stands after the logged ops: the
  // number after the last one a logged op took.
  uint64_t logged_sequence_ = 0;
  std::vector<WalOp> ops_;
  std::vector<UndoEntry> undo_;
  std::map<uint32_t, MerkleBuilder> merkle_;
  std::vector<SavepointRecord> savepoints_;
  bool defines_tables_ = false;
  // FinalizeForCommit cache; invalidated by DML and partial rollback.
  bool roots_finalized_ = false;
  std::vector<std::pair<uint32_t, Hash256>> finalized_roots_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_TXN_TRANSACTION_H_

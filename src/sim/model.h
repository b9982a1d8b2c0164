// The reference model: a deliberately plain re-implementation of ledger
// semantics used as the oracle in differential testing. It keeps full
// physical rows in std::maps, recomputes every Merkle root recursively from
// flat leaf lists (never through the production MerkleBuilder/MerkleTree),
// and rebuilds the block chain with the obvious O(n) bookkeeping. Shared
// with production code are only the pure canonical-serialization primitives
// (RowVersionLeafHash, TransactionEntry::LeafHash, BlockRecord::ComputeHash,
// MerkleLeafHash/MerkleNodeHash) — that is the declared oracle boundary:
// the simulator tests orchestration (stamping, sequencing, savepoints,
// chain growth, recovery, truncation), not the byte format itself, which
// has its own vector tests.

#ifndef SQLLEDGER_SIM_MODEL_H_
#define SQLLEDGER_SIM_MODEL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "crypto/sha256.h"
#include "ledger/digest.h"
#include "ledger/types.h"
#include "util/result.h"

namespace sqlledger {
namespace sim {

/// Naive recursive Merkle root over already-domain-separated leaf hashes:
/// pairwise reduction with lone-node promotion, recomputed from scratch on
/// every call. Matches MerkleBuilder/MerkleTree by construction of the
/// specification, not by sharing code.
Hash256 NaiveMerkleRoot(std::vector<Hash256> leaves);

class ReferenceModel {
 public:
  struct Config {
    uint64_t block_size = 8;
    /// Self-test hook: compute per-table transaction roots over the leaf
    /// list in *reverse* order — a one-line hash-order bug the harness must
    /// catch on the first committed transaction.
    bool break_hash_order = false;
  };

  struct Table {
    std::string name;
    uint32_t table_id = 0;
    uint32_t history_table_id = 0;  // 0 = no history table
    TableKind kind = TableKind::kRegular;
    Schema schema;          // full physical schema (hidden columns included)
    Schema history_schema;  // updateable tables only
    std::map<KeyTuple, Row, KeyTupleLess> rows;     // by primary key
    std::map<KeyTuple, Row, KeyTupleLess> history;  // by (end_txn, end_seq)
  };

  /// Snapshot of the model's chain bookkeeping, used to resolve in-doubt
  /// block closes after a crash (restore and retry both interpretations).
  struct ChainState {
    std::vector<TransactionEntry> entries;  // all appended, arrival order
    std::vector<BlockRecord> blocks;        // closed blocks, id order
    std::vector<TransactionEntry> open_entries;
    uint64_t open_block_id = 0;
    uint64_t next_ordinal = 0;
    Hash256 last_block_hash;
    int64_t last_commit_ts = 0;
  };

  /// Expected outcome of committing the open transaction.
  struct CommitOutcome {
    bool has_entry = false;
    TransactionEntry entry;  // valid when has_entry
  };

  struct ViewRow {
    Row values;
    std::string operation;  // "INSERT" / "DELETE"
    uint64_t transaction_id = 0;
    uint64_t sequence_number = 0;
  };

  explicit ReferenceModel(Config config) : config_(config) {}

  // ---- Tables / schema changes ----

  Status CreateTable(const std::string& name, const Schema& user_schema,
                     TableKind kind);
  Status AddColumn(const std::string& name, const std::string& column,
                   DataType type, uint32_t max_length);
  Status DropColumn(const std::string& name, const std::string& column);
  Table* FindTable(const std::string& name);
  Table* FindTableById(uint32_t table_id);
  const std::map<uint32_t, std::unique_ptr<Table>>& tables() const {
    return tables_;
  }
  uint32_t next_table_id() const { return next_table_id_; }
  void set_next_table_id(uint32_t id) { next_table_id_ = id; }

  // ---- Transactions ----

  uint64_t next_txn_id() const { return next_txn_id_; }
  void set_next_txn_id(uint64_t id) { next_txn_id_ = id; }
  /// Consumes txn ids taken by internal system transactions (DDL helpers,
  /// view scans) so the next BeginTxn predicts the right id.
  void ConsumeTxnIds(uint64_t n) { next_txn_id_ += n; }

  bool InTxn() const { return txn_ != nullptr; }
  uint64_t BeginTxn(const std::string& user);
  Status Insert(const std::string& table, const Row& user_row);
  Status Update(const std::string& table, const Row& user_row);
  Status Delete(const std::string& table, const KeyTuple& key);
  Result<Row> Get(const std::string& table, const KeyTuple& key) const;
  Result<std::vector<Row>> Scan(const std::string& table) const;
  Status Savepoint(const std::string& name);
  Status RollbackToSavepoint(const std::string& name);
  void AbortTxn();

  /// Computes the expected commit outcome (entry contents + slot) WITHOUT
  /// consuming the slot or discarding undo state; the driver feeds the
  /// system's actual appended entry back through OnEntryAppended and then
  /// finalizes or undoes, which is what makes in-doubt crashed commits
  /// resolvable either way.
  CommitOutcome PrepareCommit(int64_t commit_ts);
  void FinalizeCommit();  // staged table changes become permanent
  void UndoCommit();      // reverse staged changes (crash lost the commit)

  // ---- Chain ----

  /// Validates the entry against the model's next expected slot and appends
  /// it, closing the block when full. Entries from internal transactions
  /// (DDL, truncation audit) are adopted as-is; the driver separately
  /// asserts user entries match PrepareCommit's prediction.
  Status OnEntryAppended(const TransactionEntry& entry);

  /// Expected digest: closes the open block (or materializes the initial
  /// empty block) exactly like the system, using naive recomputation.
  DatabaseDigest ExpectedDigest(const std::string& database_id,
                                const std::string& create_time);

  void SetChainState(ChainState state);

  const std::vector<BlockRecord>& blocks() const { return chain_.blocks; }
  const std::vector<TransactionEntry>& entries() const {
    return chain_.entries;
  }
  const std::vector<TransactionEntry>& open_entries() const {
    return chain_.open_entries;
  }
  uint64_t open_block_id() const { return chain_.open_block_id; }
  uint64_t next_ordinal() const { return chain_.next_ordinal; }
  Hash256 last_block_hash() const { return chain_.last_block_hash; }

  /// Replaces one table's physical contents from a system scan (used by the
  /// post-truncation resync, where internal dummy updates re-stamped rows).
  void ReplaceTableContents(const std::string& name,
                            std::map<KeyTuple, Row, KeyTupleLess> rows,
                            std::map<KeyTuple, Row, KeyTupleLess> history);

  // ---- Derived expectations ----

  /// Mirror of BuildLedgerView over the model's rows + history.
  Result<std::vector<ViewRow>> ExpectedLedgerView(
      const std::string& table) const;

  /// Naive root over the entry leaf hashes of one closed block's entries.
  Hash256 ExpectedBlockRoot(const std::vector<TransactionEntry>& entries)
      const;

 private:
  struct UndoRec {
    enum class Kind { kInsert, kUpdate, kDelete } kind;
    uint32_t table_id = 0;
    bool history = false;
    KeyTuple key;
    Row old_row;  // update/delete pre-image
  };
  struct SavepointRec {
    std::string name;
    size_t undo_size = 0;
    size_t op_count = 0;
    uint64_t next_seq = 0;
    std::map<uint32_t, size_t> leaf_sizes;
  };
  struct Txn {
    uint64_t id = 0;
    std::string user;
    uint64_t next_seq = 0;
    size_t op_count = 0;  // mirrors Transaction::ops() size
    std::vector<UndoRec> undo;
    std::map<uint32_t, std::vector<Hash256>> leaves;  // per ledger table
    std::vector<SavepointRec> savepoints;
  };

  std::map<KeyTuple, Row, KeyTupleLess>* ResolveStore(uint32_t table_id,
                                                      bool history);
  void ApplyUndo(size_t from);
  void CloseBlock();
  Row VisibleProjection(const Table& t, const Row& full) const;

  Config config_;
  std::map<uint32_t, std::unique_ptr<Table>> tables_;  // by table id
  std::map<std::string, uint32_t> by_name_;
  uint32_t next_table_id_ = kFirstUserTableId;
  uint64_t next_txn_id_ = 1;
  std::unique_ptr<Txn> txn_;
  ChainState chain_;
};

}  // namespace sim
}  // namespace sqlledger

#endif  // SQLLEDGER_SIM_MODEL_H_

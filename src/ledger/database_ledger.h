// The Database Ledger (paper §2.2, §3.3): a blockchain of blocks, each
// holding the Merkle root over up to block_size transaction entries.
// Transactions and blocks are physically stored as rows in two system
// tables ("database_ledger_transactions", "database_ledger_blocks"); the
// commit path only touches in-memory state (slot assignment + queue
// append), and the queue is drained into the transactions system table at
// checkpoint time (paper §3.3.2).

#ifndef SQLLEDGER_LEDGER_DATABASE_LEDGER_H_
#define SQLLEDGER_LEDGER_DATABASE_LEDGER_H_

#include <deque>
#include <functional>
#include <vector>

#include "crypto/merkle.h"
#include "ledger/digest.h"
#include "ledger/types.h"
#include "storage/table_store.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace sqlledger {

/// Schemas for the two ledger system tables.
Schema MakeLedgerTransactionsSchema();
Schema MakeLedgerBlocksSchema();

/// Row <-> struct conversions, shared with the verifier.
Row TransactionEntryToRow(const TransactionEntry& entry);
Result<TransactionEntry> RowToTransactionEntry(const Row& row);
Row BlockRecordToRow(const BlockRecord& block);
Result<BlockRecord> RowToBlockRecord(const Row& row);

struct DatabaseLedgerOptions {
  /// Transactions per block (the paper uses 100K; benches sweep this).
  uint64_t block_size = 100000;
  /// Injectable clock (microseconds since epoch).
  std::function<int64_t()> clock;
};

class DatabaseLedger {
 public:
  /// The system table stores are owned by the database facade; the ledger
  /// reads and writes them directly (they are internal tables, not subject
  /// to user transactions).
  DatabaseLedger(TableStore* transactions_table, TableStore* blocks_table,
                 DatabaseLedgerOptions options);

  // ---- Commit path (paper §3.3.2). ----

  /// Assigns `n` contiguous (block id, ordinal) slots for a commit group in
  /// one critical section, while the WAL commit record is formed. Slots
  /// roll over block boundaries (block_size ordinals per block), so a single
  /// group may span blocks; the subsequent Append calls close each block as
  /// its last ordinal arrives. Assignment is tracked separately from the
  /// append position, so slots handed out here stay reserved while the
  /// leader does WAL I/O.
  std::vector<std::pair<uint64_t, uint64_t>> AssignSlots(size_t n);

  /// Rolls back the last `n` slots handed out by AssignSlots. Only valid
  /// when none of those slots has been appended (the group-commit leader
  /// calls this after a failed batched WAL append, before anything reached
  /// the ledger) — otherwise recovery would see an ordinal gap.
  void ReleaseSlots(size_t n);

  /// Appends a committed transaction's entry to the open block and the
  /// in-memory durability queue, then closes the block if it is full.
  /// The entry's (block_id, block_ordinal) must come from AssignSlots.
  Status Append(TransactionEntry entry);

  // ---- Digest generation (paper §2.2). ----

  /// Closes the open block if it has entries (or materializes an initial
  /// empty block for a pristine database) and returns a digest of the
  /// latest closed block.
  Result<DatabaseDigest> GenerateDigest(const std::string& database_id,
                                        const std::string& create_time);

  /// Verifies that `newer` is derivable from `older` by walking the block
  /// chain in the current blocks table and recomputing hashes — the fork
  /// detection of paper §3.3.1 (requirement 3). OK result `false` means a
  /// clean "not derivable" answer; an error Status means the chain itself
  /// is unreadable.
  Result<bool> VerifyDigestChain(const DatabaseDigest& older,
                                 const DatabaseDigest& newer) const;

  // ---- Durability integration. ----

  /// Drains the in-memory queue into the transactions system table
  /// (checkpoint time, paper §3.3.2). Idempotent.
  Status DrainQueue();

  /// Re-appends an entry recovered from a WAL commit record. Skips entries
  /// already present (replay after a crash between checkpoint and WAL
  /// reset). Entries must be replayed in commit order; an entry addressed
  /// past the open block implies the open block was closed before the
  /// crash, so it is re-closed first (block closes are deterministic: the
  /// close timestamp is the last entry's commit timestamp).
  Status RecoverEntry(const TransactionEntry& entry);

  /// Replays a digest-generation block close from its WAL marker.
  Status RecoverBlockClose(uint64_t block_id);

  /// Rebuilds open-block state from the system tables after loading a
  /// checkpoint and before WAL replay.
  Status LoadFromTables();

  // ---- Introspection. ----

  uint64_t open_block_id() const;
  uint64_t open_block_entry_count() const;
  uint64_t closed_block_count() const;
  uint64_t queue_depth() const;
  uint64_t total_entries() const;
  uint64_t block_size() const { return options_.block_size; }

  /// Entries of the still-open block plus undrained queue entries, used by
  /// the verifier so verification covers the most recent transactions.
  std::vector<TransactionEntry> PendingEntries() const;

  /// Every entry persisted in the transactions system table. Call
  /// DrainQueue first for a complete picture.
  std::vector<TransactionEntry> AllEntries() const;

  /// Ledger truncation support (paper §5.2): transaction ids recorded in
  /// blocks below `below_block`, with their min/max.
  struct TxnRange {
    std::vector<uint64_t> txn_ids;
    uint64_t min_txn_id = 0;
    uint64_t max_txn_id = 0;
  };
  Result<TxnRange> CollectTxnsBelow(uint64_t below_block) const;

  /// Physically removes blocks and transaction entries below `below_block`.
  /// Callers must have re-homed any live data first (TruncateLedger does).
  Status TruncateBelow(uint64_t below_block);

  /// Looks up an entry by transaction id across the system table and the
  /// open block.
  Result<TransactionEntry> FindEntry(uint64_t txn_id) const;

  /// Looks up a closed block.
  Result<BlockRecord> FindBlock(uint64_t block_id) const;

  /// Every closed block in id (clustered) order — one ordered scan of the
  /// blocks system table. Rows that fail to parse are omitted; the verifier
  /// reports the resulting gaps. Preferred over FindBlock loops.
  std::vector<BlockRecord> AllBlocks() const;

  /// Consistent snapshot of both system tables plus the open-block id,
  /// taken in ONE critical section. The verifier needs this atomicity: a
  /// concurrent block close (digest generation is not stopped by the
  /// verification quiesce) sliding between separate AllBlocks/AllEntries
  /// calls would make freshly closed transactions reference a block the
  /// earlier blocks scan never saw.
  struct LedgerSnapshot {
    std::vector<TransactionEntry> entries;
    std::vector<BlockRecord> blocks;
    uint64_t open_block_id = 0;
  };
  LedgerSnapshot Snapshot() const;

  /// Merkle proof that the given transaction is part of its (closed)
  /// block's transaction tree (paper §3.3.1 requirement 4; receipts §5.1).
  Result<MerkleProof> ProveTransaction(uint64_t txn_id) const;

  /// Raw system stores, exposed only for tamper-simulation tests (the
  /// storage-level attacker of §2.5.2).
  TableStore* transactions_table_for_testing() { return transactions_table_; }
  TableStore* blocks_table_for_testing() { return blocks_table_; }

  // ---- Oracle support (differential simulator, src/sim/). ----

  /// Starts recording every entry accepted by Append/RecoverEntry in
  /// arrival order. The log lets an external oracle observe entries created
  /// by internal transactions (DDL metadata, truncation audit records)
  /// without re-deriving their contents.
  void EnableAppendLog();
  /// Entries appended since index `start` of the log (in arrival order).
  std::vector<TransactionEntry> AppendLogSince(size_t start) const;
  size_t append_log_size() const;

  /// Hash of the newest closed block (zero if none) — the chain tip an
  /// oracle checks its own recomputation against.
  Hash256 last_block_hash() const;

 private:
  Status CloseOpenBlockLocked() REQUIRES(mu_);
  Result<TransactionEntry> FindEntryLocked(uint64_t txn_id) const
      REQUIRES(mu_);
  std::vector<TransactionEntry> AllEntriesLocked() const REQUIRES(mu_);
  std::vector<BlockRecord> AllBlocksLocked() const REQUIRES(mu_);
  int64_t Now() const { return options_.clock(); }

  // The system tables are mutated only with mu_ held (Append block closes,
  // DrainQueue, recovery, TruncateBelow); readers that scan them directly
  // also take mu_ so scans never race a block close.
  TableStore* const transactions_table_ PT_GUARDED_BY(mu_);
  TableStore* const blocks_table_ PT_GUARDED_BY(mu_);
  DatabaseLedgerOptions options_;

  mutable Mutex mu_;
  uint64_t open_block_id_ GUARDED_BY(mu_) = 0;
  // Next slot to hand out (AssignSlots). Runs ahead of the
  // append position while a commit group is in flight: a batch may reserve
  // slots spanning into blocks that are not open yet. Invariant when no
  // group is in flight: (assign_block_id_, assign_ordinal_) ==
  // (open_block_id_, open_entries_.size()).
  uint64_t assign_block_id_ GUARDED_BY(mu_) = 0;
  uint64_t assign_ordinal_ GUARDED_BY(mu_) = 0;
  std::vector<TransactionEntry> open_entries_ GUARDED_BY(mu_);
  // Hash of the newest closed block (zero if none).
  Hash256 last_block_hash_ GUARDED_BY(mu_);
  int64_t last_commit_ts_ GUARDED_BY(mu_) = 0;
  // Entries not yet drained into the system table.
  std::deque<TransactionEntry> queue_ GUARDED_BY(mu_);
  uint64_t total_entries_ GUARDED_BY(mu_) = 0;

  bool append_log_enabled_ GUARDED_BY(mu_) = false;
  std::vector<TransactionEntry> append_log_ GUARDED_BY(mu_);
};

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_DATABASE_LEDGER_H_

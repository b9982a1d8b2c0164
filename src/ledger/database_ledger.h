// The Database Ledger (paper §2.2, §3.3): a blockchain of blocks, each
// holding the Merkle root over up to block_size transaction entries.
// Transactions and blocks are physically stored as rows in two system
// tables ("database_ledger_transactions", "database_ledger_blocks"), which
// are in-memory B-trees that reach disk at checkpoint. Append inserts the
// entry's row directly, so the transactions table is the entry's only
// in-memory home; the WAL commit record is its durable copy until the next
// checkpoint. The paper (§3.3.2) instead queues entries in memory and
// persists them to its system table off the commit path (DESIGN.md
// decision 1 says why this engine does not need the queue).

#ifndef SQLLEDGER_LEDGER_DATABASE_LEDGER_H_
#define SQLLEDGER_LEDGER_DATABASE_LEDGER_H_

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

  /// The `n` (block id, ordinal) slots that the next `n` Appends take: the
  /// positions after the open block's last entry, rolling over block
  /// boundaries (block_size ordinals per block), so one commit group may
  /// span blocks. The slots are read from the append position and reserve
  /// nothing: the caller must keep every other append and block close out
  /// until it has appended them (the commit path holds commit_mu_ from
  /// here through its Appends).
  std::vector<std::pair<uint64_t, uint64_t>> NextSlots(size_t n) const;

  /// Adds a committed transaction's entry, at commit (its slot from
  /// NextSlots) and in WAL replay (its slot from the commit record), in
  /// slot order: inserts the entry's row into the transactions table,
  /// streams its leaf hash into the open block's Merkle tree, then closes
  /// the block if it is full. An entry addressed one block past the open
  /// block means the open block was closed (by digest generation) before
  /// this commit, so it is closed first; block closes are deterministic
  /// (the close timestamp is the highest-ordinal entry's commit timestamp).
  /// Corruption, with nothing added, when the slot is not the next
  /// position (an ordinal gap, or a block more than one past the open
  /// block, which would fabricate empty blocks) or the txn id already has
  /// an entry (replay applies each record once).
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

  /// Replays a digest-generation block close from its WAL marker.
  Status RecoverBlockClose(uint64_t block_id);

  /// Rebuilds open-block state from the system tables after loading a
  /// checkpoint and before WAL replay.
  Status LoadFromTables();

  // ---- Introspection. ----

  uint64_t open_block_id() const;
  uint64_t open_block_entry_count() const;
  uint64_t closed_block_count() const;
  uint64_t total_entries() const;
  uint64_t block_size() const { return options_.block_size; }

  /// Newest commit timestamp in the ledger (0 if none) — the maximum, as
  /// committers read the clock before the leader orders them.
  int64_t last_commit_ts() const;

  /// Ledger truncation support (paper §5.2): transaction ids recorded in
  /// blocks below `below_block` (in slot order), with their min/max.
  struct TxnRange {
    std::vector<uint64_t> txn_ids;
    uint64_t min_txn_id = 0;
    uint64_t max_txn_id = 0;
  };
  Result<TxnRange> CollectTxnsBelow(uint64_t below_block) const;

  /// Physically removes blocks and transaction entries below `below_block`.
  /// Writes no log record: its one caller, LedgerDatabase::ApplyTruncation,
  /// runs after the truncation's audit row is logged and again at recovery.
  Status TruncateBelow(uint64_t below_block);

  /// Looks up an entry by transaction id in the transactions table.
  Result<TransactionEntry> FindEntry(uint64_t txn_id) const;

  /// Looks up a closed block.
  Result<BlockRecord> FindBlock(uint64_t block_id) const;

  /// Consistent snapshot of both system tables plus the open-block id,
  /// taken in ONE critical section; entries and blocks come in key order and
  /// rows that fail to parse are omitted (the verifier reports the gaps).
  /// The verifier needs this atomicity: a concurrent block close (digest
  /// generation is not stopped by the verification quiesce) sliding between
  /// separate scans would make freshly closed transactions reference a
  /// block the earlier blocks scan never saw.
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

  /// Entries past `txn_id` in txn-id order, from one seek; rows that fail to
  /// parse are omitted. The simulator reads new entries this way, those of
  /// internal transactions (DDL metadata, truncation records) included.
  std::vector<TransactionEntry> EntriesAfter(uint64_t txn_id) const;

  /// Hash of the newest closed block (zero if none) — the chain tip an
  /// oracle checks its own recomputation against.
  Hash256 last_block_hash() const;

 private:
  Status CloseOpenBlockLocked() REQUIRES(mu_);
  Result<TransactionEntry> FindEntryLocked(uint64_t txn_id) const
      REQUIRES(mu_);
  // Entries of blocks [first_block, end_block) in slot order, from a scan
  // that fails on any unparsable row. `max_commit_ts`, if given, is raised
  // to the newest commit timestamp in the table.
  Result<std::vector<TransactionEntry>> BlockEntriesLocked(
      uint64_t first_block, uint64_t end_block,
      int64_t* max_commit_ts = nullptr) const REQUIRES(mu_);
  int64_t Now() const { return options_.clock(); }

  // The system tables are mutated only with mu_ held (Append, block
  // closes, recovery, TruncateBelow); readers that scan them directly
  // also take mu_ so scans never race a block close.
  TableStore* const transactions_table_ PT_GUARDED_BY(mu_);
  TableStore* const blocks_table_ PT_GUARDED_BY(mu_);
  DatabaseLedgerOptions options_;

  mutable Mutex mu_;
  uint64_t open_block_id_ GUARDED_BY(mu_) = 0;
  // The open block's transactions tree, streamed one leaf per Append in
  // ordinal order (paper §3.2.1), and its close timestamp: the commit ts
  // of its highest-ordinal entry, 0 while empty.
  MerkleBuilder open_tree_ GUARDED_BY(mu_);
  int64_t open_close_ts_ GUARDED_BY(mu_) = 0;
  // Hash of the newest closed block (zero if none).
  Hash256 last_block_hash_ GUARDED_BY(mu_);
  int64_t last_commit_ts_ GUARDED_BY(mu_) = 0;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_DATABASE_LEDGER_H_

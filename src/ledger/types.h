// Shared ledger-core types: table kinds, transaction entries, block records,
// and the reserved system-table ids.

#ifndef SQLLEDGER_LEDGER_TYPES_H_
#define SQLLEDGER_LEDGER_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace sqlledger {

/// How a table participates in the ledger (paper §2.1).
enum class TableKind : uint8_t {
  kRegular = 0,     // no ledger protection (baseline for the experiments)
  kAppendOnly = 1,  // insert-only ledger table, no history table
  kUpdateable = 2,  // full DML; prior versions preserved in a history table
};

const char* TableKindName(TableKind kind);

/// Reserved table ids. User tables start at kFirstUserTableId.
/// The two database-ledger tables are the tamper-evident structure itself;
/// the sys_ledger_* tables are updateable ledger tables recording schema
/// metadata operations (paper §3.5.2, Figure 6).
constexpr uint32_t kLedgerTransactionsTableId = 1;
constexpr uint32_t kLedgerBlocksTableId = 2;
constexpr uint32_t kSysTablesTableId = 3;
constexpr uint32_t kSysTablesHistoryTableId = 4;
constexpr uint32_t kSysColumnsTableId = 5;
constexpr uint32_t kSysColumnsHistoryTableId = 6;
constexpr uint32_t kSysTruncationsTableId = 7;
constexpr uint32_t kFirstUserTableId = 100;

/// Names of the hidden system columns appended to every ledger table
/// (paper §3.1).
inline constexpr char kColStartTxn[] = "ledger_start_transaction_id";
inline constexpr char kColStartSeq[] = "ledger_start_sequence_number";
inline constexpr char kColEndTxn[] = "ledger_end_transaction_id";
inline constexpr char kColEndSeq[] = "ledger_end_sequence_number";

/// One transaction's entry in the Database Ledger (paper §3.3.1).
struct TransactionEntry {
  uint64_t txn_id = 0;
  uint64_t block_id = 0;
  uint64_t block_ordinal = 0;
  int64_t commit_ts_micros = 0;
  std::string user_name;
  /// (ledger table id, Merkle root of row versions updated in that table).
  std::vector<std::pair<uint32_t, Hash256>> table_roots;

  /// Canonical serialization — the preimage of the entry's Merkle leaf in
  /// the block's transaction tree.
  std::vector<uint8_t> CanonicalBytes() const;
  Hash256 LeafHash() const;
};

/// One closed block of the Database Ledger blockchain (paper §3.3.1,
/// Figure 5). The block's own hash is never stored — verification always
/// recomputes it from current state.
struct BlockRecord {
  uint64_t block_id = 0;
  Hash256 previous_block_hash;  // all-zero for block 0
  Hash256 transactions_root;    // Merkle root over the block's entries
  uint64_t transaction_count = 0;
  int64_t closed_ts_micros = 0;

  /// SHA-256 over the canonical block serialization.
  Hash256 ComputeHash() const;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_TYPES_H_

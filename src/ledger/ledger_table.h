// Ledger-table DML (paper §3.2): every mutation of a ledger table
//   1. stamps the hidden (transaction id, sequence number) system columns,
//   2. preserves retired row versions in the history table, and
//   3. appends the canonical leaf hash of each touched version to the
//      transaction's per-table streaming Merkle tree.
// RetireVersion is the one home of steps 2 and 3 for a retired version:
// LedgerUpdate, LedgerDelete and WAL replay all call it.
// Regular tables take the plain path — they are the baseline the paper
// compares against in §4.

#ifndef SQLLEDGER_LEDGER_LEDGER_TABLE_H_
#define SQLLEDGER_LEDGER_LEDGER_TABLE_H_

#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "ledger/types.h"
#include "storage/table_store.h"
#include "txn/transaction.h"
#include "util/result.h"
#include "util/status.h"

namespace sqlledger {

/// The compiled layout of one table definition (DESIGN.md §3 "Table
/// plans"). CatalogEntry::LinkRef builds one per definition and never
/// changes it: whoever pinned a plan keeps reading the layout it pinned.
struct TablePlan {
  /// Ordinals of the visible columns (Schema::VisibleOrdinals): a user
  /// row's cells, in order.
  std::vector<size_t> visible_ords;
  /// Copies of the visible columns' definitions, in the same order.
  std::vector<ColumnDef> visible_columns;
  /// Where a user row holds its primary key: the key columns' positions
  /// among visible_ords, in key order. Empty when a key column is not
  /// visible: such a table takes no user-row DML.
  std::vector<size_t> user_key_positions;
  /// Ordinals of the hidden stamp columns; -1 on a regular table, and for
  /// the end pair of an append-only one.
  int start_txn_ord = -1;
  int start_seq_ord = -1;
  int end_txn_ord = -1;
  int end_seq_ord = -1;
};

/// One table's physical stores and the plan of its current definition
/// (CatalogEntry::LinkRef sets both after every definition change).
struct LedgerTableRef {
  uint32_t table_id = 0;
  TableKind kind = TableKind::kRegular;
  TableStore* main = nullptr;
  TableStore* history = nullptr;  // updateable ledger tables only
  std::shared_ptr<const TablePlan> plan;
};

/// Builds a ledger table's full schema from the user schema: appends the
/// hidden system columns (paper §3.1). Append-only tables get only the
/// start pair (rows are never retired).
Schema MakeLedgerSchema(const Schema& user_schema, TableKind kind);

/// The mirrored history-table schema: same columns and column ids, keyed by
/// (end transaction id, end sequence number) — unique per retired version.
Schema MakeHistorySchema(const Schema& ledger_schema);

/// `user_row` padded to the table's physical row, packed once: NULLs in
/// the hidden and dropped columns, and on a ledger table the version's
/// start stamps (txn_id, seq). The DML and WAL replay build every version
/// they install with it.
Result<Row> PadVersion(const LedgerTableRef& table, const Row& user_row,
                       uint64_t txn_id, uint64_t seq);

/// Inserts `user_row` (visible columns only, ordinal order).
Status LedgerInsert(Transaction* txn, const LedgerTableRef& table,
                    const Row& user_row);

/// Replaces the row whose primary key matches `user_row`'s key columns.
/// Primary-key columns must be unchanged (delete + insert to move a row).
Status LedgerUpdate(Transaction* txn, const LedgerTableRef& table,
                    const Row& user_row);

/// Deletes the row with the given primary key (user key columns).
Status LedgerDelete(Transaction* txn, const LedgerTableRef& table,
                    const KeyTuple& key);

/// An update takes two consecutive sequence numbers and retires its
/// pre-image at the first; replay derives it from the installed version's.
inline uint64_t UpdateRetireSeq(uint64_t install_seq) {
  return install_seq - 1;
}

/// Retires `current`, the current version of a row of updateable ledger
/// table `table`: packs it once with (txn_id, seq) in its end cells,
/// inserts that into the history store and appends its leaf hash to
/// `merkle`. Returns the history row's key, for the undo entry.
Result<KeyTuple> RetireVersion(const LedgerTableRef& table, const Row& current,
                               uint64_t txn_id, uint64_t seq,
                               MerkleBuilder* merkle);

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_LEDGER_TABLE_H_

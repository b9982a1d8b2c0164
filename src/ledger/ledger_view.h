// Ledger views (paper §2.1, Figure 2): for every ledger table, a generated
// view reporting each row operation (INSERT / DELETE) together with the id
// of the transaction that performed it, built by unioning the ledger table
// with its history table. An UPDATE appears as a DELETE of the old version
// followed by an INSERT of the new one within the same transaction.
//
// ForEachRowVersion is the one definition of a table's row-version set:
// the view is built from it, and the verifier hashes exactly the versions it
// yields, so the view-definition check (invariant 6) reduces to comparing
// the verifier's version count against the stores' row counts.

#ifndef SQLLEDGER_LEDGER_LEDGER_VIEW_H_
#define SQLLEDGER_LEDGER_LEDGER_VIEW_H_

#include <functional>
#include <string>
#include <vector>

#include "ledger/ledger_table.h"
#include "ledger/row_serializer.h"
#include "util/result.h"

namespace sqlledger {

struct LedgerViewRow {
  /// Application-visible column values of the row version.
  Row values;
  /// "INSERT" or "DELETE".
  std::string operation;
  uint64_t transaction_id = 0;
  uint64_t sequence_number = 0;
};

/// Calls fn(row, op, txn, seq) for every row version one physical store of
/// `table` holds, in store order: one INSERT per non-NULL start stamp and,
/// for the history store only (`history`, which must exist), one DELETE per
/// non-NULL end stamp. Live rows are never retired, so the main store
/// yields no DELETEs. `row` is borrowed from the store.
void ForEachRowVersion(
    const LedgerTableRef& table, bool history,
    const std::function<void(const Row& row, RowOp op, uint64_t txn,
                             uint64_t seq)>& fn);

/// Materializes the ledger view for one table, ordered by
/// (transaction id, sequence number). Fails on regular tables.
Result<std::vector<LedgerViewRow>> BuildLedgerView(const LedgerTableRef& table);

/// Renders view rows, built with `plan`, as a fixed-width text table
/// (examples and debugging).
std::string FormatLedgerView(const TablePlan& plan,
                             const std::vector<LedgerViewRow>& rows);

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_LEDGER_VIEW_H_

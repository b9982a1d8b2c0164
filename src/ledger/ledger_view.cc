#include "ledger/ledger_view.h"

#include <algorithm>

namespace sqlledger {

void ForEachRowVersion(
    const LedgerTableRef& table, bool history,
    const std::function<void(const Row&, RowOp, uint64_t, uint64_t)>& fn) {
  const TableStore* store = history ? table.history : table.main;
  const TablePlan& plan = *table.plan;
  for (BTree::Iterator it = store->Scan(); it.Valid(); it.Next()) {
    const Row& row = it.value();
    // The stamp columns are in ascending order: one walk reads all four.
    Row::Cursor cells(row);
    Cell start_txn = cells[plan.start_txn_ord];
    if (!start_txn.is_null()) {
      fn(row, RowOp::kInsert, static_cast<uint64_t>(start_txn.AsInt64()),
         static_cast<uint64_t>(cells[plan.start_seq_ord].AsInt64()));
    }
    if (!history) continue;
    Cell end_txn = cells[plan.end_txn_ord];
    if (!end_txn.is_null()) {
      fn(row, RowOp::kDelete, static_cast<uint64_t>(end_txn.AsInt64()),
         static_cast<uint64_t>(cells[plan.end_seq_ord].AsInt64()));
    }
  }
}

Result<std::vector<LedgerViewRow>> BuildLedgerView(
    const LedgerTableRef& table) {
  if (table.kind == TableKind::kRegular)
    return Status::InvalidArgument("table is not a ledger table");

  std::vector<LedgerViewRow> out;
  const std::vector<size_t>& visible = table.plan->visible_ords;
  auto add = [&](const Row& row, RowOp op, uint64_t txn, uint64_t seq) {
    LedgerViewRow v;
    v.values = row.Project(visible);
    v.operation = op == RowOp::kInsert ? "INSERT" : "DELETE";
    v.transaction_id = txn;
    v.sequence_number = seq;
    out.push_back(std::move(v));
  };
  ForEachRowVersion(table, /*history=*/false, add);
  if (table.history != nullptr) ForEachRowVersion(table, /*history=*/true, add);
  std::sort(out.begin(), out.end(),
            [](const LedgerViewRow& a, const LedgerViewRow& b) {
              if (a.transaction_id != b.transaction_id)
                return a.transaction_id < b.transaction_id;
              return a.sequence_number < b.sequence_number;
            });
  return out;
}

std::string FormatLedgerView(const TablePlan& plan,
                             const std::vector<LedgerViewRow>& rows) {
  std::string out;
  for (const ColumnDef& column : plan.visible_columns) {
    out += column.name;
    out += "\t";
  }
  out += "Operation\tTransaction ID\n";
  for (const LedgerViewRow& row : rows) {
    for (Cell v : row.values) {
      out += v.ToString();
      out += "\t";
    }
    out += row.operation;
    out += "\t";
    out += std::to_string(row.transaction_id);
    out += "\n";
  }
  return out;
}

}  // namespace sqlledger

#include "ledger/truncation.h"

#include <set>

#include "ledger/verifier.h"

namespace sqlledger {

namespace {
// The user rows of `t`'s main store whose current version a truncated
// transaction wrote. The caller excludes writers: a MaintenanceView or
// the table's X lock, which also keeps `t`'s plan current.
std::vector<Row> AnchoredRows(const LedgerTableRef& t,
                              const std::set<uint64_t>& truncated) {
  const TablePlan& plan = *t.plan;
  std::vector<Row> out;
  for (BTree::Iterator it = t.main->Scan(); it.Valid(); it.Next()) {
    Cell start_txn = it.value()[plan.start_txn_ord];
    if (!start_txn.is_null() &&
        truncated.count(static_cast<uint64_t>(start_txn.AsInt64())))
      out.push_back(it.value().Project(plan.visible_ords));
  }
  return out;
}
}  // namespace

Status TruncateLedger(LedgerDatabase* db, uint64_t below_block,
                      const std::vector<DatabaseDigest>& digests) {
  DatabaseLedger* ledger = db->database_ledger();
  if (ledger == nullptr)
    return Status::NotSupported("ledger is disabled for this database");
  if (digests.empty())
    return Status::InvalidArgument(
        "truncation requires trusted digests for the pre-truncation "
        "verification");
  if (below_block >= ledger->open_block_id())
    return Status::InvalidArgument("cannot truncate the open block or beyond");

  // Steps 1 and 2 read one view, so the tables re-homed are picked from the
  // state verified. It closes before the dummy updates: Begin waits on it.
  TruncationRecord record;
  record.truncated_below_block = below_block;
  std::set<uint64_t> truncated;
  std::vector<CatalogEntry*> anchored_tables;
  Status refused;
  {
    MaintenanceView view = db->OpenMaintenanceView();
    // 1. Refuse to truncate a database that does not verify (§5.2: "first
    // trigger the verification process to guarantee that any current data
    // is consistent").
    auto report = VerifyLedger(view, digests);
    if (!report.ok()) return report.status();
    if (!report->ok())
      return Status::IntegrityViolation(
          "pre-truncation verification failed: " + report->Summary());

    auto range = ledger->CollectTxnsBelow(below_block);
    if (!range.ok()) return range.status();
    if (range->txn_ids.empty()) return Status::OK();  // nothing to truncate
    truncated.insert(range->txn_ids.begin(), range->txn_ids.end());
    record.min_txn_id = range->min_txn_id;
    record.max_txn_id = range->max_txn_id;

    // 2. Dummy-update live rows still anchored in blocks being truncated
    // so their digests move into fresh transactions. The view finds the
    // tables that hold such rows; each is then scanned again under its X
    // lock, and the dummy updates start from that scan. Rows found before
    // the lock would be stale: an update committed in between would be
    // overwritten by the pre-image (DESIGN.md §8).
    // An append-only user table with such rows refuses the truncation; the
    // tables ahead of it in id order are still re-homed, which is harmless.
    for (CatalogEntry* entry : view.tables()) {
      if (entry->kind == TableKind::kRegular ||
          AnchoredRows(entry->ref, truncated).empty())
        continue;
      if (entry->kind == TableKind::kUpdateable) {
        anchored_tables.push_back(entry);
      } else if (!entry->is_system()) {
        refused = Status::NotSupported(
            "append-only table '" + entry->name + "' still holds rows in "
            "the truncated range; they cannot be dummy-updated");
        break;
      }
      // Prior truncation-audit records cannot be re-homed (append-only);
      // the verifier accepts their dangling references because they fall
      // inside recorded truncation ranges.
    }
  }
  for (CatalogEntry* entry : anchored_tables) {
    auto txn = db->Begin("system:truncation");
    if (!txn.ok()) return txn.status();
    Status st = db->AcquireTableLock(*txn, *entry, LockMode::kExclusive);
    if (st.ok()) {
      for (const Row& user_row : AnchoredRows(entry->ref, truncated)) {
        st = LedgerUpdate(*txn, entry->ref, user_row);
        if (!st.ok()) break;
      }
    }
    if (!st.ok()) {
      db->Abort(*txn);
      return st;
    }
    SL_RETURN_IF_ERROR(db->Commit(*txn));
  }
  SL_RETURN_IF_ERROR(refused);

  // 3. Close the block holding the dummy updates so the re-homed data is
  // immediately digest-coverable.
  SL_RETURN_IF_ERROR(db->GenerateDigest().status());

  // 4. Audit the truncation through the ledger itself. The committed row is
  // the truncation's one durability point: recovery applies the newest one.
  SL_RETURN_IF_ERROR(db->RecordTruncation(record));

  // 5. Delete what the row names, through the function recovery runs.
  return db->ApplyTruncation(db->OpenMaintenanceView(), below_block);
}

}  // namespace sqlledger

// Ledger-table DML through the LedgerDatabase facade: hidden system
// columns, history maintenance, per-transaction Merkle roots, append-only
// restrictions, and abort behaviour.

#include <gtest/gtest.h>

#include "ledger/row_serializer.h"
#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class LedgerTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/100);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
    ASSERT_TRUE(
        db_->CreateTable("audit", SimpleUserSchema(), TableKind::kAppendOnly)
            .ok());
    ASSERT_TRUE(
        db_->CreateTable("plain", SimpleUserSchema(), TableKind::kRegular)
            .ok());
  }

  std::unique_ptr<LedgerDatabase> db_;
};

TEST_F(LedgerTableTest, SchemaGetsHiddenColumns) {
  auto ref = db_->GetTableRef("accounts");
  ASSERT_TRUE(ref.ok());
  const Schema& schema = ref->main->schema();
  EXPECT_EQ(schema.num_columns(), 6u);  // 2 user + 4 hidden
  EXPECT_EQ(schema.VisibleOrdinals().size(), 2u);
  EXPECT_GE(ref->plan->start_txn_ord, 0);
  EXPECT_GE(ref->plan->end_seq_ord, 0);

  auto audit_ref = db_->GetTableRef("audit");
  ASSERT_TRUE(audit_ref.ok());
  EXPECT_EQ(audit_ref->main->schema().num_columns(), 4u);  // 2 user + 2 hidden
  EXPECT_EQ(audit_ref->plan->end_txn_ord, -1);
  EXPECT_EQ(audit_ref->history, nullptr);

  auto plain_ref = db_->GetTableRef("plain");
  ASSERT_TRUE(plain_ref.ok());
  EXPECT_EQ(plain_ref->main->schema().num_columns(), 2u);
}

TEST_F(LedgerTableTest, InsertStampsSystemColumns) {
  uint64_t txn_id = 0;
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(txn.ok());
  txn_id = (*txn)->id();
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("Nick"), VB(100)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  auto ref = db_->GetTableRef("accounts");
  const Row* row = ref->main->Get({VS("Nick")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[ref->plan->start_txn_ord].AsInt64(),
            static_cast<int64_t>(txn_id));
  EXPECT_EQ((*row)[ref->plan->start_seq_ord].AsInt64(), 0);
  EXPECT_TRUE((*row)[ref->plan->end_txn_ord].is_null());
}

TEST_F(LedgerTableTest, UpdateMovesOldVersionToHistory) {
  ASSERT_TRUE(InsertOne(db_.get(), "plain", 0, "warm-up").ok());
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("Nick"), VB(50)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  auto txn2 = db_->Begin("bob");
  uint64_t update_txn = (*txn2)->id();
  ASSERT_TRUE(db_->Update(*txn2, "accounts", {VS("Nick"), VB(100)}).ok());
  ASSERT_TRUE(db_->Commit(*txn2).ok());

  auto ref = db_->GetTableRef("accounts");
  EXPECT_EQ(ref->main->row_count(), 1u);
  EXPECT_EQ(ref->history->row_count(), 1u);

  const Row* live = ref->main->Get({VS("Nick")});
  ASSERT_NE(live, nullptr);
  EXPECT_EQ((*live)[1].AsInt64(), 100);
  EXPECT_EQ((*live)[ref->plan->start_txn_ord].AsInt64(),
            static_cast<int64_t>(update_txn));

  // The retired version holds the old balance and its end-stamp.
  BTree::Iterator it = ref->history->Scan();
  ASSERT_TRUE(it.Valid());
  const Row& retired = it.value();
  EXPECT_EQ(retired[1].AsInt64(), 50);
  EXPECT_EQ(retired[ref->plan->end_txn_ord].AsInt64(),
            static_cast<int64_t>(update_txn));
  EXPECT_FALSE(retired[ref->plan->start_txn_ord].is_null());
}

TEST_F(LedgerTableTest, DeleteRetiresVersion) {
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("Joe"), VB(30)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  auto txn2 = db_->Begin("bob");
  ASSERT_TRUE(db_->Delete(*txn2, "accounts", {VS("Joe")}).ok());
  ASSERT_TRUE(db_->Commit(*txn2).ok());

  auto ref = db_->GetTableRef("accounts");
  EXPECT_EQ(ref->main->row_count(), 0u);
  EXPECT_EQ(ref->history->row_count(), 1u);
}

TEST_F(LedgerTableTest, AppendOnlyRejectsUpdateAndDelete) {
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "audit", {VB(1), VS("event")}).ok());
  EXPECT_EQ(db_->Update(*txn, "audit", {VB(1), VS("rewritten")}).code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(db_->Delete(*txn, "audit", {VB(1)}).code(),
            StatusCode::kNotSupported);
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(LedgerTableTest, RegularTableHasNoLedgerEntry) {
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "plain", {VB(1), VS("x")}).ok());
  EXPECT_TRUE((*txn)->TableRoots().empty());
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(LedgerTableTest, MerkleRootMatchesManualRecomputation) {
  auto txn = db_->Begin("alice");
  uint64_t txn_id = (*txn)->id();
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("A"), VB(1)}).ok());
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("B"), VB(2)}).ok());
  ASSERT_TRUE(db_->Update(*txn, "accounts", {VS("A"), VB(3)}).ok());
  auto roots = (*txn)->TableRoots();
  ASSERT_TRUE(db_->Commit(*txn).ok());

  auto ref = db_->GetTableRef("accounts");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].first, ref->table_id);

  // Manually recompute: INSERT A(seq0), INSERT B(seq1), DELETE old-A(seq2),
  // INSERT new-A(seq3) — from the current table state.
  const Schema& schema = ref->main->schema();
  MerkleBuilder builder;
  const Row* b_row = ref->main->Get({VS("B")});
  const Row* a_row = ref->main->Get({VS("A")});
  BTree::Iterator hist = ref->history->Scan();
  ASSERT_TRUE(hist.Valid());
  Row old_a = hist.value();

  builder.AddLeafHash(RowVersionLeafHash(schema, old_a, RowOp::kInsert,
                                         ref->table_id, txn_id, 0));
  builder.AddLeafHash(RowVersionLeafHash(schema, *b_row, RowOp::kInsert,
                                         ref->table_id, txn_id, 1));
  builder.AddLeafHash(RowVersionLeafHash(schema, old_a, RowOp::kDelete,
                                         ref->table_id, txn_id, 2));
  builder.AddLeafHash(RowVersionLeafHash(schema, *a_row, RowOp::kInsert,
                                         ref->table_id, txn_id, 3));
  EXPECT_EQ(builder.Root(), roots[0].second);
}

TEST_F(LedgerTableTest, AbortLeavesNoTrace) {
  auto ref = db_->GetTableRef("accounts");
  uint64_t entries_before = db_->database_ledger()->total_entries();

  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("Ghost"), VB(1)}).ok());
  ASSERT_TRUE(db_->Update(*txn, "accounts", {VS("Ghost"), VB(2)}).ok());
  db_->Abort(*txn);

  EXPECT_EQ(ref->main->row_count(), 0u);
  EXPECT_EQ(ref->history->row_count(), 0u);
  EXPECT_EQ(db_->database_ledger()->total_entries(), entries_before);
}

TEST_F(LedgerTableTest, SavepointRollbackRestoresRoot) {
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("A"), VB(1)}).ok());
  auto roots_before = (*txn)->TableRoots();
  ASSERT_TRUE(db_->Savepoint(*txn, "sp").ok());
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("B"), VB(2)}).ok());
  ASSERT_TRUE(db_->RollbackToSavepoint(*txn, "sp").ok());
  auto roots_after = (*txn)->TableRoots();
  ASSERT_TRUE(db_->Commit(*txn).ok());

  ASSERT_EQ(roots_before.size(), 1u);
  ASSERT_EQ(roots_after.size(), 1u);
  EXPECT_EQ(roots_before[0].second, roots_after[0].second);
  auto ref = db_->GetTableRef("accounts");
  EXPECT_EQ(ref->main->row_count(), 1u);
}

// A rejected UPDATE writes nothing: committing its transaction adds no
// history version and leaves the ledger verifiable.
void ExpectRejectedUpdateLeavesNoTrace(LedgerDatabase* db,
                                       const std::string& table,
                                       const Row& good, const Row& bad) {
  auto ref = db->GetTableRef(table);
  ASSERT_TRUE(ref.ok());
  auto txn = db->Begin("alice");
  ASSERT_TRUE(db->Insert(*txn, table, good).ok());
  ASSERT_TRUE(db->Commit(*txn).ok());
  size_t history_before = ref->history->row_count();

  auto txn2 = db->Begin("bob");
  EXPECT_EQ(db->Update(*txn2, table, bad).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(db->Commit(*txn2).ok());
  EXPECT_EQ(ref->history->row_count(), history_before);

  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db, {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(LedgerTableTest, RejectedUpdateTypeMismatchLeavesNoTrace) {
  ExpectRejectedUpdateLeavesNoTrace(db_.get(), "accounts",
                                    {VS("Nick"), VB(50)},
                                    {VS("Nick"), VS("not-a-bigint")});
}

TEST_F(LedgerTableTest, RejectedUpdateNullInNotNullLeavesNoTrace) {
  ExpectRejectedUpdateLeavesNoTrace(db_.get(), "accounts",
                                    {VS("Nick"), VB(50)},
                                    {VS("Nick"), Value::Null(DataType::kBigInt)});
}

TEST_F(LedgerTableTest, RejectedUpdateTooLongVarcharLeavesNoTrace) {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("note", DataType::kVarchar, true, /*max_length=*/4);
  s.SetPrimaryKey({0});
  ASSERT_TRUE(db_->CreateTable("notes", s, TableKind::kUpdateable).ok());
  ExpectRejectedUpdateLeavesNoTrace(db_.get(), "notes", {VB(1), VS("ok")},
                                    {VB(1), VS("far too long")});
}

TEST_F(LedgerTableTest, DuplicateKeyRejected) {
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("A"), VB(1)}).ok());
  EXPECT_EQ(db_->Insert(*txn, "accounts", {VS("A"), VB(2)}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(LedgerTableTest, UpdateMissingRowIsNotFound) {
  auto txn = db_->Begin("alice");
  EXPECT_TRUE(db_->Update(*txn, "accounts", {VS("Nobody"), VB(1)}).IsNotFound());
  EXPECT_TRUE(db_->Delete(*txn, "accounts", {VS("Nobody")}).IsNotFound());
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(LedgerTableTest, GetAndScanReturnVisibleColumns) {
  auto txn = db_->Begin("alice");
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("A"), VB(1)}).ok());
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("B"), VB(2)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  auto txn2 = db_->Begin("bob");
  auto row = db_->Get(*txn2, "accounts", {VS("A")});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->size(), 2u);
  auto all = db_->Scan(*txn2, "accounts");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0][0].string_value(), "A");
  ASSERT_TRUE(db_->Commit(*txn2).ok());
}

TEST_F(LedgerTableTest, EveryCommittedWriteGetsLedgerEntry) {
  uint64_t before = db_->database_ledger()->total_entries();
  uint64_t txn_id = 0;
  ASSERT_TRUE(InsertOne(db_.get(), "plain", 1, "x", &txn_id).ok());
  EXPECT_EQ(db_->database_ledger()->total_entries(), before + 1);
  auto entry = db_->database_ledger()->FindEntry(txn_id);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->table_roots.empty());  // no ledger tables touched
}

TEST_F(LedgerTableTest, ReadOnlyTransactionGetsNoLedgerEntry) {
  ASSERT_TRUE(InsertOne(db_.get(), "plain", 1, "x").ok());
  uint64_t before = db_->database_ledger()->total_entries();
  auto txn = db_->Begin("reader");
  ASSERT_TRUE(db_->Get(*txn, "plain", {VB(1)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(db_->database_ledger()->total_entries(), before);
}

}  // namespace
}  // namespace sqlledger

// Schema evolution tests (paper §3.5): add nullable column, drop column,
// drop table (rename + hide), alter column type — all while keeping the
// ledger verifiable.

#include <gtest/gtest.h>

#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class SchemaChangesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/100);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 5; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(db_->Insert(*txn, "accounts",
                              {VS("acct" + std::to_string(i)), VB(i * 10)})
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
  }

  void ExpectVerifies() {
    auto digest = db_->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    auto report = VerifyLedger(db_.get(), {*digest});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();
  }

  std::unique_ptr<LedgerDatabase> db_;
};

TEST_F(SchemaChangesTest, AddColumnKeepsOldHashesValid) {
  auto digest_before = db_->GenerateDigest();
  ASSERT_TRUE(digest_before.ok());
  ASSERT_TRUE(
      db_->AddColumn("accounts", "email", DataType::kVarchar, 64).ok());

  // Old digest still verifies: NULLs in the new column do not contribute.
  auto report = VerifyLedger(db_.get(), {*digest_before});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  // New rows can populate the column; everything still verifies.
  auto txn = db_->Begin("app");
  ASSERT_TRUE(db_->Insert(*txn, "accounts",
                          {VS("withmail"), VB(1), VS("a@b.c")})
                  .ok());
  ASSERT_TRUE(
      db_->Update(*txn, "accounts", {VS("acct0"), VB(0), VS("x@y.z")}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ExpectVerifies();

  // Reads expose the new column.
  auto txn2 = db_->Begin("app");
  auto row = db_->Get(*txn2, "accounts", {VS("acct1")});
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->size(), 3u);
  EXPECT_TRUE((*row)[2].is_null());
  ASSERT_TRUE(db_->Commit(*txn2).ok());
}

TEST_F(SchemaChangesTest, AddColumnRejectsDuplicates) {
  ASSERT_TRUE(db_->AddColumn("accounts", "email", DataType::kVarchar).ok());
  EXPECT_EQ(db_->AddColumn("accounts", "email", DataType::kVarchar).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      db_->AddColumn("missing", "x", DataType::kInt).IsNotFound());
}

TEST_F(SchemaChangesTest, DropColumnHidesButKeepsData) {
  ASSERT_TRUE(db_->AddColumn("accounts", "note", DataType::kVarchar).ok());
  auto txn = db_->Begin("app");
  ASSERT_TRUE(
      db_->Update(*txn, "accounts", {VS("acct0"), VB(0), VS("secret")}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  ASSERT_TRUE(db_->DropColumn("accounts", "note").ok());

  // Invisible to the application...
  auto txn2 = db_->Begin("app");
  auto row = db_->Get(*txn2, "accounts", {VS("acct0")});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->size(), 2u);
  // ...but new inserts work, and the historical hash of the version that
  // carried "secret" still verifies (the dropped value still serializes).
  ASSERT_TRUE(db_->Insert(*txn2, "accounts", {VS("new"), VB(9)}).ok());
  ASSERT_TRUE(db_->Commit(*txn2).ok());
  ExpectVerifies();
}

TEST_F(SchemaChangesTest, DropColumnRestrictions) {
  EXPECT_EQ(db_->DropColumn("accounts", "name").code(),
            StatusCode::kInvalidArgument);  // primary key
  EXPECT_TRUE(db_->DropColumn("accounts", "nope").IsNotFound());
}

// Every definition change publishes a new plan and leaves the old one as
// it was: a plan pinned before AddColumn, DropColumn or AlterColumnType
// still reads the old layout, and the relinked ref reads the new one.
TEST_F(SchemaChangesTest, PinnedPlanKeepsItsLayout) {
  auto names = [](const TablePlan& plan) {
    std::vector<std::string> out;
    for (const ColumnDef& col : plan.visible_columns) out.push_back(col.name);
    return out;
  };
  using Names = std::vector<std::string>;
  auto pin = [&] { return db_->GetTableRef("accounts")->plan; };

  std::shared_ptr<const TablePlan> before_add = pin();
  ASSERT_TRUE(db_->AddColumn("accounts", "note", DataType::kVarchar).ok());
  std::shared_ptr<const TablePlan> before_drop = pin();
  ASSERT_TRUE(db_->DropColumn("accounts", "balance").ok());
  std::shared_ptr<const TablePlan> before_alter = pin();
  ASSERT_TRUE(db_->AlterColumnType("accounts", "note", DataType::kInt).ok());
  std::shared_ptr<const TablePlan> after = pin();

  EXPECT_EQ(names(*before_add), (Names{"name", "balance"}));
  EXPECT_EQ(before_add->visible_ords, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(names(*before_drop), (Names{"name", "balance", "note"}));
  EXPECT_EQ(names(*before_alter), (Names{"name", "note"}));
  EXPECT_EQ(before_alter->visible_columns[1].type, DataType::kVarchar);
  EXPECT_EQ(names(*after), (Names{"name", "note"}));
  EXPECT_EQ(after->visible_columns[1].type, DataType::kInt);
  // The retyped column is a new physical column, appended last.
  EXPECT_EQ(after->visible_ords.back(),
            db_->GetStoreForTesting("accounts")->schema().num_columns() - 1);
  for (const auto* plan : {before_add.get(), before_drop.get(),
                           before_alter.get(), after.get()}) {
    EXPECT_EQ(plan->user_key_positions, (std::vector<size_t>{0}));
    EXPECT_EQ(plan->start_txn_ord, before_add->start_txn_ord);
    EXPECT_EQ(plan->end_seq_ord, before_add->end_seq_ord);
  }
  ExpectVerifies();
}

TEST_F(SchemaChangesTest, ReAddColumnAfterDropGetsFreshColumnId) {
  ASSERT_TRUE(db_->AddColumn("accounts", "tag", DataType::kInt).ok());
  ASSERT_TRUE(db_->DropColumn("accounts", "tag").ok());
  ASSERT_TRUE(db_->AddColumn("accounts", "tag", DataType::kInt).ok());
  auto ref = db_->GetTableRef("accounts");
  // Two physical columns named "tag": one dropped, one live, distinct ids.
  int live = ref->main->schema().FindColumn("tag");
  ASSERT_GE(live, 0);
  int dropped_count = 0;
  for (const ColumnDef& col : ref->main->schema().columns()) {
    if (col.name == "tag" && col.dropped) dropped_count++;
  }
  EXPECT_EQ(dropped_count, 1);
  ExpectVerifies();
}

TEST_F(SchemaChangesTest, DropTableRenamesAndStaysVerifiable) {
  ASSERT_TRUE(db_->DropTable("accounts").ok());
  EXPECT_TRUE(db_->GetTableRef("accounts").status().IsNotFound());

  // The dropped table's data is still verified (by object id).
  ExpectVerifies();

  // A new table with the same name gets a new id (Figure 6 scenario).
  ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                               TableKind::kUpdateable)
                  .ok());
  auto ops = db_->GetTableOperationsView();
  ASSERT_TRUE(ops.ok());
  int creates = 0, drops = 0;
  for (const TableOperationRow& op : *ops) {
    if (op.operation == "CREATE" && op.table_name == "accounts") creates++;
    if (op.operation == "DROP") drops++;
  }
  EXPECT_EQ(creates, 2);
  EXPECT_EQ(drops, 1);
  ExpectVerifies();
}

TEST_F(SchemaChangesTest, DropTableStillDetectsTampering) {
  ASSERT_TRUE(db_->DropTable("accounts").ok());
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());

  // Tampering with a dropped table's data must still be detected.
  for (CatalogEntry* entry : db_->AllTables()) {
    if (entry->name.rfind("DroppedTable_accounts", 0) == 0) {
      Row* row = entry->main->mutable_clustered()->MutableGet({VS("acct2")});
      ASSERT_NE(row, nullptr);
      (*row)[1] = VB(777777);
    }
  }
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(SchemaChangesTest, AlterColumnTypeConvertsAndVerifies) {
  ASSERT_TRUE(
      db_->AlterColumnType("accounts", "balance", DataType::kVarchar).ok());

  auto txn = db_->Begin("app");
  auto row = db_->Get(*txn, "accounts", {VS("acct3")});
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->size(), 2u);
  EXPECT_EQ((*row)[1].type(), DataType::kVarchar);
  EXPECT_EQ((*row)[1].string_value(), "30");
  ASSERT_TRUE(db_->Commit(*txn).ok());

  // Every converted version was hashed through the ledger: verify.
  ExpectVerifies();

  // History holds the pre-conversion versions (one per row).
  auto ref = db_->GetTableRef("accounts");
  EXPECT_GE(ref->history->row_count(), 5u);
}

TEST_F(SchemaChangesTest, AlterColumnTypeNoOpWhenSame) {
  ASSERT_TRUE(
      db_->AlterColumnType("accounts", "balance", DataType::kBigInt).ok());
  auto ref = db_->GetTableRef("accounts");
  EXPECT_EQ(ref->history->row_count(), 0u);  // nothing converted
}

TEST_F(SchemaChangesTest, AlterColumnTypeRestrictions) {
  EXPECT_EQ(db_->AlterColumnType("accounts", "name", DataType::kInt).code(),
            StatusCode::kInvalidArgument);  // primary key
  EXPECT_TRUE(
      db_->AlterColumnType("accounts", "nope", DataType::kInt).IsNotFound());
  // A stamp column: altering it would leave the table no DML could use.
  EXPECT_EQ(
      db_->AlterColumnType("accounts", kColStartSeq, DataType::kInt).code(),
      StatusCode::kInvalidArgument);
  auto txn = db_->Begin("app");
  ASSERT_TRUE(db_->Update(*txn, "accounts", {VS("acct1"), VB(11)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ExpectVerifies();
}

// Every value is cast before the schema changes, so a failed cast leaves
// the table as it was.
TEST_F(SchemaChangesTest, AlterColumnTypeFailedCastLeavesTableUnchanged) {
  ASSERT_TRUE(db_->AddColumn("accounts", "note", DataType::kVarchar).ok());
  auto txn = db_->Begin("app");
  ASSERT_TRUE(
      db_->Update(*txn, "accounts", {VS("acct1"), VB(10), VS("abc")}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  auto ref = db_->GetTableRef("accounts");
  ASSERT_TRUE(ref.ok());
  const size_t columns = ref->main->schema().num_columns();

  EXPECT_FALSE(db_->AlterColumnType("accounts", "note", DataType::kInt).ok());
  EXPECT_EQ(ref->main->schema().num_columns(), columns);
  int note = ref->main->schema().FindColumn("note");
  ASSERT_GE(note, 0);
  EXPECT_EQ(ref->main->schema().column(note).type, DataType::kVarchar);
  txn = db_->Begin("app");
  auto row = db_->Get(*txn, "accounts", {VS("acct1")});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].string_value(), "abc");
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ExpectVerifies();
}

// A UNIQUE index over a column refuses DROP COLUMN and ALTER COLUMN TYPE
// before any change; once the index is dropped, both go through.
TEST_F(SchemaChangesTest, UniqueIndexBlocksDropAndAlterColumn) {
  ASSERT_TRUE(
      db_->CreateTable("items", SimpleUserSchema(), TableKind::kUpdateable)
          .ok());
  for (int i = 1; i <= 3; i++)
    ASSERT_TRUE(InsertOne(db_.get(), "items", i, std::to_string(i * 10)).ok());
  ASSERT_TRUE(db_->CreateIndex("items", "u", {"payload"}, true).ok());
  const std::string before = CatalogSnapshot(db_.get());

  Status st = db_->DropColumn("items", "payload");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("'u'"), std::string::npos) << st.ToString();
  st = db_->AlterColumnType("items", "payload", DataType::kBigInt);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("'u'"), std::string::npos) << st.ToString();
  EXPECT_EQ(CatalogSnapshot(db_.get()), before);

  ASSERT_TRUE(db_->DropIndex("items", "u").ok());
  ASSERT_TRUE(db_->DropColumn("items", "payload").ok());
  for (int i = 1; i <= 3; i++) {
    auto txn = db_->Begin("app");
    ASSERT_TRUE(txn.ok());
    st = db_->Update(*txn, "items", {VB(i)});
    ASSERT_TRUE(st.ok()) << "row " << i << ": " << st.ToString();
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  ExpectVerifies();
}

TEST_F(SchemaChangesTest, IndexLifecycle) {
  ASSERT_TRUE(
      db_->CreateIndex("accounts", "by_balance", {"balance"}, false).ok());
  EXPECT_EQ(
      db_->CreateIndex("accounts", "by_balance", {"balance"}, false).code(),
      StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      db_->CreateIndex("accounts", "bad", {"nope"}, false).IsNotFound());
  ExpectVerifies();
  ASSERT_TRUE(db_->DropIndex("accounts", "by_balance").ok());
  EXPECT_TRUE(db_->DropIndex("accounts", "by_balance").IsNotFound());
  ExpectVerifies();
}

TEST_F(SchemaChangesTest, ColumnMetadataRecordedInLedger) {
  ASSERT_TRUE(db_->AddColumn("accounts", "email", DataType::kVarchar).ok());
  auto view = db_->GetLedgerView("sys_ledger_columns");
  ASSERT_TRUE(view.ok());
  bool found = false;
  for (const LedgerViewRow& row : *view) {
    if (row.values[2].string_value() == "email") found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace sqlledger

// Ledger view tests, reproducing the paper's Figure 2 scenario exactly:
// account balances with inserts, an update and a delete.

#include <gtest/gtest.h>

#include "ledger/ledger_view.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class LedgerViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/100);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
  }

  uint64_t Run(std::function<Status(Transaction*)> body) {
    auto txn = db_->Begin("app");
    EXPECT_TRUE(txn.ok());
    uint64_t id = (*txn)->id();
    Status st = body(*txn);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return id;
  }

  std::unique_ptr<LedgerDatabase> db_;
};

TEST_F(LedgerViewTest, Figure2Scenario) {
  // INSERT Nick $50; INSERT John $500; INSERT Joe $30; INSERT Mary $200;
  // UPDATE Nick -> $100 (DELETE $50 + INSERT $100); DELETE Joe.
  uint64_t t_nick = Run([&](Transaction* txn) {
    return db_->Insert(txn, "accounts", {VS("Nick"), VB(50)});
  });
  uint64_t t_john = Run([&](Transaction* txn) {
    return db_->Insert(txn, "accounts", {VS("John"), VB(500)});
  });
  uint64_t t_joe = Run([&](Transaction* txn) {
    return db_->Insert(txn, "accounts", {VS("Joe"), VB(30)});
  });
  Run([&](Transaction* txn) {
    return db_->Insert(txn, "accounts", {VS("Mary"), VB(200)});
  });
  uint64_t t_update = Run([&](Transaction* txn) {
    return db_->Update(txn, "accounts", {VS("Nick"), VB(100)});
  });
  uint64_t t_delete = Run([&](Transaction* txn) {
    return db_->Delete(txn, "accounts", {VS("Joe")});
  });

  auto view = db_->GetLedgerView("accounts");
  ASSERT_TRUE(view.ok());
  // 4 inserts + update (delete+insert) + delete = 7 operations.
  ASSERT_EQ(view->size(), 7u);

  // View is ordered by transaction; check the interesting rows.
  auto find = [&](uint64_t txn, const std::string& op) -> const LedgerViewRow* {
    for (const LedgerViewRow& row : *view) {
      if (row.transaction_id == txn && row.operation == op) return &row;
    }
    return nullptr;
  };

  const LedgerViewRow* nick_insert = find(t_nick, "INSERT");
  ASSERT_NE(nick_insert, nullptr);
  EXPECT_EQ(nick_insert->values[0].string_value(), "Nick");
  EXPECT_EQ(nick_insert->values[1].AsInt64(), 50);

  ASSERT_NE(find(t_john, "INSERT"), nullptr);
  ASSERT_NE(find(t_joe, "INSERT"), nullptr);

  // The update shows as DELETE of $50 and INSERT of $100, same txn.
  const LedgerViewRow* upd_delete = find(t_update, "DELETE");
  ASSERT_NE(upd_delete, nullptr);
  EXPECT_EQ(upd_delete->values[1].AsInt64(), 50);
  const LedgerViewRow* upd_insert = find(t_update, "INSERT");
  ASSERT_NE(upd_insert, nullptr);
  EXPECT_EQ(upd_insert->values[1].AsInt64(), 100);
  // Within the txn, the DELETE precedes the INSERT (sequence order).
  EXPECT_LT(upd_delete->sequence_number, upd_insert->sequence_number);

  const LedgerViewRow* joe_delete = find(t_delete, "DELETE");
  ASSERT_NE(joe_delete, nullptr);
  EXPECT_EQ(joe_delete->values[0].string_value(), "Joe");
  EXPECT_EQ(joe_delete->values[1].AsInt64(), 30);
}

TEST_F(LedgerViewTest, ViewOrderedByTransaction) {
  for (int i = 0; i < 10; i++) {
    Run([&](Transaction* txn) {
      return db_->Insert(txn, "accounts",
                         {VS("acct" + std::to_string(i)), VB(i)});
    });
  }
  auto view = db_->GetLedgerView("accounts");
  ASSERT_TRUE(view.ok());
  for (size_t i = 1; i < view->size(); i++) {
    EXPECT_LE((*view)[i - 1].transaction_id, (*view)[i].transaction_id);
  }
}

TEST_F(LedgerViewTest, RegularTableHasNoView) {
  ASSERT_TRUE(
      db_->CreateTable("plain", SimpleUserSchema(), TableKind::kRegular).ok());
  EXPECT_FALSE(db_->GetLedgerView("plain").ok());
  EXPECT_TRUE(db_->GetLedgerView("missing").status().IsNotFound());
}

TEST_F(LedgerViewTest, AppendOnlyViewListsInserts) {
  ASSERT_TRUE(
      db_->CreateTable("audit", SimpleUserSchema(), TableKind::kAppendOnly)
          .ok());
  for (int64_t i = 0; i < 3; i++) {
    Run([&](Transaction* txn) {
      return db_->Insert(txn, "audit", {VB(i), VS("event")});
    });
  }
  auto view = db_->GetLedgerView("audit");
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 3u);
  for (const LedgerViewRow& row : *view) EXPECT_EQ(row.operation, "INSERT");
}

TEST_F(LedgerViewTest, FormatProducesHeaderAndRows) {
  Run([&](Transaction* txn) {
    return db_->Insert(txn, "accounts", {VS("Nick"), VB(50)});
  });
  auto ref = db_->GetTableRef("accounts");
  auto view = db_->GetLedgerView("accounts");
  ASSERT_TRUE(view.ok());
  std::string text = FormatLedgerView(*ref->plan, *view);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("Operation"), std::string::npos);
  EXPECT_NE(text.find("'Nick'"), std::string::npos);
  EXPECT_NE(text.find("INSERT"), std::string::npos);
}

TEST_F(LedgerViewTest, TableOperationsViewShowsCreates) {
  auto ops = db_->GetTableOperationsView();
  ASSERT_TRUE(ops.ok());
  bool found_accounts = false;
  for (const TableOperationRow& op : *ops) {
    if (op.table_name == "accounts") {
      EXPECT_EQ(op.operation, "CREATE");
      found_accounts = true;
    }
  }
  EXPECT_TRUE(found_accounts);
}

TEST_F(LedgerViewTest, TableOperationsViewShowsDrops) {
  ASSERT_TRUE(db_->DropTable("accounts").ok());
  auto ops = db_->GetTableOperationsView();
  ASSERT_TRUE(ops.ok());
  bool found_create = false, found_drop = false;
  for (const TableOperationRow& op : *ops) {
    if (op.table_name == "accounts" && op.operation == "CREATE")
      found_create = true;
    if (op.table_name.rfind("DroppedTable_accounts", 0) == 0 &&
        op.operation == "DROP")
      found_drop = true;
  }
  EXPECT_TRUE(found_create);
  EXPECT_TRUE(found_drop);
}

}  // namespace
}  // namespace sqlledger

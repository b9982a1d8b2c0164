// Workload generator tests: TPC-C-like and TPC-E-like setups run, maintain
// invariants, and the whole database verifies afterwards.

#include <gtest/gtest.h>

#include "ledger/verifier.h"
#include "test_util.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

namespace sqlledger {
namespace {

TEST(TpccTest, SetupCreatesNineTables) {
  auto db = OpenTestDb(/*block_size=*/1000);
  TpccConfig config;
  config.warehouses = 1;
  TpccWorkload tpcc(db.get(), config);
  ASSERT_TRUE(tpcc.Setup().ok());

  int user_tables = 0, ledger_tables = 0;
  for (CatalogEntry* entry : db->AllTables()) {
    if (entry->is_system()) continue;
    user_tables++;
    if (entry->kind != TableKind::kRegular) ledger_tables++;
  }
  EXPECT_EQ(user_tables, 9);
  EXPECT_EQ(ledger_tables, 4);  // the four order-related tables (paper §4.1.1)
}

TEST(TpccTest, TransactionsRunAndVerify) {
  auto db = OpenTestDb(/*block_size=*/1000);
  TpccConfig config;
  TpccWorkload tpcc(db.get(), config);
  ASSERT_TRUE(tpcc.Setup().ok());

  Random rng(1);
  TpccStats stats;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tpcc.RunTransaction(&rng, &stats).ok());
  }
  EXPECT_GT(stats.committed, 150u);
  EXPECT_GT(stats.new_orders, 0u);
  EXPECT_GT(stats.payments, 0u);

  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(TpccTest, DeliveryConsumesNewOrders) {
  auto db = OpenTestDb(/*block_size=*/1000);
  TpccWorkload tpcc(db.get(), TpccConfig{});
  ASSERT_TRUE(tpcc.Setup().ok());
  Random rng(2);
  for (int i = 0; i < 20; i++) ASSERT_TRUE(tpcc.NewOrder(&rng).ok());
  auto ref = db->GetTableRef("new_order");
  ASSERT_TRUE(ref.ok());
  size_t before = ref->main->row_count();
  ASSERT_TRUE(tpcc.Delivery(&rng).ok());
  EXPECT_LT(ref->main->row_count(), before);
  // Deleted new_order rows are preserved in the history table.
  EXPECT_GT(ref->history->row_count(), 0u);
}

TEST(TpccTest, BaselineModeCreatesNoLedgerTables) {
  auto db = OpenTestDb(1000, /*enable_ledger=*/false);
  TpccConfig config;
  TpccWorkload tpcc(db.get(), config);
  ASSERT_TRUE(tpcc.Setup().ok());
  for (CatalogEntry* entry : db->AllTables()) {
    EXPECT_EQ(entry->kind, TableKind::kRegular);
  }
  Random rng(3);
  TpccStats stats;
  for (int i = 0; i < 50; i++)
    ASSERT_TRUE(tpcc.RunTransaction(&rng, &stats).ok());
  EXPECT_GT(stats.committed, 30u);
}

TEST(TpceTest, SetupCreates33LedgerTables) {
  auto db = OpenTestDb(/*block_size=*/1000);
  TpceWorkload tpce(db.get(), TpceConfig{});
  ASSERT_TRUE(tpce.Setup().ok());

  int user_tables = 0, ledger_tables = 0;
  for (CatalogEntry* entry : db->AllTables()) {
    if (entry->is_system()) continue;
    user_tables++;
    if (entry->kind == TableKind::kUpdateable) ledger_tables++;
  }
  EXPECT_EQ(user_tables, TpceWorkload::kTableCount);
  EXPECT_EQ(ledger_tables, TpceWorkload::kTableCount);  // all 33 (paper)
}

class TpceDurableTest : public TempDirTest {};

// Schema changes are durable through the WAL: a fresh database's only
// checkpoint is Open's, and the 33 tables reopen from the WAL alone.
TEST_F(TpceDurableTest, SetupTakesNoCheckpoint) {
  LedgerDatabaseOptions options;
  options.data_dir = Path("db");
  options.block_size = 1000;
  {
    auto db = LedgerDatabase::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    TpceWorkload tpce(db->get(), TpceConfig{});
    ASSERT_TRUE(tpce.Setup().ok());
    EXPECT_EQ(CounterValue(db->get(), "checkpoint.runs_total"), 1u);
  }
  auto db = LedgerDatabase::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  int user_tables = 0;
  for (CatalogEntry* entry : (*db)->AllTables())
    user_tables += entry->is_system() ? 0 : 1;
  EXPECT_EQ(user_tables, TpceWorkload::kTableCount);
}

TEST(TpceTest, TransactionsRunAndVerify) {
  auto db = OpenTestDb(/*block_size=*/1000);
  TpceWorkload tpce(db.get(), TpceConfig{});
  ASSERT_TRUE(tpce.Setup().ok());

  Random rng(4);
  TpceStats stats;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(tpce.RunTransaction(&rng, &stats).ok());
  }
  EXPECT_GT(stats.committed, 250u);
  EXPECT_GT(stats.reads, stats.trade_orders);  // read-heavy mix

  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(TpceTest, TradeLifecycleUpdatesHoldings) {
  auto db = OpenTestDb(/*block_size=*/1000);
  TpceWorkload tpce(db.get(), TpceConfig{});
  ASSERT_TRUE(tpce.Setup().ok());
  Random rng(5);
  for (int i = 0; i < 10; i++) ASSERT_TRUE(tpce.TradeOrder(&rng).ok());
  for (int i = 0; i < 30; i++) ASSERT_TRUE(tpce.TradeResult(&rng).ok());
  auto ref = db->GetTableRef("holding");
  ASSERT_TRUE(ref.ok());
  EXPECT_GT(ref->main->row_count(), 0u);
}

}  // namespace
}  // namespace sqlledger

// End-to-end integration tests spanning the full stack: the Contoso
// forward-integrity scenario of the paper's §2.5.1, durable databases with
// digest stores, and recovery-from-tampering (§3.7).

#include <gtest/gtest.h>

#include "ledger/digest_store.h"
#include "ledger/receipt.h"
#include "ledger/truncation.h"
#include "ledger/verifier.h"
#include "test_util.h"
#include "workload/tpcc.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class IntegrationTest : public TempDirTest {};

// The paper's §2.5.1 story: Contoso tracks manufactured parts; after a
// lawsuit, an insider tampers with which batch a part came from; the
// externally stored digests expose the tampering.
TEST_F(IntegrationTest, ContosoForwardIntegrity) {
  LedgerDatabaseOptions options;
  options.data_dir = Path("contoso");
  options.database_id = "contoso-parts";
  options.block_size = 8;
  auto db_result = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(*db_result);

  Schema parts;
  parts.AddColumn("part_id", DataType::kBigInt, false);
  parts.AddColumn("batch", DataType::kVarchar, false, 16);
  parts.AddColumn("car_vin", DataType::kVarchar, true, 20);
  parts.SetPrimaryKey({0});
  ASSERT_TRUE(db->CreateTable("parts", parts, TableKind::kUpdateable).ok());

  auto store = ImmutableBlobDigestStore::Open(Path("trusted_digests"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(db->StartDigestProtection(store->get()).ok());

  // 2018: honest operation — parts manufactured and installed.
  for (int i = 0; i < 20; i++) {
    auto txn = db->Begin("factory");
    ASSERT_TRUE(txn.ok());
    std::string batch = i < 10 ? "BATCH-GOOD" : "BATCH-RECALLED";
    ASSERT_TRUE(db->Insert(*txn, "parts",
                           {VB(i), VS(batch), VS("VIN" + std::to_string(i))})
                    .ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
    // Digests uploaded every few transactions (paper: every few seconds).
    if (i % 5 == 4) {
      ASSERT_TRUE(UploadDigest(db.get()).ok());
    }
  }
  ASSERT_TRUE(UploadDigest(db.get()).ok());

  // 2020: the lawsuit — Bob's car used part 15 (BATCH-RECALLED). An insider
  // edits the row at the storage layer to claim it was a good batch.
  TableStore* parts_store = db->GetStoreForTesting("parts");
  Row* row = parts_store->mutable_clustered()->MutableGet({VB(15)});
  ASSERT_NE(row, nullptr);
  (*row)[1] = VS("BATCH-GOOD");

  // The audit: verification against the externally stored digests.
  auto digests = (*store)->ListAll();
  ASSERT_TRUE(digests.ok());
  ASSERT_GE(digests->size(), 5u);
  auto report = VerifyLedger(db.get(), *digests);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());  // tampering exposed
  bool mentions_parts = false;
  for (const Violation& v : report->violations) {
    if (v.message.find("parts") != std::string::npos) mentions_parts = true;
  }
  EXPECT_TRUE(mentions_parts);
}

// Recovery from tampering (paper §3.7): restore a verified backup and
// repair, digests stay valid because the chain never forked.
TEST_F(IntegrationTest, RecoverFromTamperingViaBackup) {
  LedgerDatabaseOptions options;
  options.data_dir = Path("db");
  options.database_id = "prod";
  options.block_size = 4;
  auto db_result = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(*db_result);

  ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                              TableKind::kUpdateable)
                  .ok());
  InMemoryDigestStore store;
  for (int i = 0; i < 6; i++) {
    auto txn = db->Begin("app");
    ASSERT_TRUE(db->Insert(*txn, "accounts",
                           {VS("acct" + std::to_string(i)), VB(i * 100)})
                    .ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  ASSERT_TRUE(db->StartDigestProtection(&store).ok());
  ASSERT_TRUE(UploadDigest(db.get()).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  // "Backup": copy the data directory while it verifies.
  db.reset();
  std::filesystem::copy(Path("db"), Path("backup"),
                        std::filesystem::copy_options::recursive);

  // Attack the live database (first-category data: no future transactions
  // depend on it).
  LedgerDatabaseOptions reopen;
  reopen.data_dir = Path("db");
  reopen.database_id = "prod";
  reopen.block_size = 4;
  auto live = LedgerDatabase::Open(std::move(reopen));
  ASSERT_TRUE(live.ok());
  TableStore* accounts = (*live)->GetStoreForTesting("accounts");
  Row* row = accounts->mutable_clustered()->MutableGet({VS("acct2")});
  (*row)[1] = VB(999999);
  auto digests = store.ListAll();
  auto report = VerifyLedger(live->get(), *digests);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->ok());  // attack detected

  // Restore the backup: it verifies, and the digest chain continues from
  // it without a fork.
  LedgerDatabaseOptions restore;
  restore.data_dir = Path("backup");
  restore.database_id = "prod";
  restore.block_size = 4;
  auto restored = LedgerDatabase::Open(std::move(restore));
  ASSERT_TRUE(restored.ok());
  report = VerifyLedger(restored->get(), *digests);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  // Business continues on the restored copy; new digests chain cleanly.
  auto txn = (*restored)->Begin("app");
  ASSERT_TRUE(
      (*restored)->Update(*txn, "accounts", {VS("acct2"), VB(200)}).ok());
  ASSERT_TRUE((*restored)->Commit(*txn).ok());
  ASSERT_TRUE((*restored)->StartDigestProtection(&store).ok());
  ASSERT_TRUE(UploadDigest(restored->get()).ok());
  report = VerifyLedger(restored->get(), *store.ListAll());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// Full-stack soak: TPC-C traffic + digests + receipts + truncation +
// recovery, everything verifying at each stage.
TEST_F(IntegrationTest, FullLifecycleSoak) {
  LedgerDatabaseOptions options;
  options.data_dir = Path("soak");
  options.database_id = "soakdb";
  options.block_size = 32;
  auto db_result = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(*db_result);

  TpccConfig config;
  config.customers_per_district = 10;
  config.districts_per_warehouse = 4;
  TpccWorkload tpcc(db.get(), config);
  ASSERT_TRUE(tpcc.Setup().ok());

  InMemoryDigestStore store;
  ASSERT_TRUE(db->StartDigestProtection(&store).ok());
  Random rng(99);
  TpccStats stats;
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 50; i++)
      ASSERT_TRUE(tpcc.RunTransaction(&rng, &stats).ok());
    ASSERT_TRUE(UploadDigest(db.get()).ok());
  }
  EXPECT_GT(stats.committed, 150u);

  // Verify; issue a receipt for some ledger transaction.
  auto digests = store.ListAll();
  ASSERT_TRUE(digests.ok());
  auto report = VerifyLedger(db.get(), *digests);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  auto entries = db->database_ledger()->Snapshot().entries;
  uint64_t receipt_txn = 0;
  for (const TransactionEntry& e : entries) {
    if (!e.table_roots.empty() && e.block_id < 1) receipt_txn = e.txn_id;
  }
  if (receipt_txn != 0) {
    auto receipt = MakeTransactionReceipt(db.get(), receipt_txn);
    ASSERT_TRUE(receipt.ok());
    EXPECT_TRUE(VerifyTransactionReceipt(*receipt, db->signer()));
  }

  // Truncate the first half of the chain and keep going.
  uint64_t cutoff = db->database_ledger()->open_block_id() / 2;
  if (cutoff > 0) {
    Status st = TruncateLedger(db.get(), cutoff, *digests);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  for (int i = 0; i < 50; i++)
    ASSERT_TRUE(tpcc.RunTransaction(&rng, &stats).ok());
  ASSERT_TRUE(UploadDigest(db.get()).ok());

  // Crash + recover, then verify with the newest digest.
  ASSERT_TRUE(db->Checkpoint().ok());
  db.reset();
  LedgerDatabaseOptions reopen;
  reopen.data_dir = Path("soak");
  reopen.database_id = "soakdb";
  reopen.block_size = 32;
  auto recovered = LedgerDatabase::Open(std::move(reopen));
  ASSERT_TRUE(recovered.ok());
  auto latest = store.Latest("");
  ASSERT_TRUE(latest.ok());
  report = VerifyLedger(recovered->get(), {*latest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace sqlledger

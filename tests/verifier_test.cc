// Verifier tests on untampered databases: clean verification, digest
// coverage accounting, subset verification, and input validation.

#include <gtest/gtest.h>

#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class VerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/4);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
    ASSERT_TRUE(
        db_->CreateTable("audit", SimpleUserSchema(), TableKind::kAppendOnly)
            .ok());
  }

  void RunTraffic(int n) {
    for (int k = 0; k < n; k++) {
      int i = next_++;
      auto txn = db_->Begin("app");
      ASSERT_TRUE(txn.ok());
      std::string name = "acct" + std::to_string(i);
      ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS(name), VB(i)}).ok());
      ASSERT_TRUE(db_->Insert(*txn, "audit",
                              {VB(i), VS("created " + name)})
                      .ok());
      if (i > 0) {
        ASSERT_TRUE(db_->Update(*txn, "accounts",
                                {VS("acct" + std::to_string(i - 1)),
                                 VB(i * 10)})
                        .ok());
      }
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
  }

  std::unique_ptr<LedgerDatabase> db_;
  int next_ = 0;
};

TEST_F(VerifierTest, CleanDatabaseVerifies) {
  RunTraffic(10);
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->blocks_checked, 0u);
  EXPECT_GT(report->transactions_checked, 0u);
  EXPECT_GT(report->row_versions_checked, 0u);
  EXPECT_TRUE(report->has_digest_coverage);
  EXPECT_EQ(report->highest_digest_block, digest->block_id);
}

TEST_F(VerifierTest, VerifiesWithMultipleDigests) {
  RunTraffic(3);
  auto d1 = db_->GenerateDigest();
  ASSERT_TRUE(d1.ok());
  RunTraffic(3);
  auto d2 = db_->GenerateDigest();
  ASSERT_TRUE(d2.ok());
  auto report = VerifyLedger(db_.get(), {*d1, *d2});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->highest_digest_block, d2->block_id);
}

TEST_F(VerifierTest, VerifiesWithNoDigests) {
  // Internal consistency check only (no digest coverage).
  RunTraffic(5);
  auto report = VerifyLedger(db_.get(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_FALSE(report->has_digest_coverage);
}

TEST_F(VerifierTest, PendingTransactionsAreConsistent) {
  // Traffic after the last digest lives in the open block; verification
  // still checks it for internal consistency.
  RunTraffic(3);
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  RunTraffic(2);  // not covered by any digest
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(VerifierTest, SubsetVerificationOnlyChecksRequestedTables) {
  RunTraffic(5);
  auto digest = db_->GenerateDigest();
  VerificationOptions options;
  options.tables = {"accounts"};
  auto report = VerifyLedger(db_.get(), {*digest}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  // Tamper with audit; a subset verification of accounts won't see it...
  TableStore* audit = db_->GetStoreForTesting("audit");
  Row* row = audit->mutable_clustered()->MutableGet({VB(1)});
  ASSERT_NE(row, nullptr);
  (*row)[1] = VS("FORGED");
  report = VerifyLedger(db_.get(), {*digest}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  // ...but a full verification does.
  report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(VerifierTest, DigestForWrongDatabaseFlagged) {
  RunTraffic(2);
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  DatabaseDigest foreign = *digest;
  foreign.database_id = "some-other-db";
  auto report = VerifyLedger(db_.get(), {foreign});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_EQ(report->violations[0].invariant, 0);
}

TEST_F(VerifierTest, DigestForMissingBlockFlagged) {
  RunTraffic(2);
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  DatabaseDigest future = *digest;
  future.block_id = 999;
  auto report = VerifyLedger(db_.get(), {future});
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->ok());
  EXPECT_EQ(report->violations[0].invariant, 1);
}

TEST_F(VerifierTest, LedgerDisabledIsNotSupported) {
  auto plain = OpenTestDb(4, /*enable_ledger=*/false);
  EXPECT_EQ(VerifyLedger(plain.get(), {}).status().code(),
            StatusCode::kNotSupported);
}

TEST_F(VerifierTest, SummaryMentionsOutcome) {
  RunTraffic(2);
  auto digest = db_->GenerateDigest();
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->Summary().find("VERIFICATION PASSED"), std::string::npos);
}

TEST_F(VerifierTest, SystemTablesAreVerifiedToo) {
  // Even with zero user traffic the metadata system tables have rows from
  // table creation, and they must verify.
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->row_versions_checked, 0u);  // sys_ledger_tables rows
}

TEST_F(VerifierTest, ParallelVerificationMatchesSerial) {
  RunTraffic(20);
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());

  VerificationOptions parallel;
  parallel.parallelism = 4;
  auto serial_report = VerifyLedger(db_.get(), {*digest});
  auto parallel_report = VerifyLedger(db_.get(), {*digest}, parallel);
  ASSERT_TRUE(serial_report.ok());
  ASSERT_TRUE(parallel_report.ok());
  EXPECT_TRUE(parallel_report->ok()) << parallel_report->Summary();
  EXPECT_EQ(parallel_report->row_versions_checked,
            serial_report->row_versions_checked);
  EXPECT_EQ(parallel_report->transactions_checked,
            serial_report->transactions_checked);

  // Tampering is found identically under parallel verification.
  TableStore* store = db_->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({VS("acct5")});
  ASSERT_NE(row, nullptr);
  (*row)[1] = VB(777);
  serial_report = VerifyLedger(db_.get(), {*digest});
  parallel_report = VerifyLedger(db_.get(), {*digest}, parallel);
  ASSERT_TRUE(serial_report.ok());
  ASSERT_TRUE(parallel_report.ok());
  EXPECT_FALSE(parallel_report->ok());
  EXPECT_EQ(parallel_report->violations.size(),
            serial_report->violations.size());
}

}  // namespace
}  // namespace sqlledger

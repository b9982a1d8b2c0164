// Ledger truncation tests (paper §5.2): verify -> dummy-update -> truncate
// -> audit, then continued verifiability with recent digests.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ledger/truncation.h"
#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class TruncationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/4);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
    // Enough traffic to span several blocks, including updates so history
    // exists.
    for (int i = 0; i < 10; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(db_->Insert(*txn, "accounts",
                              {VS("acct" + std::to_string(i)), VB(i)})
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    for (int i = 0; i < 4; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(db_->Update(*txn, "accounts",
                              {VS("acct" + std::to_string(i)), VB(i + 100)})
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    auto digest = db_->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    digest_ = *digest;
  }

  std::unique_ptr<LedgerDatabase> db_;
  DatabaseDigest digest_;
};

TEST_F(TruncationTest, TruncateRemovesOldBlocksAndKeepsVerifying) {
  uint64_t cutoff = 2;
  ASSERT_GE(db_->database_ledger()->closed_block_count(), 3u);
  ASSERT_TRUE(db_->database_ledger()->FindBlock(0).ok());

  Status st = TruncateLedger(db_.get(), cutoff, {digest_});
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Old blocks physically gone.
  EXPECT_TRUE(db_->database_ledger()->FindBlock(0).status().IsNotFound());
  EXPECT_TRUE(db_->database_ledger()->FindBlock(1).status().IsNotFound());

  // The truncation is audited.
  auto records = db_->GetTruncationRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].truncated_below_block, cutoff);
  EXPECT_GE(records[0].max_txn_id, records[0].min_txn_id);

  // A fresh digest verifies post-truncation.
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(TruncationTest, LiveDataStillReadableAndCorrect) {
  ASSERT_TRUE(TruncateLedger(db_.get(), 2, {digest_}).ok());
  auto txn = db_->Begin("app");
  for (int i = 0; i < 10; i++) {
    auto row = db_->Get(*txn, "accounts", {VS("acct" + std::to_string(i))});
    ASSERT_TRUE(row.ok()) << "acct" << i;
    EXPECT_EQ((*row)[1].AsInt64(), i < 4 ? i + 100 : i);
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(TruncationTest, OldDigestsStopVerifyingAfterTruncation) {
  ASSERT_TRUE(TruncateLedger(db_.get(), 2, {digest_}).ok());
  // digest_ covers a truncated block only if its block < 2; ours covers the
  // last closed block, so craft an old digest instead: a digest for block 0
  // can no longer verify.
  DatabaseDigest old = digest_;
  old.block_id = 0;
  auto report = VerifyLedger(db_.get(), {old});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(TruncationTest, RefusesWithoutDigests) {
  EXPECT_EQ(TruncateLedger(db_.get(), 2, {}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TruncationTest, RefusesBeyondOpenBlock) {
  EXPECT_EQ(TruncateLedger(db_.get(), 10000, {digest_}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TruncationTest, RefusesOnTamperedDatabase) {
  TableStore* store = db_->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({VS("acct5")});
  ASSERT_NE(row, nullptr);
  (*row)[1] = VB(666);
  EXPECT_TRUE(
      TruncateLedger(db_.get(), 2, {digest_}).IsIntegrityViolation());
}

TEST_F(TruncationTest, TamperDetectionStillWorksAfterTruncation) {
  ASSERT_TRUE(TruncateLedger(db_.get(), 2, {digest_}).ok());
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());

  TableStore* store = db_->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({VS("acct7")});
  ASSERT_NE(row, nullptr);
  (*row)[1] = VB(31337);

  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(TruncationTest, SecondTruncationWorks) {
  ASSERT_TRUE(TruncateLedger(db_.get(), 2, {digest_}).ok());
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  // More traffic, then truncate again past the first cutoff.
  for (int i = 10; i < 14; i++) {
    auto txn = db_->Begin("app");
    ASSERT_TRUE(db_->Insert(*txn, "accounts",
                            {VS("acct" + std::to_string(i)), VB(i)})
                    .ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  auto digest2 = db_->GenerateDigest();
  ASSERT_TRUE(digest2.ok());
  uint64_t cutoff2 = digest2->block_id;  // truncate everything but the tail
  Status st = TruncateLedger(db_.get(), cutoff2, {*digest2});
  ASSERT_TRUE(st.ok()) << st.ToString();

  ASSERT_EQ(db_->GetTruncationRecords().size(), 2u);
  auto digest3 = db_->GenerateDigest();
  ASSERT_TRUE(digest3.ok());
  auto report = VerifyLedger(db_.get(), {*digest3});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(TruncationTest, NothingToTruncateIsOk) {
  // Cutoff 0 truncates nothing.
  EXPECT_TRUE(TruncateLedger(db_.get(), 0, {digest_}).ok());
  EXPECT_TRUE(db_->GetTruncationRecords().empty());
}

TEST_F(TruncationTest, VerifyHandlesLedgerTruncatedToTheTail) {
  // Truncate everything below the last closed block: the surviving chain
  // is as empty as truncation can make it, and full verification of that
  // stub — with a digest that still has a block to anchor to — must pass,
  // not crash or report phantom violations.
  uint64_t cutoff = digest_.block_id;
  ASSERT_TRUE(TruncateLedger(db_.get(), cutoff, {digest_}).ok());
  for (uint64_t b = 0; b < cutoff; b++)
    EXPECT_TRUE(db_->database_ledger()->FindBlock(b).status().IsNotFound())
        << "block " << b;

  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->blocks_checked, 0u);

  // With no digests at all the truncated stub still self-verifies.
  auto bare = VerifyLedger(db_.get(), {});
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->ok()) << bare->Summary();
  EXPECT_FALSE(bare->has_digest_coverage);
}

// ---- Interaction with the incremental-verification watermark ----

// Truncation dummy-updates the rows anchored in the blocks it removes
// under the table's X lock, starting from the rows it reads under that
// lock, so an update committed beside it is never reverted to its
// pre-image. A writer updates every row in turn while truncations run;
// every row ends at the value the writer last committed, and the ledger
// verifies.
TEST(TruncationConcurrencyTest, UpdatesBesideTruncationSurvive) {
  constexpr int kRows = 2000;
  auto db = OpenTestDb(/*block_size=*/4);
  ASSERT_TRUE(
      db->CreateTable("accounts", AccountSchema(), TableKind::kUpdateable)
          .ok());
  std::vector<int64_t> committed(kRows);
  auto name = [](int i) { return VS("a" + std::to_string(i)); };
  for (int i = 0; i < kRows; i++) {
    auto txn = db->Begin("app");
    ASSERT_TRUE(db->Insert(*txn, "accounts", {name(i), VB(i)}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
    committed[i] = i;
  }
  ASSERT_TRUE(db->GenerateDigest().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};
  std::atomic<int> unexpected{0};
  std::thread writer([&] {
    for (int64_t round = 1; !stop.load(); round++) {
      for (int i = 0; i < kRows && !stop.load(); i++) {
        const int64_t value = round * 1000000 + i;
        auto txn = db->Begin("writer");
        if (!txn.ok()) {
          unexpected++;
          return;
        }
        Status st = db->Update(*txn, "accounts", {name(i), VB(value)});
        if (st.ok()) {
          st = db->Commit(*txn);
        } else {
          db->Abort(*txn);
        }
        if (st.ok()) {
          committed[i] = value;
          commits++;
        } else if (!st.IsAborted()) {  // a lock timeout aborts
          unexpected++;
        }
      }
    }
  });
  for (int round = 0; round < 10; round++) {
    // Let the writer get going, so it runs beside the truncation.
    const int seen = commits.load();
    for (int spin = 0; commits.load() < seen + kRows / 4 && spin < 1000000;
         spin++)
      std::this_thread::yield();
    auto digest = db->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    const uint64_t below = db->database_ledger()->open_block_id() - 1;
    Status st = TruncateLedger(db.get(), below, {*digest});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  stop = true;
  writer.join();
  EXPECT_EQ(unexpected.load(), 0);

  auto txn = db->Begin("audit");
  ASSERT_TRUE(txn.ok());
  auto rows = db->Scan(*txn, "accounts");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
  int reverted = 0;
  for (const Row& row : *rows) {
    const int i = std::stoi(std::string(row[0].string_value().substr(1)));
    if (row[1].AsInt64() != committed[i]) reverted++;
  }
  EXPECT_EQ(reverted, 0);
  ASSERT_TRUE(db->Commit(*txn).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

class TruncationWatermarkTest : public TempDirTest {
 protected:
  // A durable database (the watermark file needs a data_dir) with traffic
  // spanning several blocks and a seeded watermark.
  void SetUp() override {
    TempDirTest::SetUp();
    LedgerDatabaseOptions options;
    options.data_dir = Path("db");
    options.database_id = "truncdb";
    options.block_size = 4;
    options.clock = [this] { return ++clock_; };
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    Status created = db_->CreateTable("accounts", AccountSchema(),
                                      TableKind::kUpdateable);
    ASSERT_TRUE(created.ok()) << created.ToString();
    for (int i = 0; i < 12; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(db_->Insert(*txn, "accounts",
                              {VS("acct" + std::to_string(i)), VB(i)})
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    auto digest = db_->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    digest_ = *digest;
    auto inc = VerifyLedgerIncremental(db_.get(), {digest_});
    ASSERT_TRUE(inc.ok());
    ASSERT_TRUE(inc->ok()) << inc->Summary();
    ASSERT_TRUE(db_->GetVerificationState().has_value());
  }

  std::unique_ptr<LedgerDatabase> db_;
  DatabaseDigest digest_;
  int64_t clock_ = 1000000;
};

TEST_F(TruncationWatermarkTest, TruncationClearsTheWatermark) {
  // TruncateLedger changes which transaction references are exempt, so
  // the pre-truncation watermark no longer attests what it claims: the
  // cached state and its file must both be gone afterwards.
  ASSERT_TRUE(TruncateLedger(db_.get(), 2, {digest_}).ok());
  EXPECT_FALSE(db_->GetVerificationState().has_value());
  EXPECT_FALSE(std::filesystem::exists(Path("db") + "/verify_state.sldb"));

  // And the next incremental verification re-seeds from scratch, agreeing
  // with a full run on the post-truncation chain.
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto inc = VerifyLedgerIncremental(db_.get(), {*digest});
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->ok()) << inc->Summary();
  EXPECT_FALSE(inc->fell_back_to_full) << inc->fallback_reason;
  EXPECT_EQ(inc->watermark_block, 0u);
  auto state = db_->GetVerificationState();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->last_verified_block, digest->block_id);
}

TEST_F(TruncationWatermarkTest, StaleBelowCutoffWatermarkFallsBackCleanly) {
  // Force the pathological order: a watermark that references a block the
  // truncation then removes (as if the clear had been lost). Re-anchoring
  // must fail, fall back to a clean full verification and re-seed.
  VerificationState stale = *db_->GetVerificationState();
  ASSERT_TRUE(TruncateLedger(db_.get(), digest_.block_id, {digest_}).ok());
  stale.last_verified_block = 0;  // truncated away
  ASSERT_TRUE(db_->StoreVerificationState(stale).ok());

  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto full = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(full.ok());
  auto inc = VerifyLedgerIncremental(db_.get(), {*digest});
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->fell_back_to_full);
  EXPECT_EQ(full->ok(), inc->ok());
  EXPECT_TRUE(inc->ok()) << inc->Summary();
  ASSERT_EQ(full->violations.size(), inc->violations.size());
}

}  // namespace
}  // namespace sqlledger

// Concurrency tests: parallel committers, lock-conflict aborts, quiescing,
// and verification consistency under concurrent load.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LedgerDatabaseOptions options;
    options.enable_ledger = true;
    options.block_size = 16;
    options.database_id = "ccdb";
    options.lock_timeout = std::chrono::milliseconds(2000);
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    // One table per worker avoids table-lock serialization; plus a shared
    // table for the contention test.
    for (int i = 0; i < kWorkers; i++) {
      ASSERT_TRUE(db_->CreateTable("t" + std::to_string(i),
                                   SimpleUserSchema(), TableKind::kUpdateable)
                      .ok());
    }
    ASSERT_TRUE(db_->CreateTable("shared", SimpleUserSchema(),
                                 TableKind::kUpdateable)
                    .ok());
  }

  static constexpr int kWorkers = 4;
  std::unique_ptr<LedgerDatabase> db_;
};

TEST_F(ConcurrencyTest, ParallelCommittersOnDisjointTables) {
  constexpr int kTxnsPerWorker = 100;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWorkers; w++) {
    threads.emplace_back([&, w] {
      std::string table = "t" + std::to_string(w);
      for (int i = 0; i < kTxnsPerWorker; i++) {
        auto txn = db_->Begin("worker" + std::to_string(w));
        if (!txn.ok()) {
          failures++;
          continue;
        }
        Status st = db_->Insert(
            *txn, table, {VB(i), VS("w" + std::to_string(w))});
        if (st.ok() && i > 0) {
          st = db_->Update(*txn, table, {VB(i - 1), VS("touched")});
        }
        if (st.ok()) {
          if (!db_->Commit(*txn).ok()) failures++;
        } else {
          db_->Abort(*txn);
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every transaction must have a distinct, gap-free slot in the ledger.
  ASSERT_TRUE(db_->database_ledger()->DrainQueue().ok());
  auto entries = db_->database_ledger()->AllEntries();
  std::set<std::pair<uint64_t, uint64_t>> slots;
  for (const TransactionEntry& e : entries)
    slots.insert({e.block_id, e.block_ordinal});
  EXPECT_EQ(slots.size(), entries.size());

  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(ConcurrencyTest, ContendedTableSerializesCorrectly) {
  // All workers increment the same row; table X locks serialize them.
  {
    auto txn = db_->Begin("init");
    ASSERT_TRUE(db_->Insert(*txn, "shared", {VB(1), VS("0")}).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  constexpr int kIncrementsPerWorker = 50;
  std::vector<std::thread> threads;
  std::atomic<int> aborted{0};
  for (int w = 0; w < kWorkers; w++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerWorker; i++) {
        while (true) {
          auto txn = db_->Begin("inc");
          if (!txn.ok()) continue;
          auto row = db_->Get(*txn, "shared", {VB(1)});
          if (!row.ok()) {
            db_->Abort(*txn);
            aborted++;
            continue;
          }
          int64_t v = std::stoll(std::string((*row)[1].string_value()));
          Status st =
              db_->Update(*txn, "shared", {VB(1), VS(std::to_string(v + 1))});
          if (st.ok() && db_->Commit(*txn).ok()) break;
          db_->Abort(*txn);
          aborted++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto txn = db_->Begin("check");
  auto row = db_->Get(*txn, "shared", {VB(1)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].string_value(),
            std::to_string(kWorkers * kIncrementsPerWorker));
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(ConcurrencyTest, RowLevelLockingAllowsDisjointRows) {
  LedgerDatabaseOptions options;
  options.lock_timeout = std::chrono::milliseconds(30);
  auto db = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                 TableKind::kUpdateable)
                  .ok());
  auto holder = (*db)->Begin("holder");
  ASSERT_TRUE((*db)->Insert(*holder, "t", {VB(1), VS("x")}).ok());

  // A different row of the same table does NOT conflict (row-level locks).
  auto other = (*db)->Begin("other");
  EXPECT_TRUE((*db)->Insert(*other, "t", {VB(2), VS("y")}).ok());
  ASSERT_TRUE((*db)->Commit(*other).ok());

  // The SAME row does conflict and aborts after the timeout.
  auto waiter = (*db)->Begin("waiter");
  Status st = (*db)->Insert(*waiter, "t", {VB(1), VS("dup")});
  EXPECT_TRUE(st.IsAborted());
  (*db)->Abort(*waiter);
  ASSERT_TRUE((*db)->Commit(*holder).ok());

  // Scans (table S) conflict with an open writer's IX.
  auto writer = (*db)->Begin("writer");
  ASSERT_TRUE((*db)->Insert(*writer, "t", {VB(3), VS("z")}).ok());
  auto scanner = (*db)->Begin("scanner");
  EXPECT_TRUE((*db)->Scan(*scanner, "t").status().IsAborted());
  (*db)->Abort(*scanner);
  ASSERT_TRUE((*db)->Commit(*writer).ok());
}

TEST_F(ConcurrencyTest, ReadOfUncommittedRowBlocks) {
  LedgerDatabaseOptions options;
  options.lock_timeout = std::chrono::milliseconds(30);
  auto db = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                 TableKind::kUpdateable)
                  .ok());
  {
    auto txn = (*db)->Begin("init");
    ASSERT_TRUE((*db)->Insert(*txn, "t", {VB(1), VS("v1")}).ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  auto writer = (*db)->Begin("writer");
  ASSERT_TRUE((*db)->Update(*writer, "t", {VB(1), VS("v2")}).ok());

  // No dirty reads: a reader of the locked row times out; a reader of a
  // different row proceeds.
  auto reader = (*db)->Begin("reader");
  EXPECT_TRUE((*db)->Get(*reader, "t", {VB(1)}).status().IsAborted());
  (*db)->Abort(*reader);
  ASSERT_TRUE((*db)->Commit(*writer).ok());

  auto after = (*db)->Begin("after");
  auto row = (*db)->Get(*after, "t", {VB(1)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].string_value(), "v2");
  ASSERT_TRUE((*db)->Commit(*after).ok());
}

TEST_F(ConcurrencyTest, DigestGenerationDuringLoad) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop) {
      auto txn = db_->Begin("w");
      if (!txn.ok()) continue;
      if (db_->Insert(*txn, "t0", {VB(100000 + i++), VS("x")}).ok()) {
        (void)db_->Commit(*txn);  // contention aborts are expected here
      } else {
        (void)db_->Abort(*txn);
      }
    }
  });
  std::vector<DatabaseDigest> digests;
  for (int i = 0; i < 10; i++) {
    auto digest = db_->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    digests.push_back(*digest);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop = true;
  writer.join();

  // Digest chain is fork-free end to end.
  for (size_t i = 1; i < digests.size(); i++) {
    auto derivable =
        db_->database_ledger()->VerifyDigestChain(digests[i - 1], digests[i]);
    ASSERT_TRUE(derivable.ok());
    EXPECT_TRUE(*derivable) << "digest " << i;
  }
  auto report = VerifyLedger(db_.get(), digests);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(ConcurrencyTest, ReadersShareLocks) {
  {
    auto txn = db_->Begin("init");
    ASSERT_TRUE(db_->Insert(*txn, "shared", {VB(1), VS("v")}).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<int> ok_reads{0};
  for (int w = 0; w < 8; w++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; i++) {
        auto txn = db_->Begin("r");
        if (!txn.ok()) continue;
        if (db_->Get(*txn, "shared", {VB(1)}).ok()) ok_reads++;
        ASSERT_TRUE(db_->Commit(*txn).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_reads.load(), 8 * 50);
}

}  // namespace
}  // namespace sqlledger

// Concurrency tests: parallel committers, lock-conflict aborts, maintenance
// views, and verification consistency under concurrent load.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "ledger/truncation.h"
#include "ledger/verifier.h"
#include "sql/session.h"
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
  auto entries = db_->database_ledger()->Snapshot().entries;
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
          if (!st.ok()) {
            db_->Abort(*txn);
          } else if (db_->Commit(*txn).ok()) {  // a failed commit aborts
            break;
          }
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

// DML reads the table's schema (to find the row key) only under the table
// lock, which a schema change holds exclusively while it rewrites that
// schema. One thread inserts while the main thread adds 20 columns; the
// writer widens its rows when a new column makes them too short. Every
// insert commits or aborts cleanly, and exactly the committed ones remain.
TEST_F(ConcurrencyTest, InsertsDuringAddColumn) {
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::atomic<int> unexpected{0};
  std::thread writer([&] {
    std::vector<Value> row{VB(0), VS("w")};
    for (int64_t id = 1; !stop.load(); id++) {
      auto txn = db_->Begin("writer");
      if (!txn.ok()) {
        unexpected++;
        return;
      }
      row[0] = VB(id);
      Status st = db_->Insert(*txn, "shared", row);
      if (!st.ok()) {
        db_->Abort(*txn);
        if (st.code() == StatusCode::kInvalidArgument)
          row.push_back(Value::Null(DataType::kInt));  // a column was added
        else if (st.code() != StatusCode::kAborted)
          unexpected++;
        continue;
      }
      if (db_->Commit(*txn).ok()) committed++;
    }
  });
  for (int i = 0; i < 20; i++) {
    // Let the writer commit at the current width before the next change.
    const int seen = committed.load();
    for (int spin = 0; committed.load() == seen && spin < 1000000; spin++)
      std::this_thread::yield();
    Status st = db_->AddColumn("shared", "c" + std::to_string(i),
                               DataType::kInt);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  stop = true;
  writer.join();

  EXPECT_EQ(unexpected.load(), 0);
  auto txn = db_->Begin("audit");
  ASSERT_TRUE(txn.ok());
  auto rows = db_->Scan(*txn, "shared");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(committed.load(), 20);
  EXPECT_EQ(rows->size(), static_cast<size_t>(committed.load()));
  for (const Row& r : *rows) EXPECT_EQ(r.size(), 22u);
  ASSERT_TRUE(db_->Commit(*txn).ok());
  auto report = VerifyLedger(db_.get(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// A schema change reads the schema it checks (does the column exist?)
// only under the table's X lock, so two threads adding columns to one
// table serialize instead of racing: all 40 adds succeed.
TEST_F(ConcurrencyTest, ConcurrentAddColumnsOnOneTable) {
  const size_t before =
      db_->GetStoreForTesting("shared")->schema().num_columns();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (const char* prefix : {"a", "b"}) {
    threads.emplace_back([&, prefix] {
      for (int i = 0; i < 20; i++) {
        Status st = db_->AddColumn("shared", prefix + std::to_string(i),
                                   DataType::kInt);
        if (!st.ok()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db_->GetStoreForTesting("shared")->schema().num_columns(),
            before + 40);
  auto report = VerifyLedger(db_.get(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// GetTableRef copies a table's ref while schema changes relink it: the
// copy and the relink share the catalog lock, and the copied plan stays
// whole while later changes publish new ones.
TEST_F(ConcurrencyTest, GetTableRefDuringAddColumn) {
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    size_t width = 0;
    while (!stop.load()) {
      auto ref = db_->GetTableRef("shared");
      if (!ref.ok() || ref->main == nullptr || ref->history == nullptr ||
          ref->plan == nullptr) {
        bad++;
        continue;
      }
      const TablePlan& plan = *ref->plan;
      if (plan.start_txn_ord < 0 || plan.end_seq_ord < 0 ||
          plan.visible_columns.size() != plan.visible_ords.size() ||
          plan.visible_ords.size() < width ||
          plan.visible_columns[0].name != "id")
        bad++;
      width = plan.visible_ords.size();
    }
  });
  for (int i = 0; i < 20; i++) {
    Status st = db_->AddColumn("shared", "c" + std::to_string(i),
                               DataType::kInt);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  stop = true;
  reader.join();
  EXPECT_EQ(bad.load(), 0);
}

// The SQL session pins one plan per statement and reads no live schema,
// so statements beside schema changes read only what their plan holds.
// One session thread runs a SELECT and an UPDATE in a loop while the main
// thread adds 40 columns and drops every other one it added; each
// statement succeeds, or fails cleanly with InvalidArgument or Aborted
// when a change lands between its plan and its rows.
TEST_F(ConcurrencyTest, SqlSessionDuringColumnChanges) {
  {
    auto txn = db_->Begin("init");
    ASSERT_TRUE(db_->Insert(*txn, "shared", {VB(3), VS("y")}).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};
  std::atomic<int> ok{0};
  std::atomic<int> unexpected{0};
  std::thread session_thread([&] {
    SqlSession session(db_.get());
    while (!stop.load()) {
      for (const char* sql :
           {"SELECT * FROM shared WHERE payload = 'x'",
            "UPDATE shared SET payload = 'x' WHERE id = 3"}) {
        auto result = session.Execute(sql);
        if (result.ok()) {
          ok++;
        } else if (result.status().code() != StatusCode::kInvalidArgument &&
                   !result.status().IsAborted()) {
          ADD_FAILURE() << sql << ": " << result.status().ToString();
          unexpected++;
        }
        done++;
      }
    }
  });
  for (int i = 0; i < 40; i++) {
    // Let the session finish a statement before the next change.
    const int seen = done.load();
    for (int spin = 0; done.load() == seen && spin < 1000000; spin++)
      std::this_thread::yield();
    Status st = db_->AddColumn("shared", "c" + std::to_string(i),
                               DataType::kInt);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (i % 2 == 1) {
      st = db_->DropColumn("shared", "c" + std::to_string(i - 1));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
  stop = true;
  session_thread.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(ok.load(), 0);
  SqlSession session(db_.get());
  auto rows = session.Execute("SELECT * FROM shared WHERE id = 3");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->column_names.size(), 22u);  // id, payload, c1 ... c39
  EXPECT_EQ(rows->rows[0].size(), 22u);
  auto report = VerifyLedger(db_.get(), {});
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

// GetTruncationRecords reads sys_ledger_truncations through a view of its
// own, so a reader looping beside two truncations never scans the table
// while RecordTruncation inserts into it: it sees whole records, in cutoff
// order, and never fewer than it saw before.
TEST(MaintenanceViewTest, TruncationRecordsReadBesideTwoTruncations) {
  auto db = OpenTestDb(/*block_size=*/4);
  ASSERT_TRUE(
      db->CreateTable("accounts", AccountSchema(), TableKind::kUpdateable)
          .ok());
  auto traffic = [&](int from, int to) {
    for (int i = from; i < to; i++) {
      auto txn = db->Begin("app");
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(
          db->Insert(*txn, "accounts", {VS("a" + std::to_string(i)), VB(i)})
              .ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
  };
  traffic(0, 12);
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    size_t seen = 0;
    while (!stop.load()) {
      std::vector<TruncationRecord> records = db->GetTruncationRecords();
      if (records.size() < seen) bad++;
      for (size_t k = 1; k < records.size(); k++)
        if (records[k].truncated_below_block <=
            records[k - 1].truncated_below_block)
          bad++;
      seen = records.size();
      reads++;
    }
  });
  // Each truncation starts once the reader has read, so the two overlap.
  auto await_read = [&] {
    const int from = reads.load();
    for (int spin = 0; reads.load() == from && spin < 1000000; spin++)
      std::this_thread::yield();
  };
  Status first, second;
  await_read();
  auto digest = db->GenerateDigest();
  if (digest.ok()) first = TruncateLedger(db.get(), 2, {*digest});
  traffic(12, 20);
  auto digest2 = db->GenerateDigest();
  await_read();
  if (digest2.ok())
    second = TruncateLedger(db.get(), digest2->block_id, {*digest2});
  stop = true;
  reader.join();
  ASSERT_TRUE(digest.ok() && digest2.ok());
  ASSERT_TRUE(first.ok()) << first.ToString();
  ASSERT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(db->GetTruncationRecords().size(), 2u);
}

// Every row of every store, read through a view.
std::map<uint32_t, std::vector<Row>> AllStoreRows(LedgerDatabase* db) {
  std::map<uint32_t, std::vector<Row>> out;
  MaintenanceView view = db->OpenMaintenanceView();
  for (TableStore* store : view.stores()) {
    std::vector<Row>& rows = out[store->table_id()];
    for (BTree::Iterator it = store->Scan(); it.Valid(); it.Next())
      rows.push_back(it.value());
  }
  return out;
}

// Four sessions write while another thread checkpoints, verifies
// incrementally and truncates once, each job on a MaintenanceView of its
// own. Every job succeeds with a clean report, and a reopen holds exactly
// the rows of every store, ledger and history stores included, that the
// database held when it closed.
class MaintenanceBesideWritersTest : public TempDirTest {};

TEST_F(MaintenanceBesideWritersTest, ReportsCleanAndReopenMatches) {
  constexpr int kWriters = 4;
  constexpr int kRows = 40;
  constexpr int kRounds = 12;
  LedgerDatabaseOptions options;
  options.data_dir = Path("db");
  options.database_id = "maintdb";
  options.block_size = 8;
  options.lock_timeout = std::chrono::milliseconds(2000);
  auto opened = LedgerDatabase::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<LedgerDatabase> db = std::move(*opened);
  for (int w = 0; w < kWriters; w++)
    ASSERT_TRUE(db->CreateTable("w" + std::to_string(w), SimpleUserSchema(),
                                TableKind::kUpdateable)
                    .ok());

  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      const std::string table = "w" + std::to_string(w);
      for (int64_t n = 0; !stop.load(); n++) {
        auto txn = db->Begin("writer");
        if (!txn.ok()) {
          unexpected++;
          return;
        }
        const Row row = {VB(n % kRows), VS("v" + std::to_string(n))};
        Status st = n < kRows ? db->Insert(*txn, table, row)
                              : db->Update(*txn, table, row);
        if (st.ok()) {
          st = db->Commit(*txn);
        } else {
          db->Abort(*txn);
        }
        if (st.ok()) {
          commits++;
        } else if (!st.IsAborted()) {  // a lock timeout aborts
          unexpected++;
        }
      }
    });
  }
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      failures++;
      ADD_FAILURE() << what;
    }
  };
  for (int round = 0; round < kRounds && failures == 0; round++) {
    // Let the writers get going, so each job runs beside them.
    const int seen = commits.load();
    for (int spin = 0; commits.load() < seen + 20 && spin < 1000000; spin++)
      std::this_thread::yield();
    Status st = db->Checkpoint();
    check(st.ok(), "checkpoint: " + st.ToString());
    auto digest = db->GenerateDigest();
    check(digest.ok(), "digest: " + digest.status().ToString());
    if (!digest.ok()) break;
    auto report = VerifyLedgerIncremental(db.get(), {*digest});
    check(report.ok() && report->ok(),
          report.ok() ? report->Summary() : report.status().ToString());
    if (round == kRounds / 2) {
      st = TruncateLedger(db.get(), digest->block_id, {*digest});
      check(st.ok(), "truncation: " + st.ToString());
      check(db->GetTruncationRecords().size() == 1, "no truncation record");
    }
  }
  stop = true;
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures, 0);
  EXPECT_EQ(unexpected.load(), 0);

  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  const std::map<uint32_t, std::vector<Row>> before = AllStoreRows(db.get());
  db.reset();
  opened = LedgerDatabase::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db = std::move(*opened);
  const std::map<uint32_t, std::vector<Row>> after = AllStoreRows(db.get());
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [id, rows] : before) {
    auto it = after.find(id);
    ASSERT_NE(it, after.end()) << "store " << id;
    ASSERT_EQ(it->second.size(), rows.size()) << "store " << id;
    for (size_t k = 0; k < rows.size(); k++)
      EXPECT_TRUE(it->second[k] == rows[k]) << "store " << id << " row " << k;
  }
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace sqlledger

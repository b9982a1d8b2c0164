// Group-commit torture tests (DESIGN.md §10): multi-threaded committers
// must produce dense, ordered block ordinals; a crash at any sync point of
// a group leaves recovery with a prefix of whole transactions; a failed
// group sync errors every member and latches the sticky WAL error; and the
// group counters/batched-fsync accounting hold up.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "storage/env.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class GroupCommitTest : public TempDirTest {
 protected:
  LedgerDatabaseOptions MakeOptions(const std::string& subdir, Env* env,
                                    CommitOptions commit = {}) {
    LedgerDatabaseOptions options;
    options.data_dir = Path(subdir);
    options.database_id = "groupdb";
    options.block_size = 5;  // small blocks so groups span block boundaries
    options.sync_wal = true;
    options.env = env;
    options.commit = commit;
    options.clock = [this] { return ++clock_; };
    return options;
  }

  // Atomic: called from concurrent committers.
  std::atomic<int64_t> clock_{1000000};
};

// Checks that the persisted ledger entries have contiguous block ids with
// dense 0..n-1 ordinals in every block (no gap, no duplicate).
void ExpectDenseOrdinals(const std::vector<TransactionEntry>& entries,
                         uint64_t block_size) {
  std::map<uint64_t, std::set<uint64_t>> by_block;
  for (const TransactionEntry& e : entries) {
    EXPECT_TRUE(by_block[e.block_id].insert(e.block_ordinal).second)
        << "duplicate slot (" << e.block_id << ", " << e.block_ordinal << ")";
  }
  uint64_t expected_block = by_block.empty() ? 0 : by_block.begin()->first;
  for (const auto& [block_id, ordinals] : by_block) {
    EXPECT_EQ(block_id, expected_block) << "gap in block ids";
    expected_block++;
    uint64_t expected = 0;
    for (uint64_t ord : ordinals) {
      EXPECT_EQ(ord, expected) << "ordinal gap in block " << block_id;
      expected++;
    }
    EXPECT_LE(ordinals.size(), block_size);
  }
}

// ---- (a) dense, ordered ordinals under concurrent committers ----

TEST_F(GroupCommitTest, MultiThreadedCommitsYieldDenseOrdinals) {
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 40;
  CommitOptions commit;
  commit.max_group_size = 16;
  auto db = LedgerDatabase::Open(MakeOptions("db", nullptr, commit));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kAppendOnly).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; i++) {
        int64_t id = t * kTxnsPerThread + i;
        Status st = InsertOne(db->get(), "t", id, "p" + std::to_string(id));
        if (!st.ok()) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Close the open block and persist the queue so AllEntries sees all.
  ASSERT_TRUE((*db)->GenerateDigest().ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());

  std::vector<TransactionEntry> entries =
      (*db)->database_ledger()->AllEntries();
  // kThreads*kTxnsPerThread user txns + the bootstrap system-catalog txn
  // from Open + the CreateTable DDL txn.
  EXPECT_EQ(entries.size(),
            static_cast<size_t>(kThreads * kTxnsPerThread + 2));
  ExpectDenseOrdinals(entries, (*db)->options().block_size);

  uint64_t group_txns = CounterValue(db->get(), "commit.group_txns_total");
  EXPECT_EQ(group_txns, static_cast<uint64_t>(kThreads * kTxnsPerThread + 2));
  EXPECT_GE(group_txns, CounterValue(db->get(), "commit.groups_total"));
  EXPECT_GE((*db)->MetricsSnapshot().histograms["commit.group_size"].max, 1u);

  // All rows visible.
  auto txn = (*db)->Begin("check");
  auto rows = (*db)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kThreads * kTxnsPerThread));
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

// ---- (b) crash at every sync point: whole-transaction prefix ----

TEST_F(GroupCommitTest, CrashAtEverySyncPointLeavesWholeTxnPrefix) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 6;
  constexpr int64_t kPairOffset = 1000000;

  bool completed_without_crash = false;
  for (uint64_t crash_point = 1; !completed_without_crash && crash_point < 200;
       crash_point++) {
    std::string subdir = "crash" + std::to_string(crash_point);
    FaultInjectionEnv env;
    std::vector<int64_t> ok_ids;
    std::mutex ok_mu;
    {
      CommitOptions commit;
      commit.max_group_size = 8;
      auto db = LedgerDatabase::Open(MakeOptions(subdir, &env, commit));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_TRUE((*db)
                      ->CreateTable("t", SimpleUserSchema(),
                                    TableKind::kAppendOnly)
                      .ok());
      // Countdown semantics: the crash_point-th sync from here crashes.
      env.CrashAtSync(static_cast<int>(crash_point));

      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
          for (int i = 0; i < kTxnsPerThread; i++) {
            int64_t id = t * kTxnsPerThread + i;
            auto txn = (*db)->Begin("crash");
            if (!txn.ok()) return;
            // Two rows per transaction: recovery must surface both or
            // neither — a torn transaction would show exactly one.
            Status st = (*db)->Insert(
                *txn, "t", {VB(id), VS("a" + std::to_string(id))});
            if (st.ok())
              st = (*db)->Insert(*txn, "t",
                                 {VB(id + kPairOffset),
                                  VS("b" + std::to_string(id))});
            if (st.ok()) st = (*db)->Commit(*txn);
            if (st.ok()) {
              std::lock_guard<std::mutex> guard(ok_mu);
              ok_ids.push_back(id);
            } else {
              (*db)->Abort(*txn);
            }
          }
        });
      }
      for (auto& th : threads) th.join();
      completed_without_crash = !env.crashed();
    }

    // Reopen with a healthy filesystem; recovery replays the WAL tail.
    auto db = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db.ok()) << "crash_point=" << crash_point << ": "
                         << db.status().ToString();
    auto txn = (*db)->Begin("check");
    auto rows = (*db)->Scan(*txn, "t");
    ASSERT_TRUE(rows.ok());
    std::set<int64_t> recovered;
    for (const Row& row : *rows) recovered.insert(row[0].AsInt64());
    ASSERT_TRUE((*db)->Commit(*txn).ok());

    // Every transaction that returned OK before the crash is durable.
    for (int64_t id : ok_ids) {
      EXPECT_TRUE(recovered.count(id)) << "crash_point=" << crash_point
                                       << ": lost committed txn " << id;
      EXPECT_TRUE(recovered.count(id + kPairOffset))
          << "crash_point=" << crash_point << ": torn txn " << id;
    }
    // No torn transaction became visible: both rows or neither.
    for (int64_t id : recovered) {
      if (id >= kPairOffset) continue;
      EXPECT_TRUE(recovered.count(id + kPairOffset))
          << "crash_point=" << crash_point << ": torn txn " << id;
    }
    ASSERT_TRUE((*db)->GenerateDigest().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ExpectDenseOrdinals((*db)->database_ledger()->AllEntries(),
                        (*db)->options().block_size);
  }
  EXPECT_TRUE(completed_without_crash)
      << "workload never ran crash-free; raise the crash_point cap";
}

// ---- (c) failed group sync fails every member + sticky latch ----

TEST_F(GroupCommitTest, FailedGroupSyncFailsEveryMemberAndLatches) {
  constexpr int kThreads = 4;
  FaultInjectionEnv env;
  CommitOptions commit;
  commit.max_group_size = kThreads;
  commit.max_group_wait_micros = 200000;  // let the group form
  auto db = LedgerDatabase::Open(MakeOptions("db", &env, commit));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kAppendOnly).ok());
  uint64_t committed_before = CounterValue(db->get(), "commit.txns_total");

  // The next WAL fsync fails — whichever group issues it. Later groups hit
  // the sticky error, so every concurrent member must come back non-OK.
  env.FailNthSync(1);

  std::atomic<int> commit_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto txn = (*db)->Begin("member");
      ASSERT_TRUE(txn.ok());
      Status st = (*db)->Insert(*txn, "t", {VB(t), VS("x")});
      if (st.ok()) st = (*db)->Commit(*txn);
      if (!st.ok()) {
        commit_errors++;
        (*db)->Abort(*txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(commit_errors.load(), kThreads);
  EXPECT_EQ(CounterValue(db->get(), "commit.txns_total"), committed_before);

  // Sticky: the env is healthy again but the WAL stays poisoned. A failed
  // commit leaves the transaction active; abort it explicitly so the
  // checkpoint below can quiesce.
  {
    auto txn = (*db)->Begin("poisoned");
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*db)->Insert(*txn, "t", {VB(100), VS("after-poison")}).ok());
    EXPECT_FALSE((*db)->Commit(*txn).ok());
    (*db)->Abort(*txn);
  }

  // A checkpoint rotates the WAL, clearing the poison; the released slots
  // are re-assigned so ordinals stay dense.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_TRUE(InsertOne(db->get(), "t", 101, "after-reset").ok());
  ASSERT_TRUE((*db)->GenerateDigest().ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ExpectDenseOrdinals((*db)->database_ledger()->AllEntries(),
                      (*db)->options().block_size);
}

// ---- aborted-transaction counter ----

TEST_F(GroupCommitTest, AbortedTransactionsAreCounted) {
  auto db = LedgerDatabase::Open(MakeOptions("db", nullptr));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kAppendOnly).ok());
  uint64_t aborted_before = CounterValue(db->get(), "commit.aborts_total");

  for (int i = 0; i < 3; i++) {
    auto txn = (*db)->Begin("aborter");
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*db)->Insert(*txn, "t", {VB(i), VS("gone")}).ok());
    (*db)->Abort(*txn);
  }
  EXPECT_EQ(CounterValue(db->get(), "commit.aborts_total"), aborted_before + 3);

  auto txn = (*db)->Begin("check");
  auto rows = (*db)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

// ---- group counters + one fsync per group ----

TEST_F(GroupCommitTest, GroupOfTwoSharesOneFsync) {
  FaultInjectionEnv env;
  CommitOptions commit;
  commit.max_group_size = 2;
  // Generous linger: the leader seals as soon as the second member
  // arrives, so the full wait is only ever paid on a pathological
  // scheduling stall.
  commit.max_group_wait_micros = 2000000;
  auto db = LedgerDatabase::Open(MakeOptions("db", &env, commit));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kAppendOnly).ok());

  MetricsSnapshot before = (*db)->MetricsSnapshot();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      EXPECT_TRUE(InsertOne(db->get(), "t", t, "pair").ok());
    });
  }
  for (auto& th : threads) th.join();

  MetricsSnapshot after = (*db)->MetricsSnapshot();
  EXPECT_EQ(after.counters["commit.group_txns_total"] -
                before.counters["commit.group_txns_total"],
            2u);
  EXPECT_EQ(after.counters["commit.groups_total"] -
                before.counters["commit.groups_total"],
            1u);
  EXPECT_EQ(after.histograms["commit.group_size"].max, 2u);
  // One batched fsync for the pair — the whole point of group commit.
  EXPECT_EQ(after.counters["wal.syncs_total"] -
                before.counters["wal.syncs_total"],
            1u);
}

}  // namespace
}  // namespace sqlledger

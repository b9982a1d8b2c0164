// Group-commit torture tests (DESIGN.md §10): multi-threaded committers
// must produce dense, ordered block ordinals; a crash at any sync point of
// a group leaves recovery with a prefix of whole transactions; a failed
// group sync errors every member, aborts it and latches the sticky WAL
// error; and the group counters/batched-fsync accounting hold up.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "ledger/verifier.h"
#include "sql/session.h"
#include "storage/env.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

// A FaultInjectionEnv that can hold one WAL fsync open: after Hold(), the
// next WAL Sync() completes but does not return until Release(), so its
// group's leader stays busy while later committers queue up behind it.
class HoldSyncEnv : public FaultInjectionEnv {
 public:
  void Hold() { Set(kArmed); }
  void Release() { Set(kIdle); }
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(hold_mu_);
    hold_cv_.wait(lock, [this] { return state_ == kHolding; });
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, const WritableFileOptions& opts) override {
    auto file = FaultInjectionEnv::NewWritableFile(path, opts);
    if (!file.ok() || path.find("wal.log") == std::string::npos) return file;
    return std::unique_ptr<WritableFile>(
        std::make_unique<HeldSyncFile>(this, std::move(*file)));
  }

 private:
  enum State { kIdle, kArmed, kHolding };
  class HeldSyncFile : public WritableFile {
   public:
    HeldSyncFile(HoldSyncEnv* env, std::unique_ptr<WritableFile> target)
        : env_(env), target_(std::move(target)) {}
    Status Append(Slice data) override { return target_->Append(data); }
    Status Flush() override { return target_->Flush(); }
    Status Close() override { return target_->Close(); }
    Status Sync() override {
      Status st = target_->Sync();
      std::unique_lock<std::mutex> lock(env_->hold_mu_);
      if (env_->state_ == kArmed) {
        env_->state_ = kHolding;
        env_->hold_cv_.notify_all();
        env_->hold_cv_.wait(lock, [&] { return env_->state_ != kHolding; });
      }
      return st;
    }
    HoldSyncEnv* env_;
    std::unique_ptr<WritableFile> target_;
  };

  void Set(State state) {
    std::lock_guard<std::mutex> lock(hold_mu_);
    state_ = state;
    hold_cv_.notify_all();
  }

  std::mutex hold_mu_;
  std::condition_variable hold_cv_;
  State state_ = kIdle;
};

// Inserts row `id` in its own transaction. A failed commit aborts the
// transaction itself, so only a failed insert needs an Abort here.
Status CommitRow(LedgerDatabase* db, int64_t id) {
  auto txn = db->Begin("member");
  if (!txn.ok()) return txn.status();
  Status st = db->Insert(*txn, "t", {VB(id), VS("x")});
  if (!st.ok()) {
    db->Abort(*txn);
    return st;
  }
  return db->Commit(*txn);
}

// Runs `fn` on its own thread and returns its result if it finishes within
// a few seconds. A call still blocked then is a hang (a leaked transaction
// keeps a quiesce waiting forever); the blocked thread can never be joined,
// so the failure is printed and the process exits rather than hang ctest.
template <typename Fn>
auto WithinDeadline(Fn fn) -> decltype(fn()) {
  constexpr std::chrono::seconds kDeadline{10};
  auto result = std::async(std::launch::async, std::move(fn));
  if (result.wait_for(kDeadline) != std::future_status::ready) {
    ADD_FAILURE() << "still blocked after " << kDeadline.count() << " s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  return result.get();
}

class GroupCommitTest : public TempDirTest {
 protected:
  LedgerDatabaseOptions MakeOptions(const std::string& subdir, Env* env) {
    LedgerDatabaseOptions options;
    options.data_dir = Path(subdir);
    options.database_id = "groupdb";
    options.block_size = 5;  // small blocks so groups span block boundaries
    options.sync_wal = true;
    options.env = env;
    options.clock = [this] { return ++clock_; };
    return options;
  }

  // Commits row 0 as a leader whose WAL sync `env` holds, and rows
  // 1..followers from threads that queue up behind it. Once they have, the
  // sync is released and the next leader drains them as one group. Returns
  // each commit's status, leader first.
  std::vector<Status> CommitBehindHeldLeader(LedgerDatabase* db,
                                             HoldSyncEnv* env, int followers) {
    std::vector<Status> results(followers + 1);
    env->Hold();
    std::vector<std::thread> threads;
    threads.emplace_back([&] { results[0] = CommitRow(db, 0); });
    env->WaitUntilHeld();
    const int64_t stamped = clock_.load();
    for (int i = 1; i <= followers; i++)
      threads.emplace_back([&, i] { results[i] = CommitRow(db, i); });
    // A committer reads the commit clock just before it joins the queue;
    // the sleep covers the few instructions between the two.
    while (clock_.load() < stamped + followers) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    env->Release();
    for (auto& th : threads) th.join();
    return results;
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
  auto db = LedgerDatabase::Open(MakeOptions("db", nullptr));
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

  // Close the open block.
  ASSERT_TRUE((*db)->GenerateDigest().ok());

  std::vector<TransactionEntry> entries =
      (*db)->database_ledger()->Snapshot().entries;
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
      auto db = LedgerDatabase::Open(MakeOptions(subdir, &env));
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
            if (!st.ok()) {
              (*db)->Abort(*txn);
            } else if ((*db)->Commit(*txn).ok()) {  // a failure aborts
              std::lock_guard<std::mutex> guard(ok_mu);
              ok_ids.push_back(id);
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
    ExpectDenseOrdinals((*db)->database_ledger()->Snapshot().entries,
                        (*db)->options().block_size);
  }
  EXPECT_TRUE(completed_without_crash)
      << "workload never ran crash-free; raise the crash_point cap";
}

// ---- (c) failed group sync fails every member + sticky latch ----

TEST_F(GroupCommitTest, FailedGroupSyncFailsEveryMemberAndLatches) {
  constexpr int kFollowers = 3;
  HoldSyncEnv env;
  auto db = LedgerDatabase::Open(MakeOptions("db", &env));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kAppendOnly).ok());
  uint64_t committed_before = CounterValue(db->get(), "commit.txns_total");

  // The held leader's fsync is the first and succeeds; the followers'
  // group issues the second, which fails. Every member of that group must
  // come back non-OK, as must any follower that hit the sticky error.
  env.FailNthSync(2);
  std::vector<Status> results =
      CommitBehindHeldLeader(db->get(), &env, kFollowers);
  EXPECT_TRUE(results[0].ok()) << results[0].ToString();
  for (int i = 1; i <= kFollowers; i++) EXPECT_FALSE(results[i].ok()) << i;
  EXPECT_EQ(CounterValue(db->get(), "commit.txns_total"), committed_before + 1);
  EXPECT_GE((*db)->MetricsSnapshot().histograms["commit.group_size"].max, 2u);

  // Sticky: the env is healthy again but the WAL stays poisoned. The
  // failed commit aborts its transaction, so the checkpoint below can
  // quiesce.
  {
    auto txn = (*db)->Begin("poisoned");
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*db)->Insert(*txn, "t", {VB(100), VS("after-poison")}).ok());
    EXPECT_FALSE((*db)->Commit(*txn).ok());
  }

  // A checkpoint rotates the WAL, clearing the poison. The failed groups
  // appended nothing, so the next group reads the same slots and ordinals
  // stay dense.
  ASSERT_TRUE(WithinDeadline([&] { return (*db)->Checkpoint(); }).ok());
  EXPECT_TRUE(InsertOne(db->get(), "t", 101, "after-reset").ok());
  ASSERT_TRUE((*db)->GenerateDigest().ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ExpectDenseOrdinals((*db)->database_ledger()->Snapshot().entries,
                      (*db)->options().block_size);
}

// ---- a failed commit ends its transaction ----

TEST_F(GroupCommitTest, FailedAutocommitDoesNotBlockCheckpoint) {
  // An autocommitted SQL statement whose commit fails has no caller left
  // to abort it: Commit must, or the checkpoint that clears the sticky WAL
  // error would wait for it forever, and so would every later Begin.
  FaultInjectionEnv env;
  auto db = LedgerDatabase::Open(MakeOptions("db", &env));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  SqlSession session(db->get(), "sql");
  ASSERT_TRUE(session
                  .Execute("CREATE TABLE accounts (id BIGINT NOT NULL, "
                           "balance BIGINT NOT NULL, PRIMARY KEY (id)) "
                           "WITH (LEDGER = ON)")
                  .ok());
  ASSERT_TRUE(session.Execute("INSERT INTO accounts VALUES (1, 10)").ok());

  env.FailNthSync(1);
  auto failed = session.Execute("INSERT INTO accounts VALUES (2, 20)");
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();
  EXPECT_FALSE(session.in_transaction());

  Status checkpoint = WithinDeadline([&] { return (*db)->Checkpoint(); });
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
  ASSERT_TRUE(session.Execute("INSERT INTO accounts VALUES (3, 30)").ok());
  auto rows = session.Execute("SELECT * FROM accounts");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 2u);  // rows 1 and 3; row 2 was undone

  auto digest = (*db)->GenerateDigest();
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  auto report = VerifyLedger(db->get(), {*digest});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(GroupCommitTest, FailedCommitReleasesLocksAndCountsAbort) {
  FaultInjectionEnv env;
  auto db = LedgerDatabase::Open(MakeOptions("db", &env));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  ASSERT_TRUE(InsertOne(db->get(), "t", 1, "before").ok());
  const uint64_t aborts_before = CounterValue(db->get(), "commit.aborts_total");

  env.FailNthSync(1);
  auto txn = (*db)->Begin("failing");
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*db)->Update(*txn, "t", {VB(1), VS("lost")}).ok());
  EXPECT_FALSE((*db)->Commit(*txn).ok());
  EXPECT_EQ(CounterValue(db->get(), "commit.aborts_total"), aborts_before + 1);

  // The failed transaction's row lock is gone: another transaction takes it
  // with no wait and sees the row as it was before the failed update.
  const uint64_t waits_before =
      (*db)->MetricsSnapshot().histograms["lock.wait_micros"].count;
  auto other = (*db)->Begin("other");
  ASSERT_TRUE(other.ok());
  auto row = (*db)->Get(*other, "t", {VB(1)});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ((*row)[1].string_value(), "before");
  EXPECT_TRUE((*db)->Update(*other, "t", {VB(1), VS("after")}).ok());
  EXPECT_EQ((*db)->MetricsSnapshot().histograms["lock.wait_micros"].count,
            waits_before);
  (*db)->Abort(*other);  // the WAL is still poisoned; commit after the reset

  ASSERT_TRUE(WithinDeadline([&] { return (*db)->Checkpoint(); }).ok());
  EXPECT_TRUE(InsertOne(db->get(), "t", 2, "after-reset").ok());
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
  HoldSyncEnv env;
  auto db = LedgerDatabase::Open(MakeOptions("db", &env));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kAppendOnly).ok());

  MetricsSnapshot before = (*db)->MetricsSnapshot();
  for (const Status& st : CommitBehindHeldLeader(db->get(), &env, 2))
    EXPECT_TRUE(st.ok()) << st.ToString();

  MetricsSnapshot after = (*db)->MetricsSnapshot();
  // The held leader's group of one, then the pair as one group.
  EXPECT_EQ(after.counters["commit.group_txns_total"] -
                before.counters["commit.group_txns_total"],
            3u);
  EXPECT_EQ(after.counters["commit.groups_total"] -
                before.counters["commit.groups_total"],
            2u);
  EXPECT_EQ(after.histograms["commit.group_size"].max, 2u);
  // One batched fsync for the pair — the whole point of group commit.
  EXPECT_EQ(after.counters["wal.syncs_total"] -
                before.counters["wal.syncs_total"],
            2u);
}

}  // namespace
}  // namespace sqlledger

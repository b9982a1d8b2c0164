// Concurrency stress: many writers, concurrent verifiers and periodic
// digest generation against one ledger database, with a full verification
// at quiesce. The tier1 variant is sized to finish in a few seconds; the
// `long`-labeled nightly variant multiplies the workload via
// SQLLEDGER_STRESS_SCALE (also settable by hand to reproduce TSan runs).
//
// This doubles as the regression suite for the races fixed while annotating
// the tree for -Wthread-safety: InMemoryDigestStore's unsynchronized map,
// ThreadPool shutdown with queued work, and unlatched DatabaseLedger
// accessors racing block closes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "ledger/digest_pipeline.h"
#include "ledger/digest_store.h"
#include "ledger/verifier.h"
#include "test_util.h"
#include "util/random.h"
#include "util/threadpool.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

/// Workload multiplier: 1 for the tier1 run; the nightly job sets
/// SQLLEDGER_STRESS_SCALE to run the same scenario an order of magnitude
/// longer (and under TSan).
int StressScale() {
  const char* env = std::getenv("SQLLEDGER_STRESS_SCALE");
  if (env != nullptr && *env != '\0') {
    int scale = std::atoi(env);
    if (scale > 0) return scale;
  }
  return 1;
}

struct StressConfig {
  int writers = 4;
  int verifiers = 2;
  int txns_per_writer = 60;
  int verify_rounds = 3;
};

/// Shared scenario: `writers` threads hammer their own table plus one
/// shared (contended) table, a digest thread uploads on a tight loop, and
/// `verifiers` threads run full verification mid-flight. Every mid-flight
/// report and the final at-quiesce report must be clean.
void RunMixedWorkload(const StressConfig& cfg) {
  LedgerDatabaseOptions options;
  options.enable_ledger = true;
  options.block_size = 8;  // small blocks => many closes under load
  options.database_id = "stressdb";
  options.lock_timeout = std::chrono::milliseconds(2000);
  auto opened = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LedgerDatabase> db = std::move(*opened);

  for (int w = 0; w < cfg.writers; w++) {
    ASSERT_TRUE(db->CreateTable("t" + std::to_string(w), SimpleUserSchema(),
                                TableKind::kUpdateable)
                    .ok());
  }
  ASSERT_TRUE(
      db->CreateTable("shared", SimpleUserSchema(), TableKind::kUpdateable)
          .ok());

  InMemoryDigestStore store;
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::atomic<int> verify_failures{0};
  std::mutex failure_mu;
  std::vector<std::string> failure_messages;
  auto record_failure = [&](const std::string& msg) {
    verify_failures++;
    std::lock_guard<std::mutex> lock(failure_mu);
    failure_messages.push_back(msg);
  };
  std::vector<std::thread> threads;

  // Writers: insert into the private table every round; every third round
  // also touch the shared table (update-or-insert) so lock conflicts and
  // aborts actually happen.
  for (int w = 0; w < cfg.writers; w++) {
    threads.emplace_back([&, w] {
      Random rng(TestCaseSeed(static_cast<uint64_t>(w)));
      std::string table = "t" + std::to_string(w);
      for (int i = 0; i < cfg.txns_per_writer; i++) {
        auto txn = db->Begin("writer" + std::to_string(w));
        if (!txn.ok()) continue;
        Status st = db->Insert(*txn, table, {VB(i), VS("v")});
        if (st.ok() && i % 3 == 0) {
          int64_t key = static_cast<int64_t>(rng.UniformRange(0, 4));
          Status up = db->Update(*txn, "shared", {VB(key), VS("touched")});
          if (up.IsNotFound())
            up = db->Insert(*txn, "shared", {VB(key), VS("touched")});
          st = up;
        }
        if (st.ok() && db->Commit(*txn).ok()) {
          committed++;
        } else {
          db->Abort(*txn);
        }
      }
    });
  }

  // Digest generator: uploads as fast as the commit lock allows. The fork
  // check inside GenerateAndUploadDigest asserts chain consistency on every
  // upload, so this thread is itself a verifier of sorts.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto digest = GenerateAndUploadDigest(db.get(), &store);
      // Any failure here is a chain fork or storage error — both fatal.
      if (!digest.ok()) {
        record_failure("digest: " + digest.status().ToString());
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Verifiers: full verification (which quiesces internally) while the
  // writers keep going. Reports must be clean every time.
  for (int v = 0; v < cfg.verifiers; v++) {
    threads.emplace_back([&, v] {
      for (int round = 0; round < cfg.verify_rounds; round++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10 + 5 * v));
        VerificationOptions vopts;
        vopts.parallelism = 2;
        auto digests = store.ListAll();
        if (!digests.ok()) {
          record_failure("ListAll: " + digests.status().ToString());
          return;
        }
        auto report = VerifyLedger(db.get(), *digests, vopts);
        if (!report.ok()) {
          record_failure("VerifyLedger: " + report.status().ToString());
        } else if (!report->ok()) {
          std::string msg = "violations:";
          for (size_t k = 0; k < report->violations.size() && k < 3; k++)
            msg += " [inv" + std::to_string(report->violations[k].invariant) +
                   "] " + report->violations[k].message;
          record_failure(msg);
        }
      }
    });
  }

  // Writers finish on their own; then stop the digest thread and join the
  // rest (verifiers exit after their fixed number of rounds).
  for (int w = 0; w < cfg.writers; w++) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = static_cast<size_t>(cfg.writers); i < threads.size(); i++)
    threads[i].join();

  {
    std::lock_guard<std::mutex> lock(failure_mu);
    for (const std::string& msg : failure_messages)
      ADD_FAILURE() << msg;
  }
  EXPECT_EQ(verify_failures.load(), 0);
  EXPECT_GT(committed.load(), 0);

  // Quiesced end state: one more digest, then a full verification against
  // everything the store accumulated during the run.
  auto final_digest = GenerateAndUploadDigest(db.get(), &store);
  ASSERT_TRUE(final_digest.ok()) << final_digest.status().ToString();
  VerificationOptions vopts;
  vopts.parallelism = 4;
  auto report = VerifyLedgerAgainstStore(db.get(), store, vopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_TRUE(report->has_digest_coverage);

  // Each writer's committed private-table inserts must all be present.
  auto txn = db->Begin("audit");
  ASSERT_TRUE(txn.ok());
  uint64_t rows = 0;
  for (int w = 0; w < cfg.writers; w++) {
    auto scan = db->Scan(*txn, "t" + std::to_string(w));
    ASSERT_TRUE(scan.ok());
    rows += scan->size();
  }
  ASSERT_TRUE(db->Commit(*txn).ok());
  EXPECT_GT(rows, 0u);
}

TEST(ConcurrencyStressTest, MixedWorkloadTier1) {
  StressConfig cfg;
  RunMixedWorkload(cfg);
}

// The nightly/TSan variant: same scenario, scaled. With the default
// SQLLEDGER_STRESS_SCALE=1 this is only ~2x the tier1 shape, so a local
// plain `ctest` stays quick; the nightly job exports a larger scale.
TEST(ConcurrencyStressLongTest, MixedWorkloadScaled) {
  int scale = StressScale();
  StressConfig cfg;
  cfg.writers = 4 + 2 * (scale > 1 ? 2 : 0);
  cfg.verifiers = 2 + (scale > 1 ? 2 : 0);
  cfg.txns_per_writer = 120 * scale;
  cfg.verify_rounds = 3 + scale;
  RunMixedWorkload(cfg);
}

// Regression: InMemoryDigestStore was unsynchronized; concurrent Upload /
// ListAll / Latest raced on the underlying map.
TEST(ConcurrencyStressTest, DigestStoreConcurrentUploadAndList) {
  InMemoryDigestStore store;
  constexpr int kUploaders = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> upload_failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kUploaders; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        DatabaseDigest d;
        d.database_id = "db";
        d.database_create_time = "2026-01-01T00:00:00Z";
        // Distinct block per (thread, i) so every upload is a fresh entry.
        d.block_id = static_cast<uint64_t>(t * kPerThread + i);
        d.generated_at_micros = static_cast<int64_t>(d.block_id);
        if (!store.Upload(d).ok()) upload_failures++;
      }
    });
  }
  // Readers hammer ListAll/Latest concurrently with the uploads.
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto all = store.ListAll();
        if (all.ok() && !all->empty()) {
          auto latest = store.Latest(all->front().database_create_time);
          if (latest.ok()) {
            // Latest must be the max block among what ListAll saw (more may
            // have arrived since; never fewer).
            EXPECT_GE(latest->block_id, all->back().block_id);
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  for (int t = 0; t < kUploaders; t++) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kUploaders; i < threads.size(); i++) threads[i].join();

  EXPECT_EQ(upload_failures.load(), 0);
  auto all = store.ListAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(kUploaders * kPerThread));
}

// Regression: ThreadPool destruction with queued-but-unstarted work, and
// several ParallelFor phases sharing one pool from different threads.
TEST(ConcurrencyStressTest, ThreadPoolShutdownDrainsQueue) {
  std::atomic<int> executed{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; i++) pool.Submit([&] { executed++; });
    // Destructor runs immediately: it must drain the queue, not drop it.
  }
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ConcurrencyStressTest, ParallelForConcurrentPhases) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr size_t kN = 10000;
  std::vector<std::thread> callers;
  std::vector<std::atomic<uint64_t>> sums(kCallers);
  for (auto& s : sums) s = 0;
  for (int c = 0; c < kCallers; c++) {
    callers.emplace_back([&, c] {
      ParallelFor(&pool, kN, [&](size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t i = begin; i < end; i++) local += i;
        sums[static_cast<size_t>(c)] += local;
      });
    });
  }
  for (auto& t : callers) t.join();
  const uint64_t want = kN * (kN - 1) / 2;
  for (int c = 0; c < kCallers; c++)
    EXPECT_EQ(sums[static_cast<size_t>(c)].load(), want) << "caller " << c;
}

// Start/stop churn of the digest pipeline's cadence thread: Stop must be
// safe right after Start and idempotent, and the thread must never latch an
// error on a healthy store. Keeps TSan watching the thread's lifecycle.
TEST(ConcurrencyStressTest, DigestProtectionStartStopChurn) {
  LedgerDatabaseOptions options;
  options.enable_ledger = true;
  options.block_size = 4;
  options.database_id = "churn";
  auto opened = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<LedgerDatabase> db = std::move(*opened);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kAppendOnly).ok());
  const std::filesystem::path outbox =
      std::filesystem::temp_directory_path() /
      ("sqlledger_churn_outbox_" + std::to_string(::getpid()));
  std::filesystem::remove_all(outbox);
  InMemoryDigestStore store;
  DigestPipelineOptions popts;
  popts.outbox_dir = outbox.string();
  for (int round = 0; round < 5; round++) {
    ASSERT_TRUE(db->StartDigestProtection(&store, popts,
                                          std::chrono::milliseconds(1))
                    .ok());
    auto txn = db->Begin("w");
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Insert(*txn, "t", {VB(round), VS("x")}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    DigestProtectionStatus status = db->GetDigestProtectionStatus();
    EXPECT_TRUE(status.fatal.ok()) << status.ToString();
    db->StopDigestProtection();
    db->StopDigestProtection();  // idempotent
  }
  std::filesystem::remove_all(outbox);
}

}  // namespace
}  // namespace sqlledger

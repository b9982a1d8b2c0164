// Geo-replication digest gating tests (paper §3.6): GenerateDigest, the one
// digest issuer, with LedgerDatabaseOptions::geo_replica set. Lag is driven
// by moving the replica's high-water mark against commit timestamps; the
// thresholds are the fixed 1 s (defer) and 0.5 s (alert).

#include <gtest/gtest.h>

#include <atomic>

#include "ledger/geo_replication.h"
#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

// Far above the 1 s gate, so a replica that never advanced lags every
// commit by more than it.
constexpr int64_t kClockStart = 100 * 1000 * 1000;

class GeoReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenGated();
    ASSERT_TRUE(
        db_->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
            .ok());
  }

  /// An ephemeral database gated on replica_, on a clock that ticks 1µs
  /// per reading.
  std::unique_ptr<LedgerDatabase> OpenGated() {
    LedgerDatabaseOptions options;
    options.block_size = 100;
    options.database_id = "geodb";
    options.clock = [this] { return ++now_; };
    options.geo_replica = &replica_;
    auto db = LedgerDatabase::Open(std::move(options));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  /// Commits one insert and returns its commit timestamp (the clock value
  /// assigned at commit, read back from the ledger entry).
  int64_t CommitOne(int64_t id) {
    uint64_t txn_id = 0;
    Status st = InsertOne(db_.get(), "t", id, "x", &txn_id);
    EXPECT_TRUE(st.ok());
    auto entry = db_->database_ledger()->FindEntry(txn_id);
    EXPECT_TRUE(entry.ok());
    return entry->commit_ts_micros;
  }

  int64_t ReplicaLag() const {
    return db_->MetricsSnapshot().gauges.at("digest.replica_lag_micros");
  }

  std::atomic<int64_t> now_{kClockStart};
  SimulatedGeoReplica replica_;
  std::unique_ptr<LedgerDatabase> db_;
};

TEST_F(GeoReplicationTest, CaughtUpReplicaAllowsDigest) {
  replica_.AdvanceTo(CommitOne(1));
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  EXPECT_EQ(ReplicaLag(), 0);
  EXPECT_EQ(CounterValue(db_.get(), "digest.geo_alerts_total"), 0u);
  EXPECT_EQ(CounterValue(db_.get(), "digest.geo_deferrals_total"), 0u);
}

TEST_F(GeoReplicationTest, LaggingReplicaDefersDigest) {
  const int64_t ts = CommitOne(1);
  replica_.AdvanceTo(ts - 1000 * 1000 - 1);  // 1 s + 1µs behind
  auto digest = db_->GenerateDigest();
  EXPECT_EQ(digest.status().code(), StatusCode::kBusy);
  EXPECT_EQ(ReplicaLag(), 1000 * 1000 + 1);
  EXPECT_EQ(CounterValue(db_.get(), "digest.geo_deferrals_total"), 1u);

  // Once the replica catches up, the digest is issued.
  replica_.AdvanceTo(CommitOne(2));
  digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  EXPECT_EQ(CounterValue(db_.get(), "digest.geo_deferrals_total"), 1u);
}

TEST_F(GeoReplicationTest, ClosedAndVerifiedBlockStillGated) {
  // Fill block 0 exactly so it closes on its own, then verify: no commit
  // is pending any more, yet none of them is replicated, so the digest
  // must still be deferred.
  int64_t id = 0;
  while (db_->database_ledger()->open_block_id() == 0) CommitOne(id++);
  ASSERT_EQ(db_->database_ledger()->open_block_entry_count(), 0u);
  ASSERT_TRUE(VerifyLedger(db_.get(), {}).ok());
  EXPECT_EQ(db_->GenerateDigest().status().code(), StatusCode::kBusy);
}

TEST_F(GeoReplicationTest, ModerateLagIssuesDigestWithAlert) {
  const int64_t ts = CommitOne(1);
  replica_.AdvanceTo(ts - 700 * 1000);  // 0.7 s behind
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  EXPECT_EQ(ReplicaLag(), 700 * 1000);
  EXPECT_EQ(CounterValue(db_.get(), "digest.geo_alerts_total"), 1u);

  // At exactly the alert threshold the digest carries no alert.
  replica_.AdvanceTo(CommitOne(2) - 500 * 1000);
  ASSERT_TRUE(db_->GenerateDigest().ok());
  EXPECT_EQ(CounterValue(db_.get(), "digest.geo_alerts_total"), 1u);
}

TEST_F(GeoReplicationTest, PristineDatabaseWaitsOnlyForItsBootstrap) {
  // A fresh database's only commit is its bootstrap's (the sys_ledger_*
  // metadata). The digest covers it too, so it waits for the replica to
  // apply that commit, and for nothing more.
  db_.reset();
  db_ = OpenGated();
  const int64_t bootstrap = db_->database_ledger()->last_commit_ts();
  ASSERT_GT(bootstrap, 0);
  EXPECT_EQ(db_->GenerateDigest().status().code(), StatusCode::kBusy);
  replica_.AdvanceTo(bootstrap);
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  EXPECT_EQ(ReplicaLag(), 0);
}

TEST_F(GeoReplicationTest, GatedDigestVerifies) {
  CommitOne(1);
  replica_.AdvanceTo(db_->NowMicros());
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  auto report = VerifyLedger(db_.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(GeoReplicationTest, ReplicaHighWaterMarkIsMonotonic) {
  replica_.AdvanceTo(100);
  replica_.AdvanceTo(50);  // going backwards is ignored
  EXPECT_EQ(replica_.replicated_through(), 100);
  replica_.AdvanceTo(200);
  EXPECT_EQ(replica_.replicated_through(), 200);
}

TEST_F(GeoReplicationTest, UngatedDatabaseRegistersNoGeoMetrics) {
  // A database without a replica exports exactly the metrics it did before
  // the gate existed.
  auto plain = OpenTestDb();
  ASSERT_TRUE(plain->GenerateDigest().ok());
  MetricsSnapshot snapshot = plain->MetricsSnapshot();
  EXPECT_EQ(snapshot.gauges.count("digest.replica_lag_micros"), 0u);
  EXPECT_EQ(snapshot.counters.count("digest.geo_alerts_total"), 0u);
  EXPECT_EQ(snapshot.counters.count("digest.geo_deferrals_total"), 0u);
  EXPECT_EQ(db_->MetricsSnapshot().gauges.count("digest.replica_lag_micros"),
            1u);
}

}  // namespace
}  // namespace sqlledger

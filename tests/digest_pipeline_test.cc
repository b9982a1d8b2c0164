// DigestUploadPipeline + DigestOutbox (DESIGN.md §9): the digest cadence
// must survive an unreliable network path to the trusted store. Covers the
// durable outbox (append/ack/replay/capacity/torn tail), retry + breaker
// behaviour, idempotent recovery from ambiguous acks, fatal fork latching,
// crash-mid-outage replay, and the seeded torture run from the issue's
// acceptance criteria.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "ledger/digest_pipeline.h"
#include "ledger/digest_store.h"
#include "ledger/faulty_digest_store.h"
#include "storage/digest_outbox.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

// Zero backoff / jitter / probe interval: under the test fake clock (1µs
// per reading) every Pump() makes an attempt, so tests count attempts
// deterministically instead of sleeping.
DigestPipelineOptions FastOptions(const std::string& outbox_dir,
                                  Env* env = nullptr) {
  DigestPipelineOptions o;
  o.outbox_dir = outbox_dir;
  o.env = env;
  o.initial_backoff_micros = 0;
  o.max_backoff_micros = 0;
  o.jitter = 0;
  o.probe_interval_micros = 0;
  o.seed = TestSeed();
  return o;
}

// ---- DigestOutbox ----

class DigestOutboxTest : public TempDirTest {};

TEST_F(DigestOutboxTest, AppendAckReplayPreservesOrder) {
  DigestOutboxOptions opts;
  opts.dir = Path("outbox");
  {
    auto box = DigestOutbox::Open(opts);
    ASSERT_TRUE(box.ok()) << box.status().ToString();
    ASSERT_TRUE((*box)->Append("alpha").ok());
    ASSERT_TRUE((*box)->Append("beta").ok());
    ASSERT_TRUE((*box)->Append("gamma").ok());
    ASSERT_TRUE((*box)->Ack(1).ok());
    EXPECT_EQ((*box)->pending_count(), 2u);
  }
  // A new process replays only the unacknowledged tail, in append order.
  auto box = DigestOutbox::Open(opts);
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  std::vector<std::string> pending = (*box)->Pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], "beta");
  EXPECT_EQ(pending[1], "gamma");
}

TEST_F(DigestOutboxTest, FullyAckedOutboxCompactsAndReopensEmpty) {
  DigestOutboxOptions opts;
  opts.dir = Path("outbox");
  {
    auto box = DigestOutbox::Open(opts);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE((*box)->Append("a").ok());
    ASSERT_TRUE((*box)->Append("b").ok());
    ASSERT_TRUE((*box)->Ack(2).ok());
    EXPECT_EQ((*box)->pending_count(), 0u);
  }
  auto box = DigestOutbox::Open(opts);
  ASSERT_TRUE(box.ok());
  EXPECT_EQ((*box)->pending_count(), 0u);
}

TEST_F(DigestOutboxTest, CapacityBoundRejectsWithBusy) {
  DigestOutboxOptions opts;
  opts.dir = Path("outbox");
  opts.capacity = 2;
  auto box = DigestOutbox::Open(opts);
  ASSERT_TRUE(box.ok());
  ASSERT_TRUE((*box)->Append("a").ok());
  ASSERT_TRUE((*box)->Append("b").ok());
  EXPECT_EQ((*box)->Append("c").code(), StatusCode::kBusy);
  EXPECT_EQ((*box)->rejected(), 1u);
  // Acking frees a slot.
  ASSERT_TRUE((*box)->Ack(1).ok());
  EXPECT_TRUE((*box)->Append("c").ok());
}

TEST_F(DigestOutboxTest, TornFinalRecordIsDroppedOnReplay) {
  DigestOutboxOptions opts;
  opts.dir = Path("outbox");
  {
    auto box = DigestOutbox::Open(opts);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE((*box)->Append("first").ok());
    ASSERT_TRUE((*box)->Append("second-payload").ok());
  }
  // A crash mid-append leaves a torn tail: chop bytes off the last record.
  std::filesystem::path log = std::filesystem::path(Path("outbox")) /
                              "outbox.log";
  uint64_t size = std::filesystem::file_size(log);
  std::filesystem::resize_file(log, size - 4);
  auto box = DigestOutbox::Open(opts);
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  std::vector<std::string> pending = (*box)->Pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], "first");
}

// Regression test found by the simulator (sim seed 614480483733483466): a
// torn tail must be truncated OFF THE FILE at replay, not just skipped,
// because the next append goes to the end of the file — garbage left in
// place would sit between intact records and that append and read as
// mid-log corruption on the replay after the NEXT crash.
TEST_F(DigestOutboxTest, AppendAfterTornTailSurvivesSecondReplay) {
  DigestOutboxOptions opts;
  opts.dir = Path("outbox");
  {
    auto box = DigestOutbox::Open(opts);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE((*box)->Append("first").ok());
    ASSERT_TRUE((*box)->Append("second-payload").ok());
  }
  std::filesystem::path log = std::filesystem::path(Path("outbox")) /
                              "outbox.log";
  uint64_t size = std::filesystem::file_size(log);
  std::filesystem::resize_file(log, size - 4);  // crash tore the last record
  {
    auto box = DigestOutbox::Open(opts);
    ASSERT_TRUE(box.ok()) << box.status().ToString();
    ASSERT_EQ((*box)->Pending().size(), 1u);
    ASSERT_TRUE((*box)->Append("third").ok());  // lands after the torn spot
  }
  auto box = DigestOutbox::Open(opts);
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  std::vector<std::string> pending = (*box)->Pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], "first");
  EXPECT_EQ(pending[1], "third");
}

// ---- Pipeline fixture ----

class DigestPipelineTest : public TempDirTest {
 protected:
  std::unique_ptr<LedgerDatabase> db_;
  InMemoryDigestStore remote_;

  void SetUp() override {
    TempDirTest::SetUp();
    db_ = OpenTestDb();
    ASSERT_TRUE(
        db_->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
            .ok());
  }

  // Inserts `rows` rows so the open block is non-empty and the next digest
  // covers a fresh block.
  void Fill(int rows) {
    for (int i = 0; i < rows; i++)
      ASSERT_TRUE(InsertOne(db_.get(), "t", next_id_++, "x").ok());
  }

 private:
  int64_t next_id_ = 1;
};

TEST_F(DigestPipelineTest, HealthyPathUploadsAndReportsProtected) {
  auto pipeline =
      DigestUploadPipeline::Open(db_.get(), &remote_, FastOptions(Path("ob")));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  DigestUploadPipeline* p = pipeline->get();

  Fill(3);
  ASSERT_TRUE(p->GenerateAndSubmit().ok());
  EXPECT_EQ(p->status().outbox_pending, 1u);
  EXPECT_EQ(p->Pump(), 1u);

  DigestProtectionStatus s = p->status();
  EXPECT_TRUE(s.fully_protected()) << s.ToString();
  EXPECT_EQ(s.blocks_behind, 0u);
  EXPECT_EQ(CounterValue(db_.get(), "digest.uploads_total"), 1u);
  EXPECT_EQ(s.outbox_pending, 0u);
  EXPECT_GE(s.seconds_since_last_durable, 0.0);
  EXPECT_EQ(remote_.ListAll()->size(), 1u);

  auto report = VerifyLedgerAgainstStore(db_.get(), remote_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(DigestPipelineTest, OutageQueuesThenCatchesUpToZeroStaleness) {
  FaultyDigestStore flaky(&remote_, TestSeed());
  auto pipeline =
      DigestUploadPipeline::Open(db_.get(), &flaky, FastOptions(Path("ob")));
  ASSERT_TRUE(pipeline.ok());
  DigestUploadPipeline* p = pipeline->get();

  flaky.SetOutage(true);
  for (int i = 0; i < 3; i++) {
    Fill(2);
    ASSERT_TRUE(p->GenerateAndSubmit().ok());
    (void)p->Pump();  // attempts fail; digests stay durably queued
  }
  DigestProtectionStatus during = p->status();
  EXPECT_EQ(during.outbox_pending, 3u);
  EXPECT_GT(during.blocks_behind, 0u);
  EXPECT_FALSE(during.fully_protected());
  EXPECT_GT(CounterValue(db_.get(), "digest.transient_errors_total"), 0u);
  EXPECT_EQ(remote_.ListAll()->size(), 0u);

  flaky.SetOutage(false);
  ASSERT_TRUE(p->DrainFully().ok());
  DigestProtectionStatus after = p->status();
  EXPECT_TRUE(after.fully_protected()) << after.ToString();
  EXPECT_EQ(after.outbox_pending, 0u);
  // Catch-up preserved submission order.
  auto stored = remote_.ListAll();
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->size(), 3u);
  for (size_t i = 1; i < stored->size(); i++)
    EXPECT_GT((*stored)[i].block_id, (*stored)[i - 1].block_id);
}

TEST_F(DigestPipelineTest, BreakerDegradesOpensAndRecoversViaProbe) {
  FaultyDigestStore flaky(&remote_, TestSeed());
  DigestPipelineOptions opts = FastOptions(Path("ob"));
  opts.degraded_after_failures = 1;
  opts.open_after_failures = 3;
  auto pipeline = DigestUploadPipeline::Open(db_.get(), &flaky, opts);
  ASSERT_TRUE(pipeline.ok());
  DigestUploadPipeline* p = pipeline->get();

  Fill(2);
  flaky.SetOutage(true);
  ASSERT_TRUE(p->GenerateAndSubmit().ok());

  EXPECT_EQ(p->Pump(), 0u);
  EXPECT_EQ(p->status().breaker, DigestBreakerState::kDegraded);
  EXPECT_EQ(p->Pump(), 0u);
  EXPECT_EQ(p->status().breaker, DigestBreakerState::kDegraded);
  EXPECT_EQ(p->Pump(), 0u);
  EXPECT_EQ(p->status().breaker, DigestBreakerState::kOpen);
  EXPECT_EQ(p->status().consecutive_failures, 3);

  // With the breaker open a probe is still allowed (probe interval 0); the
  // first one that lands closes the circuit.
  flaky.SetOutage(false);
  EXPECT_EQ(p->Pump(), 1u);
  DigestProtectionStatus s = p->status();
  EXPECT_EQ(s.breaker, DigestBreakerState::kHealthy);
  EXPECT_EQ(s.consecutive_failures, 0);
  EXPECT_GT(CounterValue(db_.get(), "digest.retries_total"), 0u);
  EXPECT_GT(CounterValue(db_.get(), "digest.recoveries_total"), 0u);
}

TEST_F(DigestPipelineTest, BackoffBlocksAttemptsUntilDeadline) {
  FaultyDigestStore flaky(&remote_, TestSeed());
  DigestPipelineOptions opts = FastOptions(Path("ob"));
  // The fake clock ticks 1µs per reading, so this deadline never arrives.
  opts.initial_backoff_micros = 1000L * 1000 * 1000 * 1000;
  opts.max_backoff_micros = opts.initial_backoff_micros;
  auto pipeline = DigestUploadPipeline::Open(db_.get(), &flaky, opts);
  ASSERT_TRUE(pipeline.ok());
  DigestUploadPipeline* p = pipeline->get();

  Fill(2);
  flaky.SetOutage(true);
  ASSERT_TRUE(p->GenerateAndSubmit().ok());
  EXPECT_EQ(p->Pump(), 0u);
  EXPECT_EQ(CounterValue(db_.get(), "digest.attempts_total"), 1u);
  flaky.SetOutage(false);
  EXPECT_EQ(p->Pump(), 0u);  // backoff gates the retry even though healthy
  EXPECT_EQ(CounterValue(db_.get(), "digest.attempts_total"), 1u);
  EXPECT_EQ(p->DrainFully().code(), StatusCode::kBusy);
}

TEST_F(DigestPipelineTest, OutboxFullRejectsSubmissionWithBusy) {
  FaultyDigestStore flaky(&remote_, TestSeed());
  DigestPipelineOptions opts = FastOptions(Path("ob"));
  opts.outbox_capacity = 2;
  auto pipeline = DigestUploadPipeline::Open(db_.get(), &flaky, opts);
  ASSERT_TRUE(pipeline.ok());
  DigestUploadPipeline* p = pipeline->get();

  flaky.SetOutage(true);
  Fill(2);
  ASSERT_TRUE(p->GenerateAndSubmit().ok());
  Fill(2);
  ASSERT_TRUE(p->GenerateAndSubmit().ok());
  Fill(2);
  EXPECT_EQ(p->GenerateAndSubmit().code(), StatusCode::kBusy);
  EXPECT_EQ(CounterValue(db_.get(), "digest.rejected_total"), 1u);

  // Recovery still drains the queued tail and the next digest covers the
  // whole chain, so protection returns to zero staleness.
  flaky.SetOutage(false);
  ASSERT_TRUE(p->DrainFully().ok());
  ASSERT_TRUE(p->GenerateAndSubmit().ok());
  ASSERT_TRUE(p->DrainFully().ok());
  EXPECT_TRUE(p->status().fully_protected()) << p->status().ToString();
}

TEST_F(DigestPipelineTest, AmbiguousAckRecoversIdempotently) {
  FaultyDigestStore flaky(&remote_, TestSeed());
  auto pipeline =
      DigestUploadPipeline::Open(db_.get(), &flaky, FastOptions(Path("ob")));
  ASSERT_TRUE(pipeline.ok());
  DigestUploadPipeline* p = pipeline->get();

  Fill(2);
  flaky.LoseAcks(1);
  ASSERT_TRUE(p->GenerateAndSubmit().ok());
  // First attempt: the store persisted the digest but the ack was lost, so
  // the pipeline must treat it as failed and keep it queued.
  EXPECT_EQ(p->Pump(), 0u);
  EXPECT_EQ(p->status().outbox_pending, 1u);
  EXPECT_EQ(remote_.ListAll()->size(), 1u);
  // The retry re-uploads byte-identical content; the idempotent store
  // answers OK without a second copy and the outbox acks.
  EXPECT_EQ(p->Pump(), 1u);
  DigestProtectionStatus s = p->status();
  EXPECT_TRUE(s.fully_protected()) << s.ToString();
  EXPECT_EQ(CounterValue(db_.get(), "digest.recoveries_total"), 1u);
  EXPECT_EQ(remote_.ListAll()->size(), 1u);
}

TEST_F(DigestPipelineTest, ForkAtStoreLatchesFatalAndStopsPipeline) {
  auto pipeline =
      DigestUploadPipeline::Open(db_.get(), &remote_, FastOptions(Path("ob")));
  ASSERT_TRUE(pipeline.ok());
  DigestUploadPipeline* p = pipeline->get();

  Fill(2);
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  // An attacker (or a forked replica) already published a digest for the
  // same block with different content.
  DatabaseDigest forged = *digest;
  forged.block_hash = Sha256::Digest(Slice("somebody else's history"));
  ASSERT_TRUE(remote_.Upload(forged).ok());

  ASSERT_TRUE(p->SubmitDigest(*digest).ok());
  EXPECT_EQ(p->Pump(), 0u);
  DigestProtectionStatus s = p->status();
  EXPECT_TRUE(s.fatal.IsIntegrityViolation()) << s.ToString();
  EXPECT_FALSE(s.fully_protected());
  // Latched: further submissions and pumps refuse to paper over the fork.
  Fill(2);
  EXPECT_TRUE(p->GenerateAndSubmit().IsIntegrityViolation());
  EXPECT_EQ(p->Pump(), 0u);
  EXPECT_EQ(p->DrainFully().code(), StatusCode::kIntegrityViolation);
}

TEST_F(DigestPipelineTest, CrashMidOutageReplaysOutboxInOrder) {
  FaultyDigestStore flaky(&remote_, TestSeed());
  FaultInjectionEnv fenv;
  std::vector<std::string> submitted;

  {
    auto pipeline = DigestUploadPipeline::Open(
        db_.get(), &flaky, FastOptions(Path("ob"), &fenv));
    ASSERT_TRUE(pipeline.ok());
    DigestUploadPipeline* p = pipeline->get();
    flaky.SetOutage(true);
    for (int i = 0; i < 4; i++) {
      Fill(2);
      auto d = db_->GenerateDigest();
      ASSERT_TRUE(d.ok());
      ASSERT_TRUE(p->SubmitDigest(*d).ok());
      submitted.push_back(d->ToJson());
      (void)p->Pump();
    }
    // Power loss while the store is still down. Every accepted submission
    // was fsynced by the outbox before SubmitDigest returned.
    fenv.SimulateCrash();
  }

  // Next process: clean env over the same directory sees exactly what
  // survived the crash — all four digests, in submission order.
  auto pipeline = DigestUploadPipeline::Open(db_.get(), &flaky,
                                             FastOptions(Path("ob")));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  DigestUploadPipeline* p = pipeline->get();
  EXPECT_EQ(p->outbox()->Pending(), submitted);

  flaky.SetOutage(false);
  ASSERT_TRUE(p->DrainFully().ok());
  auto stored = remote_.ListAll();
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->size(), submitted.size());
  for (size_t i = 0; i < stored->size(); i++)
    EXPECT_EQ((*stored)[i].ToJson(), submitted[i]);

  auto report = VerifyLedgerAgainstStore(db_.get(), remote_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_TRUE(p->status().fully_protected()) << p->status().ToString();
}

// The issue's acceptance scenario: seeded random outages + ambiguous acks +
// a crash mid-outage. Afterwards the outbox must have been replayed in
// order, VerifyLedgerAgainstStore must pass, and staleness must return to
// zero once the store is reachable again.
TEST_F(DigestPipelineTest, TortureSeededOutagesAmbiguousAcksAndCrash) {
  uint64_t seed = TestSeed();
  Random rng(seed ^ 0x70217u);
  FaultyDigestStore flaky(&remote_, seed ^ 0xFA017u);
  FaultyDigestStore::Probabilities probs;
  probs.ack_lost = 0.1;
  probs.duplicate = 0.1;
  probs.transient_error = 0.1;
  flaky.SetProbabilities(probs);

  DigestPipelineOptions opts = FastOptions(Path("ob"));
  opts.outbox_capacity = 16;

  auto fenv = std::make_unique<FaultInjectionEnv>(nullptr, seed);
  opts.env = fenv.get();
  auto pipeline = DigestUploadPipeline::Open(db_.get(), &flaky, opts);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  DigestUploadPipeline* p = pipeline->get();

  std::vector<std::string> accepted;  // every digest the outbox accepted
  bool outage = false;
  bool crashed_once = false;
  const int kRounds = 60;
  for (int round = 0; round < kRounds; round++) {
    // One crash mid-run, forced to land inside an outage window.
    if (!crashed_once && round == kRounds / 2) {
      if (!outage) {
        outage = true;
        flaky.SetOutage(true);
      }
      fenv->SimulateCrash();
      crashed_once = true;
      pipeline->reset();
      fenv = std::make_unique<FaultInjectionEnv>(nullptr, seed ^ 0xC4A54ull);
      opts.env = fenv.get();
      pipeline = DigestUploadPipeline::Open(db_.get(), &flaky, opts);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
      p = pipeline->get();
      // Crash-safety: the replayed queue is a contiguous tail of what was
      // accepted, in order (the ack cursor may conservatively rewind, so
      // the tail may extend further back than the unacked set).
      std::vector<std::string> replayed = p->outbox()->Pending();
      ASSERT_LE(replayed.size(), accepted.size());
      std::vector<std::string> tail(accepted.end() - replayed.size(),
                                    accepted.end());
      EXPECT_EQ(replayed, tail)
          << "outbox replay is not an ordered tail of accepted submissions "
             "(SQLLEDGER_TEST_SEED=" << seed << ")";
    }

    if (rng.Bernoulli(0.15)) {
      outage = !outage;
      flaky.SetOutage(outage);
    }
    Fill(static_cast<int>(rng.UniformRange(1, 3)));
    if (rng.Bernoulli(0.7)) {
      auto d = db_->GenerateDigest();
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      Status st = p->SubmitDigest(*d);
      if (st.ok()) {
        accepted.push_back(d->ToJson());
      } else {
        ASSERT_EQ(st.code(), StatusCode::kBusy)
            << "unexpected submit failure (SQLLEDGER_TEST_SEED=" << seed
            << "): " << st.ToString();
      }
    }
    (void)p->Pump();
    ASSERT_TRUE(p->status().fatal.ok())
        << "fatal latched under pure network faults (SQLLEDGER_TEST_SEED="
        << seed << "): " << p->status().ToString();
  }
  ASSERT_TRUE(crashed_once);

  // Weather clears: the pipeline must catch all the way up.
  flaky.SetOutage(false);
  flaky.SetProbabilities({});
  ASSERT_TRUE(p->DrainFully().ok()) << p->status().ToString();
  auto d = db_->GenerateDigest();
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(p->SubmitDigest(*d).ok());
  accepted.push_back(d->ToJson());
  ASSERT_TRUE(p->DrainFully().ok()) << p->status().ToString();

  DigestProtectionStatus s = p->status();
  EXPECT_TRUE(s.fully_protected()) << s.ToString();
  EXPECT_EQ(s.blocks_behind, 0u);
  EXPECT_EQ(s.outbox_pending, 0u);

  // The store holds an order-preserving subset of accepted submissions
  // (duplicate deliveries and ack-loss replays absorbed, nothing reordered,
  // nothing from outside the accepted sequence).
  auto stored = remote_.ListAll();
  ASSERT_TRUE(stored.ok());
  ASSERT_FALSE(stored->empty());
  size_t pos = 0;
  for (const DatabaseDigest& sd : *stored) {
    std::string json = sd.ToJson();
    while (pos < accepted.size() && accepted[pos] != json) pos++;
    ASSERT_LT(pos, accepted.size())
        << "store holds a digest that was never accepted, or out of order "
           "(block " << sd.block_id << ", SQLLEDGER_TEST_SEED=" << seed
        << ")";
    pos++;
  }
  // The final digest (covering the whole chain) must have landed.
  EXPECT_EQ(stored->back().ToJson(), accepted.back());

  auto report = VerifyLedgerAgainstStore(db_.get(), remote_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// ---- LedgerDatabase wiring ----

class DigestProtectionWiringTest : public TempDirTest {};

TEST_F(DigestProtectionWiringTest, StartStopAndStatusSurface) {
  auto db = OpenTestDb();
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  for (int i = 1; i <= 5; i++)
    ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());

  // Without a pipeline the status is the honest worst case.
  ASSERT_TRUE(db->GenerateDigest().ok());
  DigestProtectionStatus bare = db->GetDigestProtectionStatus();
  EXPECT_GT(bare.blocks_behind, 0u);
  EXPECT_FALSE(bare.fully_protected());

  // Ephemeral database with no outbox_dir: nowhere durable to queue.
  InMemoryDigestStore store;
  EXPECT_EQ(db->StartDigestProtection(&store).code(),
            StatusCode::kInvalidArgument);

  DigestPipelineOptions opts;
  opts.outbox_dir = Path("ob");
  opts.initial_backoff_micros = 0;
  opts.max_backoff_micros = 0;
  opts.jitter = 0;
  opts.probe_interval_micros = 0;
  ASSERT_TRUE(db->StartDigestProtection(&store, opts).ok());
  ASSERT_NE(db->digest_pipeline(), nullptr);
  EXPECT_EQ(db->StartDigestProtection(&store, opts).code(),
            StatusCode::kBusy);

  ASSERT_TRUE(db->digest_pipeline()->GenerateAndSubmit().ok());
  ASSERT_TRUE(db->digest_pipeline()->DrainFully().ok());
  EXPECT_TRUE(db->GetDigestProtectionStatus().fully_protected())
      << db->GetDigestProtectionStatus().ToString();

  db->StopDigestProtection();
  EXPECT_EQ(db->digest_pipeline(), nullptr);
}

TEST_F(DigestProtectionWiringTest, StalenessTracksInjectableClockExactly) {
  // seconds_since_last_durable must be computed from the database's
  // injectable clock, never wall time: a 5-second jump of the fake clock
  // (while <1ms of real time passes) must show up in the status verbatim.
  auto ticks = std::make_shared<std::atomic<int64_t>>(1000000);
  LedgerDatabaseOptions options;
  options.block_size = 4;
  options.database_id = "staleness";
  options.clock = [ticks] { return ++*ticks; };
  auto opened = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(*opened);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());

  InMemoryDigestStore store;
  auto pipeline =
      DigestUploadPipeline::Open(db.get(), &store, FastOptions(Path("ob")));
  ASSERT_TRUE(pipeline.ok());
  DigestUploadPipeline* p = pipeline->get();
  ASSERT_TRUE(p->GenerateAndSubmit().ok());
  ASSERT_EQ(p->Pump(), 1u);

  // Advance only the injected clock, then re-read. The per-call +1 ticks
  // add at most a few microseconds on top of the 5-second jump.
  *ticks += 5 * 1000 * 1000;
  double stale = p->status().seconds_since_last_durable;
  EXPECT_GE(stale, 5.0);
  EXPECT_LT(stale, 5.001);
}

TEST_F(DigestProtectionWiringTest, BackgroundCadenceUploadsDigests) {
  auto db = OpenTestDb();
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  InMemoryDigestStore store;
  DigestPipelineOptions opts;
  opts.outbox_dir = Path("ob");
  opts.initial_backoff_micros = 0;
  opts.max_backoff_micros = 0;
  opts.jitter = 0;
  opts.probe_interval_micros = 0;
  ASSERT_TRUE(db->StartDigestProtection(&store, opts,
                                        std::chrono::milliseconds(1))
                  .ok());
  for (int i = 1; i <= 5; i++)
    ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
  // The cadence thread should generate + upload without any manual pumping.
  for (int spin = 0; spin < 2000; spin++) {
    if (CounterValue(db.get(), "digest.uploads_total") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(CounterValue(db.get(), "digest.uploads_total"), 1u)
      << db->GetDigestProtectionStatus().ToString();
  db->StopDigestProtection();
  // Digests chain correctly end to end.
  auto digests = store.ListAll();
  ASSERT_TRUE(digests.ok());
  ASSERT_GE(digests->size(), 1u);
  for (size_t i = 1; i < digests->size(); i++) {
    auto derivable = db->database_ledger()->VerifyDigestChain(
        (*digests)[i - 1], (*digests)[i]);
    ASSERT_TRUE(derivable.ok());
    EXPECT_TRUE(*derivable) << "digest " << i << " does not chain";
  }
}

}  // namespace
}  // namespace sqlledger

// Incremental verification tests (DESIGN.md §11). The core property: for
// any database state — clean or tampered — VerifyLedgerIncremental must
// return the exact violation set a from-scratch VerifyLedger returns,
// while skipping the row-version hashing of the already-verified prefix.
// Covered here:
//
//   - a randomized equivalence sweep (>= 20 seeds) interleaving commits,
//     digests and incremental verifies, diffing every report field against
//     a full verification of the same effective digest set;
//   - tamper placed before, at and after the watermark: the first two
//     force a fallback to full verification, the third is caught directly;
//   - the documented accumulator blind spot (content-only flip of a
//     verified row version), asserted explicitly as a divergence;
//   - stale and corrupt VerificationState files, which must be ignored or
//     fall back cleanly — never trusted, never an error;
//   - a crash at every sync point of the watermark save: recovery must
//     come back with a valid-or-absent watermark, never a torn one.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "ledger/verification_state.h"
#include "ledger/verifier.h"
#include "storage/env.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

/// Mirrors the anchor union VerifyLedgerIncremental performs (watermark
/// anchor + latest durable digest, both presence-filtered), so the full
/// comparison run verifies the identical effective digest set.
std::vector<DatabaseDigest> WithAnchors(LedgerDatabase* db,
                                        std::vector<DatabaseDigest> digests) {
  auto add = [&](const DatabaseDigest& d) {
    if (d.database_id != db->options().database_id) return;
    if (!db->database_ledger()->FindBlock(d.block_id).ok()) return;
    for (const DatabaseDigest& e : digests)
      if (e == d) return;
    digests.push_back(d);
  };
  auto state = db->GetVerificationState();
  if (state.has_value()) add(state->anchor);
  auto durable = db->latest_durable_digest();
  if (durable.has_value()) add(*durable);
  return digests;
}

/// Byte-identical verdicts plus the work-accounting identities from
/// DESIGN.md §11: the incremental run must account for exactly the work
/// the full run did — nothing double-counted, nothing dropped.
void ExpectEquivalent(const VerificationReport& full,
                      const VerificationReport& inc, const std::string& ctx) {
  ASSERT_EQ(full.violations.size(), inc.violations.size())
      << ctx << "\nfull: " << full.Summary() << "\ninc:  " << inc.Summary();
  for (size_t i = 0; i < full.violations.size(); i++) {
    EXPECT_EQ(full.violations[i].invariant, inc.violations[i].invariant)
        << ctx << " violation " << i;
    EXPECT_EQ(full.violations[i].message, inc.violations[i].message)
        << ctx << " violation " << i;
  }
  EXPECT_EQ(full.blocks_checked, inc.blocks_checked) << ctx;
  EXPECT_EQ(inc.blocks_skipped + inc.blocks_reverified, inc.blocks_checked)
      << ctx;
  EXPECT_EQ(full.row_versions_checked,
            inc.row_versions_checked + inc.row_versions_skipped)
      << ctx;
  EXPECT_EQ(full.transactions_checked, inc.transactions_checked) << ctx;
  EXPECT_EQ(full.has_digest_coverage, inc.has_digest_coverage) << ctx;
  EXPECT_EQ(full.highest_digest_block, inc.highest_digest_block) << ctx;
}

class IncrementalVerifierTest : public TempDirTest {
 protected:
  LedgerDatabaseOptions MakeOptions(const std::string& subdir,
                                    Env* env = nullptr) {
    LedgerDatabaseOptions options;
    options.data_dir = Path(subdir);
    options.database_id = "incdb";
    options.block_size = 3;
    options.sync_wal = true;
    options.env = env;
    options.clock = [this] { return ++clock_; };
    return options;
  }

  std::unique_ptr<LedgerDatabase> Open(const std::string& subdir,
                                       Env* env = nullptr) {
    auto db = LedgerDatabase::Open(MakeOptions(subdir, env));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  /// Opens a database with an updateable "accounts" table and inserts
  /// accounts [0, n) in separate transactions (several blocks at
  /// block_size 3).
  std::unique_ptr<LedgerDatabase> OpenWithAccounts(const std::string& subdir,
                                                   int n) {
    auto db = Open(subdir);
    if (db == nullptr) return nullptr;
    EXPECT_TRUE(
        db->CreateTable("accounts", AccountSchema(), TableKind::kUpdateable)
            .ok());
    InsertAccounts(db.get(), n);
    return db;
  }

  void InsertAccounts(LedgerDatabase* db, int n) {
    for (int i = 0; i < n; i++) {
      auto txn = db->Begin("app");
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db->Insert(*txn, "accounts",
                             {VS("acct" + std::to_string(next_acct_)),
                              VB(next_acct_)})
                      .ok());
      next_acct_++;
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
  }

  /// Digest + incremental verify, asserting the run is clean. Seeds (or
  /// refreshes) the persisted watermark at the digest's block.
  DatabaseDigest SeedWatermark(LedgerDatabase* db,
                               std::vector<DatabaseDigest>* trusted) {
    auto digest = db->GenerateDigest();
    EXPECT_TRUE(digest.ok());
    trusted->push_back(*digest);
    auto inc = VerifyLedgerIncremental(db, *trusted);
    EXPECT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_TRUE(inc->ok()) << inc->Summary();
    auto state = db->GetVerificationState();
    EXPECT_TRUE(state.has_value());
    if (state.has_value()) {
      EXPECT_EQ(state->last_verified_block, digest->block_id);
    }
    return *digest;
  }

  int64_t clock_ = 1000000;
  int next_acct_ = 0;
};

// ---- Randomized equivalence sweep (the core property) ----

TEST_F(IncrementalVerifierTest, RandomizedEquivalenceSweep) {
  constexpr int kCases = 20;
  for (int c = 0; c < kCases; c++) {
    SCOPED_TRACE("case " + std::to_string(c) +
                 " (SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()) + ")");
    Random rng(TestCaseSeed(static_cast<uint64_t>(c)));
    std::string subdir = "eq" + std::to_string(c);
    auto db = Open(subdir);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(
        db->CreateTable("accounts", AccountSchema(), TableKind::kUpdateable)
            .ok());
    ASSERT_TRUE(
        db->CreateTable("audit", SimpleUserSchema(), TableKind::kAppendOnly)
            .ok());

    std::vector<DatabaseDigest> trusted;
    std::vector<int64_t> live;
    int64_t next_key = 0;
    int64_t next_audit = 0;
    auto run_traffic = [&](int txns) {
      for (int t = 0; t < txns; t++) {
        auto txn = db->Begin("gen");
        ASSERT_TRUE(txn.ok());
        int stmts = 1 + static_cast<int>(rng.Uniform(3));
        for (int s = 0; s < stmts; s++) {
          if (live.empty() || rng.Bernoulli(0.55)) {
            int64_t k = next_key++;
            ASSERT_TRUE(db->Insert(*txn, "accounts",
                                   {VS("k" + std::to_string(k)), VB(k)})
                            .ok());
            live.push_back(k);
          } else if (rng.Bernoulli(0.6)) {
            int64_t k = live[rng.Uniform(live.size())];
            ASSERT_TRUE(
                db->Update(*txn, "accounts",
                           {VS("k" + std::to_string(k)),
                            VB(static_cast<int64_t>(rng.Uniform(1000)))})
                    .ok());
          } else {
            size_t at = rng.Uniform(live.size());
            int64_t k = live[at];
            ASSERT_TRUE(db->Delete(*txn, "accounts",
                                   {VS("k" + std::to_string(k))})
                            .ok());
            live.erase(live.begin() + static_cast<long>(at));
          }
          if (rng.Bernoulli(0.3)) {
            ASSERT_TRUE(db->Insert(*txn, "audit",
                                   {VB(next_audit++), VS(rng.AlphaString(6))})
                            .ok());
          }
        }
        ASSERT_TRUE(db->Commit(*txn).ok());
      }
    };

    int phases = 3 + static_cast<int>(rng.Uniform(3));
    for (int p = 0; p < phases; p++) {
      SCOPED_TRACE("phase " + std::to_string(p));
      run_traffic(1 + static_cast<int>(rng.Uniform(5)));
      if (rng.Bernoulli(0.7)) {
        auto digest = db->GenerateDigest();
        ASSERT_TRUE(digest.ok());
        trusted.push_back(*digest);
      }
      std::vector<DatabaseDigest> full_digests =
          WithAnchors(db.get(), trusted);
      auto inc = VerifyLedgerIncremental(db.get(), trusted);
      ASSERT_TRUE(inc.ok()) << inc.status().ToString();
      auto full = VerifyLedger(db.get(), full_digests);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_TRUE(inc->ok()) << inc->Summary();
      EXPECT_FALSE(inc->fell_back_to_full) << inc->fallback_reason;
      ExpectEquivalent(*full, *inc, "phase " + std::to_string(p));
    }

    // Guarantee a persisted watermark, then prove it survives a clean
    // close/reopen and still pays off: the reopened database skips the
    // prefix's row-version hashing while agreeing with a full run.
    run_traffic(1);
    auto digest = db->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    trusted.push_back(*digest);
    auto seed_run = VerifyLedgerIncremental(db.get(), trusted);
    ASSERT_TRUE(seed_run.ok());
    ASSERT_TRUE(seed_run->ok()) << seed_run->Summary();
    db.reset();

    db = Open(subdir);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->GetVerificationState().has_value());
    run_traffic(2);
    std::vector<DatabaseDigest> full_digests = WithAnchors(db.get(), trusted);
    auto inc = VerifyLedgerIncremental(db.get(), trusted);
    ASSERT_TRUE(inc.ok());
    auto full = VerifyLedger(db.get(), full_digests);
    ASSERT_TRUE(full.ok());
    EXPECT_TRUE(inc->ok()) << inc->Summary();
    EXPECT_FALSE(inc->fell_back_to_full) << inc->fallback_reason;
    EXPECT_EQ(inc->watermark_block, digest->block_id);
    EXPECT_GT(inc->blocks_skipped, 0u);
    EXPECT_GT(inc->row_versions_skipped, 0u);
    ExpectEquivalent(*full, *inc, "post-reopen");
  }
}

// ---- Deterministic skip accounting and stats ----

TEST_F(IncrementalVerifierTest, SeedsWatermarkAndSkipsVerifiedPrefix) {
  auto db = OpenWithAccounts("skip", 8);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;

  // First run has no watermark: everything is re-verified.
  auto d1 = db->GenerateDigest();
  ASSERT_TRUE(d1.ok());
  trusted.push_back(*d1);
  auto inc1 = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc1.ok());
  EXPECT_TRUE(inc1->ok()) << inc1->Summary();
  EXPECT_TRUE(inc1->incremental);
  EXPECT_EQ(inc1->watermark_block, 0u);
  EXPECT_EQ(inc1->blocks_skipped, 0u);
  EXPECT_EQ(inc1->row_versions_skipped, 0u);
  EXPECT_EQ(inc1->blocks_reverified, inc1->blocks_checked);

  auto state = db->GetVerificationState();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->last_verified_block, d1->block_id);
  EXPECT_EQ(state->anchor, *d1);
  EXPECT_FALSE(state->tables.empty());

  // Second run resumes from d1's block and only hashes the delta.
  InsertAccounts(db.get(), 4);
  auto d2 = db->GenerateDigest();
  ASSERT_TRUE(d2.ok());
  trusted.push_back(*d2);
  auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  auto inc2 = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc2.ok());
  EXPECT_TRUE(inc2->ok()) << inc2->Summary();
  EXPECT_FALSE(inc2->fell_back_to_full);
  EXPECT_EQ(inc2->watermark_block, d1->block_id);
  EXPECT_GT(inc2->blocks_skipped, 0u);
  EXPECT_GT(inc2->row_versions_skipped, 0u);
  EXPECT_LT(inc2->row_versions_checked, full->row_versions_checked);
  ExpectEquivalent(*full, *inc2, "second run");

  // The watermark advanced and the stats counters add up.
  state = db->GetVerificationState();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->last_verified_block, d2->block_id);
  EXPECT_EQ(CounterValue(db.get(), "verify.incremental_total"), 2u);
  EXPECT_EQ(CounterValue(db.get(), "verify.fallbacks_total"), 0u);
  EXPECT_EQ(CounterValue(db.get(), "verify.blocks_skipped_total"),
            inc2->blocks_skipped);
  EXPECT_EQ(CounterValue(db.get(), "verify.row_versions_skipped_total"),
            inc2->row_versions_skipped);
  EXPECT_EQ(CounterValue(db.get(), "verify.blocks_reverified_total"),
            inc1->blocks_reverified + inc2->blocks_reverified);
}

TEST_F(IncrementalVerifierTest, SubsetVerificationDoesNotTouchWatermark) {
  auto db = OpenWithAccounts("subset", 6);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);
  auto before = db->GetVerificationState();
  ASSERT_TRUE(before.has_value());

  InsertAccounts(db.get(), 3);
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  trusted.push_back(*digest);
  VerificationOptions options;
  options.tables = {"accounts"};
  auto inc = VerifyLedgerIncremental(db.get(), trusted, options);
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->ok()) << inc->Summary();

  // A table-filtered run cannot attest the whole database, so the
  // persisted watermark must be exactly what it was.
  auto after = db->GetVerificationState();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(*before == *after);
}

// ---- Tamper placement: before, at and after the watermark ----

TEST_F(IncrementalVerifierTest, StructuralTamperBeforeWatermarkFallsBack) {
  auto db = OpenWithAccounts("tamper_before", 10);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);
  InsertAccounts(db.get(), 4);
  SeedWatermark(db.get(), &trusted);

  // Delete a live row whose only version predates the watermark: the
  // verified prefix loses a row version, which the per-table accumulator
  // must notice and turn into a full re-verification.
  TableStore* store = db->GetStoreForTesting("accounts");
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->Delete({VS("acct3")}).ok());

  auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->ok());
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->ok());
  EXPECT_TRUE(inc->fell_back_to_full);
  EXPECT_NE(inc->fallback_reason.find("accumulator"), std::string::npos)
      << inc->fallback_reason;
  ExpectEquivalent(*full, *inc, "deleted prefix row");

  EXPECT_EQ(CounterValue(db.get(), "verify.fallbacks_total"), 1u);
}

TEST_F(IncrementalVerifierTest, EntryTamperBeforeWatermarkFallsBack) {
  auto db = OpenWithAccounts("tamper_entry", 10);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);
  InsertAccounts(db.get(), 4);
  DatabaseDigest d = SeedWatermark(db.get(), &trusted);

  // Rewrite the recorded user of a transaction deep inside the verified
  // prefix. No row version changes, so the per-table accumulators still
  // match and the prefix's block headers are untouched — only the
  // entry-content accumulator can notice the edit and force the fallback
  // (the full pass then pins it as a transactions-root mismatch).
  auto snapshot = db->database_ledger()->Snapshot();
  uint64_t victim = 0;
  for (const TransactionEntry& e : snapshot.entries)
    if (e.block_id < d.block_id) victim = e.txn_id;
  ASSERT_NE(victim, 0u);
  TableStore* txns = db->database_ledger()->transactions_table_for_testing();
  ASSERT_NE(txns, nullptr);
  Row* row = txns->mutable_clustered()->MutableGet(
      {VB(static_cast<int64_t>(victim))});
  ASSERT_NE(row, nullptr);
  (*row)[4] = Value::Varchar("mallory");

  auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->ok());
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->ok());
  EXPECT_TRUE(inc->fell_back_to_full);
  EXPECT_NE(inc->fallback_reason.find("transaction-entry accumulator"),
            std::string::npos)
      << inc->fallback_reason;
  ExpectEquivalent(*full, *inc, "rewritten prefix entry user");
}

TEST_F(IncrementalVerifierTest, BlockChainTamperBeforeWatermarkFallsBack) {
  auto db = OpenWithAccounts("tamper_chain", 10);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  DatabaseDigest d = SeedWatermark(db.get(), &trusted);
  ASSERT_GT(d.block_id, 1u);

  // Flip a byte of block 1's previous-block hash — deep inside the
  // verified prefix. The incremental pass always re-hashes block headers,
  // so the chain break surfaces immediately and forces the fallback.
  TableStore* blocks = db->database_ledger()->blocks_table_for_testing();
  ASSERT_NE(blocks, nullptr);
  Row* row = blocks->mutable_clustered()->MutableGet({VB(1)});
  ASSERT_NE(row, nullptr);
  std::vector<uint8_t> bytes((*row)[1].string_value().begin(),
                             (*row)[1].string_value().end());
  ASSERT_FALSE(bytes.empty());
  bytes[0] ^= 0x01;
  (*row)[1] = Value::Varbinary(std::move(bytes));

  auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->ok());
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->ok());
  EXPECT_TRUE(inc->fell_back_to_full);
  ExpectEquivalent(*full, *inc, "prefix chain break");
}

TEST_F(IncrementalVerifierTest, TamperAtWatermarkBlockFailsReanchor) {
  auto db = OpenWithAccounts("tamper_at", 10);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  DatabaseDigest d = SeedWatermark(db.get(), &trusted);

  // Corrupt the watermark block itself (its transactions-root column):
  // its recomputed hash no longer matches the stored watermark hash, so
  // re-anchoring must fail before anything is skipped.
  TableStore* blocks = db->database_ledger()->blocks_table_for_testing();
  Row* row = blocks->mutable_clustered()->MutableGet(
      {VB(static_cast<int64_t>(d.block_id))});
  ASSERT_NE(row, nullptr);
  std::vector<uint8_t> bytes((*row)[2].string_value().begin(),
                             (*row)[2].string_value().end());
  ASSERT_FALSE(bytes.empty());
  bytes[0] ^= 0x01;
  (*row)[2] = Value::Varbinary(std::move(bytes));

  auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->ok());
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->ok());
  EXPECT_TRUE(inc->fell_back_to_full);
  EXPECT_NE(inc->fallback_reason.find("watermark"), std::string::npos)
      << inc->fallback_reason;
  ExpectEquivalent(*full, *inc, "tampered watermark block");
}

TEST_F(IncrementalVerifierTest, TamperAfterWatermarkCaughtWithoutFallback) {
  auto db = OpenWithAccounts("tamper_after", 8);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);

  // Rows inserted after the watermark are untrusted and get their leaf
  // hashes recomputed, so tampering there is caught directly — no
  // fallback, yet the violation set is still identical to a full run's.
  InsertAccounts(db.get(), 4);
  TableStore* store = db->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({VS("acct10")});
  ASSERT_NE(row, nullptr);
  (*row)[1] = VB(31337);

  auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->ok());
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->ok());
  EXPECT_FALSE(inc->fell_back_to_full) << inc->fallback_reason;
  EXPECT_GT(inc->row_versions_skipped, 0u);
  ExpectEquivalent(*full, *inc, "tamper past watermark");
}

TEST_F(IncrementalVerifierTest, NulledStartStampMatchesFullRun) {
  // The view-definition check (invariant 6) counts versions. Past the
  // watermark the incremental pass counts them itself; inside the verified
  // prefix the accumulator mismatch forces the full pass. Both must agree
  // with a full run.
  auto db = OpenWithAccounts("null_stamp", 8);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);
  InsertAccounts(db.get(), 4);
  auto ref = db->GetTableRef("accounts");
  for (const char* key : {"acct10", "acct2"}) {
    SCOPED_TRACE(key);
    Row* row = ref->main->mutable_clustered()->MutableGet({VS(key)});
    ASSERT_NE(row, nullptr);
    (*row)[ref->plan->start_txn_ord] = Value::Null(DataType::kBigInt);
    auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
    ASSERT_TRUE(full.ok());
    ASSERT_FALSE(full->violations.empty());
    EXPECT_EQ(full->violations.back().invariant, 6);
    auto inc = VerifyLedgerIncremental(db.get(), trusted);
    ASSERT_TRUE(inc.ok());
    EXPECT_EQ(inc->fell_back_to_full, std::string(key) == "acct2");
    ExpectEquivalent(*full, *inc, key);
  }
}

TEST_F(IncrementalVerifierTest, ContentFlipInPrefixIsTheDocumentedBlindSpot) {
  // DESIGN.md §11: the accumulator fingerprints version *structure*
  // (txn, sequence, operation), not cell contents. A content-only flip on
  // a non-indexed column of an already-verified row version is therefore
  // invisible to the incremental pass until the next full verification.
  // This test pins that documented divergence so any accumulator upgrade
  // that closes the gap has to update both DESIGN.md and this expectation.
  auto db = OpenWithAccounts("blind_spot", 8);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);

  TableStore* store = db->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({VS("acct2")});
  ASSERT_NE(row, nullptr);
  Value original = (*row)[1];
  (*row)[1] = VB(999999);

  auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->ok());  // the full run catches it (invariant 4)
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->ok()) << inc->Summary();  // the blind spot
  EXPECT_FALSE(inc->fell_back_to_full);

  // Reverting restores agreement.
  (*row)[1] = original;
  full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->ok()) << full->Summary();
  inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->ok()) << inc->Summary();
}

// ---- Stale and corrupt verification state ----

TEST_F(IncrementalVerifierTest, StaleWatermarkForMissingBlockFallsBack) {
  auto db = OpenWithAccounts("stale", 8);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);

  // A watermark pointing at a block the ledger does not have (say, state
  // restored from the wrong backup generation) must fall back cleanly.
  VerificationState stale = *db->GetVerificationState();
  stale.last_verified_block = 999;
  ASSERT_TRUE(db->StoreVerificationState(stale).ok());
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->ok()) << inc->Summary();
  EXPECT_TRUE(inc->fell_back_to_full);
  EXPECT_NE(inc->fallback_reason.find("not present"), std::string::npos)
      << inc->fallback_reason;

  // The clean fallback run re-seeded a correct watermark, so the next
  // incremental run is back on the fast path.
  auto inc2 = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc2.ok());
  EXPECT_TRUE(inc2->ok());
  EXPECT_FALSE(inc2->fell_back_to_full) << inc2->fallback_reason;
}

TEST_F(IncrementalVerifierTest, StaleWatermarkHashMismatchFallsBack) {
  auto db = OpenWithAccounts("stale_hash", 8);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);

  VerificationState stale = *db->GetVerificationState();
  stale.block_hash.bytes[0] ^= 0x01;
  ASSERT_TRUE(db->StoreVerificationState(stale).ok());
  auto inc = VerifyLedgerIncremental(db.get(), trusted);
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->ok()) << inc->Summary();
  EXPECT_TRUE(inc->fell_back_to_full);
  EXPECT_NE(inc->fallback_reason.find("watermark"), std::string::npos)
      << inc->fallback_reason;
}

TEST_F(IncrementalVerifierTest, RejectsStateForForeignDatabase) {
  auto db = OpenWithAccounts("foreign", 4);
  ASSERT_NE(db, nullptr);
  std::vector<DatabaseDigest> trusted;
  SeedWatermark(db.get(), &trusted);
  VerificationState foreign = *db->GetVerificationState();
  foreign.database_id = "some-other-db";
  EXPECT_EQ(db->StoreVerificationState(foreign).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IncrementalVerifierTest, CorruptStateFileIgnoredAtOpen) {
  std::vector<DatabaseDigest> trusted;
  {
    auto db = OpenWithAccounts("corrupt", 8);
    ASSERT_NE(db, nullptr);
    SeedWatermark(db.get(), &trusted);
  }
  std::string state_path = Path("corrupt") + "/verify_state.sldb";

  // Three ways the file can rot: a flipped payload byte, a torn tail and
  // outright garbage. Each must be treated as "no watermark": the state
  // is absent after Open and verification runs from scratch — cleanly.
  for (int way = 0; way < 3; way++) {
    SCOPED_TRACE("corruption " + std::to_string(way));
    std::ifstream in(state_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(blob.size(), 16u);
    std::string damaged = blob;
    if (way == 0)
      damaged[blob.size() / 2] ^= 0x01;
    else if (way == 1)
      damaged.resize(blob.size() / 2);
    else
      damaged = "this is not a verification state file";
    {
      std::ofstream out(state_path, std::ios::binary | std::ios::trunc);
      out << damaged;
    }

    auto db = Open("corrupt");
    ASSERT_NE(db, nullptr);
    EXPECT_FALSE(db->GetVerificationState().has_value());
    auto full = VerifyLedger(db.get(), WithAnchors(db.get(), trusted));
    ASSERT_TRUE(full.ok());
    auto inc = VerifyLedgerIncremental(db.get(), trusted);
    ASSERT_TRUE(inc.ok());
    EXPECT_TRUE(inc->ok()) << inc->Summary();
    EXPECT_FALSE(inc->fell_back_to_full);
    EXPECT_EQ(inc->watermark_block, 0u);
    EXPECT_EQ(inc->blocks_reverified, inc->blocks_checked);
    ExpectEquivalent(*full, *inc, "after corruption");
    db.reset();

    // The clean run above re-wrote a good state file; restore the damaged
    // copy's precondition by leaving the fresh file for the next round.
  }
}

TEST_F(IncrementalVerifierTest, EverySingleByteFlipInStateFileIsRejected) {
  // Encode/Decode round-trip, then exhaustive single-byte-flip rejection:
  // the CRC/magic/size envelope must catch every one-byte corruption.
  VerificationState state;
  state.database_id = "incdb";
  state.database_create_time = "2026-08-08T00:00:00Z";
  state.last_verified_block = 42;
  for (size_t i = 0; i < state.block_hash.bytes.size(); i++)
    state.block_hash.bytes[i] = static_cast<uint8_t>(i * 7 + 1);
  state.anchor.database_id = "incdb";
  state.anchor.database_create_time = state.database_create_time;
  state.anchor.block_id = 42;
  state.anchor.block_hash = state.block_hash;
  state.anchor.generated_at_micros = 123456;
  state.anchor.last_commit_ts_micros = 123400;
  state.tables.push_back({1, 10, 0xDEADBEEFULL});
  state.tables.push_back({7, 3, 0x1234567890ULL});

  std::string encoded = state.Encode();
  auto decoded = VerificationState::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == state);
  // A format-2 file (it carried an anchor durability bit) is not decoded:
  // it costs one full re-verify.
  std::string format2 = encoded;
  format2[7] = '2';
  EXPECT_FALSE(VerificationState::Decode(format2).ok());

  for (size_t i = 0; i < encoded.size(); i++) {
    std::string flipped = encoded;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_FALSE(VerificationState::Decode(flipped).ok())
        << "flip at byte " << i << " was accepted";
  }
  // Truncation at every length is rejected too.
  for (size_t len = 0; len < encoded.size(); len++) {
    EXPECT_FALSE(VerificationState::Decode(encoded.substr(0, len)).ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

// ---- Crash torture: the watermark save is never half-trusted ----

TEST_F(IncrementalVerifierTest, CrashAtEverySyncPointDuringStateSave) {
  // Arm a crash at the nth sync after the workload settles, so the crash
  // lands inside VerifyLedgerIncremental's best-effort state save (temp
  // file sync, then directory sync). Whatever survives on disk must be a
  // valid previous-or-new watermark or nothing — recovery re-anchors and
  // agrees with a full verification either way.
  bool completed_without_crash = false;
  int crash_point = 1;
  for (; crash_point <= 10 && !completed_without_crash; crash_point++) {
    SCOPED_TRACE("crash point " + std::to_string(crash_point) +
                 " (SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()) + ")");
    std::string subdir = "crash" + std::to_string(crash_point);
    FaultInjectionEnv env(nullptr, /*seed=*/7000 * TestSeed() + crash_point);
    std::vector<DatabaseDigest> trusted;
    next_acct_ = 0;
    {
      auto dbr = LedgerDatabase::Open(MakeOptions(subdir, &env));
      ASSERT_TRUE(dbr.ok()) << dbr.status().ToString();
      auto db = std::move(*dbr);
      ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                  TableKind::kUpdateable)
                      .ok());
      InsertAccounts(db.get(), 6);
      // Seed a first watermark so the crashing save below is *replacing*
      // an existing state file — the riskiest path (temp + rename over).
      SeedWatermark(db.get(), &trusted);
      InsertAccounts(db.get(), 3);
      auto digest = db->GenerateDigest();
      ASSERT_TRUE(digest.ok());
      trusted.push_back(*digest);

      env.CrashAtSync(crash_point);
      auto inc = VerifyLedgerIncremental(db.get(), trusted);
      if (env.crashed()) {
        // The save is best-effort: a crash inside it must not fail the
        // verification that just succeeded.
        if (inc.ok()) {
          EXPECT_TRUE(inc->ok()) << inc->Summary();
        }
      } else {
        completed_without_crash = true;
        ASSERT_TRUE(inc.ok()) << inc.status().ToString();
        EXPECT_TRUE(inc->ok()) << inc->Summary();
      }
    }

    // Power-loss reopen on the real filesystem. The recovered watermark is
    // valid-or-absent: incremental verification must re-anchor without a
    // fallback and match a from-scratch verification exactly.
    auto db = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto state = (*db)->GetVerificationState();
    if (state.has_value()) {
      EXPECT_TRUE(state->last_verified_block == trusted[0].block_id ||
                  state->last_verified_block == trusted[1].block_id)
          << "torn watermark trusted: block "
          << state->last_verified_block;
    }
    auto full =
        VerifyLedger(db->get(), WithAnchors(db->get(), trusted));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    auto inc = VerifyLedgerIncremental(db->get(), trusted);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_TRUE(inc->ok()) << inc->Summary();
    EXPECT_FALSE(inc->fell_back_to_full) << inc->fallback_reason;
    ExpectEquivalent(*full, *inc, "post-crash recovery");
  }
  // The loop must have walked past the save's last sync point.
  EXPECT_TRUE(completed_without_crash);
  EXPECT_GT(crash_point, 2);
}

}  // namespace
}  // namespace sqlledger

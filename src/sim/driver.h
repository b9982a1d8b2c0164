// The differential-simulation driver: replays one generated op trace
// against a real LedgerDatabase (behind a FaultInjectionEnv) and the
// ReferenceModel in lockstep, diffing statuses, query results, ledger
// entries, digests, receipts and full verification outcomes as it goes.
//
// Determinism rules (what makes `--seed=N` reproduce byte-for-byte):
//   - the trace is a pure function of (seed, generator options);
//   - the database clock is a driver-owned counter, never wall time;
//   - every adversarial event (crash points, torn-write prefixes, tamper
//     targets) draws from seeded PRNGs;
//   - the driver resolves runtime-inapplicable ops (missing table index,
//     nothing to truncate) with deterministic no-op rules, which also makes
//     arbitrary subsequences replayable — the property the minimizer needs.
//
// On divergence the driver records the op index and a diff message; the
// harness prints the seed and the (minimized) trace so the failure can be
// replayed exactly.

#ifndef SQLLEDGER_SIM_DRIVER_H_
#define SQLLEDGER_SIM_DRIVER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ledger/digest_store.h"
#include "ledger/faulty_digest_store.h"
#include "ledger/ledger_database.h"
#include "sim/generator.h"
#include "sim/model.h"
#include "sim/trace.h"
#include "storage/env.h"

namespace sqlledger {
namespace sim {

struct SimConfig {
  uint64_t seed = 1;
  GeneratorOptions gen;
  /// Transactions per ledger block — small so block closes, receipts and
  /// truncation all trigger within short traces.
  uint64_t block_size = 8;
  /// On-disk directory for the database (WAL, checkpoints). Wiped by every
  /// run. Required: crash simulation needs real files.
  std::string data_dir;
  /// Deep audit (scan-compare every table + chain tip) every N ops; 0 = off.
  size_t audit_interval = 64;
  /// Extra full VerifyLedger every N ops on top of generated kVerify ops.
  size_t verify_interval = 0;
  /// Self-test: plant a hash-order bug in the model so the harness must
  /// diverge (used to prove the oracle actually bites).
  bool break_hash_order = false;
};

struct SimResult {
  bool ok = true;  // false = divergence (or harness setup failure)
  std::string message;
  size_t divergent_op = static_cast<size_t>(-1);
  /// block_id:block_hash of the final digest — the chain fingerprint two
  /// runs of the same seed must agree on.
  std::string final_digest_hex;
  /// SHA-256 over the per-op outcome log — byte-for-byte determinism check.
  std::string outcome_fingerprint;
  /// SHA-256 over the final metrics JSON + trace JSON (DESIGN.md §13): the
  /// observability layer must itself replay byte-for-byte under a pinned
  /// metrics clock. Empty when the run died before a database existed.
  std::string metrics_fingerprint;
  uint64_t statements = 0;
  uint64_t commits = 0;
  uint64_t crashes = 0;
  uint64_t tampers = 0;
  uint64_t truncations = 0;
  uint64_t verifications = 0;
  uint64_t incremental_verifications = 0;
  uint64_t digests = 0;
  uint64_t store_outages = 0;

  std::string Summary() const;
};

class SimDriver {
 public:
  explicit SimDriver(SimConfig config);
  ~SimDriver();

  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  /// Wipes the data dir, opens the database, creates the base tables and
  /// replays the trace. Returns the filled-in result.
  SimResult Run(const std::vector<SimOp>& trace);

 private:
  Status Setup();
  Status OpenDb();
  void ExecuteOp(size_t i, const SimOp& op);

  // Op handlers.
  void DoBegin(size_t i, const SimOp& op);
  void DoDml(size_t i, const SimOp& op);
  void DoSavepoint(size_t i, const SimOp& op);
  void DoRollbackToSave(size_t i, const SimOp& op);
  void DoCreateTable(size_t i, const SimOp& op);
  void DoAddColumn(size_t i, const SimOp& op);
  void DoDropColumn(size_t i, const SimOp& op);
  void DoCreateIndex(size_t i, const SimOp& op);
  void DoLedgerView(size_t i, const SimOp& op);
  void DoOpsView(size_t i);
  void DoDigest(size_t i);
  void DoReceipt(size_t i, const SimOp& op);
  void DoVerify(size_t i);
  /// VerifyLedgerIncremental diffed verdict-for-verdict against a full
  /// VerifyLedger run on the same trusted digests (plus counter identities:
  /// hashed + skipped row versions must equal the full run's hashed count).
  void DoIncrementalVerify(size_t i);
  void DoCheckpoint(size_t i);
  void DoCrash(size_t i);
  void DoTamper(size_t i, const SimOp& op);
  void DoTruncate(size_t i, const SimOp& op);
  void DoStoreOutage(size_t i, const SimOp& op);

  // Lockstep plumbing.
  bool CommitOpenTxn(size_t i);
  void ResolveInDoubtCommit(size_t i,
                            const ReferenceModel::CommitOutcome& expected);
  /// Feeds the entries past ingested_txn_id_ to the model, in order.
  bool IngestNewEntries(size_t i);
  bool Ingest(size_t i, const std::vector<TransactionEntry>& fresh);
  bool EntriesMatch(const TransactionEntry& a, const TransactionEntry& b,
                    bool check_ts) const;
  /// Crash aftermath: destroy the db, reopen on a fresh env, run `resolve`
  /// (intent-specific model fix-up), check the recovered catalog against
  /// the model, resync counters, rebuild the model chain from the recovered
  /// system and deep-audit. Returns true when a crash was actually pending
  /// (the caller's op is finished either way).
  bool HandleIfCrashed(size_t i, const std::function<void()>& resolve,
                       bool check_prefix = true);
  bool Reopen(size_t i);
  bool RebuildChain(size_t i, bool check_prefix);
  void ProbeTxnCounter(size_t i);
  void CheckRecoveredCatalog(size_t i);
  /// Each table's plan must be the layout the model derives from its own
  /// schema: visible ordinals and columns, user-key positions and stamp
  /// ordinals. Run after every DDL op and every reopen.
  void CheckPlans(size_t i);
  void AdoptCreatedTable(size_t i, const std::string& name, TableKind kind);
  /// Replaces model ledger-table contents with the system's physical rows
  /// after asserting user-visible content still matches `pre` (used after
  /// truncation, whose dummy updates re-stamp hidden columns).
  void AdoptTables(size_t i,
                   const std::map<std::string, std::vector<Row>>& pre);
  void FullAudit(size_t i);

  // Digest-protection plumbing (DESIGN.md §9). Every digest the driver
  // takes also flows through the database's DigestUploadPipeline toward a
  // FaultyDigestStore, so outages, lost acks, duplicates and crashes all
  // hit the retry/outbox machinery under the deterministic clock.
  /// Submits `d` through the pipeline and pumps once. Returns true when
  /// the submission was durably accepted into the outbox.
  bool SubmitDigestToPipeline(size_t i, const DatabaseDigest& d);
  /// Pumps until the outbox drains (no outage may be active). Returns
  /// false on divergence; a crash mid-drain returns true and leaves the
  /// recovery to the caller's safety net.
  bool DrainPipeline(size_t i);
  /// Cross-checks the remote store against the driver's submission log:
  /// stored digests must be an order-preserving subset of submissions, and
  /// every accepted submission must be stored or still pending replay.
  bool AuditDigestStore(size_t i);

  // Small helpers.
  DatabaseLedger* ledger() { return db_->database_ledger(); }
  Row BuildUserRow(const ReferenceModel::Table& t, const SimOp& op) const;
  const std::string* TableName(uint32_t index) const;
  uint32_t SystemTableId(const std::string& name);
  void Fail(size_t i, std::string msg);
  void Note(const std::string& line);
  static Schema GenUserSchema();

  SimConfig config_;
  std::unique_ptr<ReferenceModel> model_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
  // The remote digest service: survives crashes (it is external to the
  // database host) and must outlive db_, whose pipeline points into it.
  std::unique_ptr<InMemoryDigestStore> remote_store_;
  std::unique_ptr<FaultyDigestStore> faulty_store_;
  std::unique_ptr<LedgerDatabase> db_;
  Transaction* txn_ = nullptr;
  // Newest txn id the model has ingested. Ops commit the open transaction
  // before running internal ones, so entries land in txn-id order.
  uint64_t ingested_txn_id_ = 0;
  std::vector<std::string> registry_;  // table index -> name, append order
  std::set<std::pair<std::string, std::string>> indexes_;
  std::vector<DatabaseDigest> trusted_;
  int64_t clock_ = 1000000;  // driver-owned deterministic clock
  // Separate deterministic clock for the metrics/trace subsystem: metric
  // timing must not perturb commit timestamps drawn from clock_ (the db
  // clock increments per call, so sharing it would shift commit_ts values
  // whenever instrumentation adds or removes a read).
  int64_t metrics_clock_ = 5000000;
  uint64_t reopens_ = 0;
  /// Every pipeline submission in order. `accepted` = the outbox reported
  /// durable; false = the outcome was ambiguous (crash mid-append) and the
  /// digest may or may not resurface from replay.
  struct DigestSubmission {
    std::string json;
    uint64_t block_id = 0;
    bool accepted = false;
  };
  std::vector<DigestSubmission> submission_log_;
  bool store_outage_ = false;  // driver's belief, mirrored into the store

  bool diverged_ = false;
  SimResult result_;
  std::string log_;
};

/// Wipes config.data_dir and replays `trace`.
SimResult RunTrace(const SimConfig& config, const std::vector<SimOp>& trace);

/// GenerateTrace(config.seed, config.gen) + RunTrace.
SimResult RunSim(const SimConfig& config);

/// Greedy delta-debugging: removes chunks (halving the chunk size down to
/// single ops) while the divergence persists. Returns the shrunk trace; if
/// `trace` does not diverge in the first place it is returned unchanged.
std::vector<SimOp> MinimizeTrace(const SimConfig& config,
                                 std::vector<SimOp> trace);

}  // namespace sim
}  // namespace sqlledger

#endif  // SQLLEDGER_SIM_DRIVER_H_

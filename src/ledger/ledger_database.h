// LedgerDatabase: the public facade composing the storage engine, the
// transaction layer and the ledger core into the system described by the
// paper — transparent ledger tables over a transactional engine, with
// digest generation, verification, receipts, schema evolution and
// truncation.
//
// Concurrency model: strict two-phase hierarchical locking — point DML
// takes an intention lock on the table plus a row lock (IS+S for reads,
// IX+X for writes), scans take a table S lock, DDL takes table X — so
// transactions touching different rows of the same table run concurrently.
// Commits serialize through the WAL append and the Database Ledger's slot
// assignment. Checkpoints, verification and ledger truncation read the
// database through a MaintenanceView, which drains active transactions and
// blocks new ones while it lives, mirroring the paper's advice to run
// verification on an idle replica (§4.2).

#ifndef SQLLEDGER_LEDGER_LEDGER_DATABASE_H_
#define SQLLEDGER_LEDGER_LEDGER_DATABASE_H_

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "ledger/database_ledger.h"
#include "ledger/digest.h"
#include "ledger/digest_pipeline.h"
#include "ledger/ledger_table.h"
#include "ledger/ledger_view.h"
#include "ledger/verification_state.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/trace.h"

namespace sqlledger {

class MaintenanceView;
class SimulatedGeoReplica;

struct LedgerDatabaseOptions {
  /// Directory for the WAL and checkpoints; empty = ephemeral (no
  /// durability, used by short-lived tests and benchmarks).
  std::string data_dir;
  /// Logical database id embedded in digests.
  std::string database_id = "sqlledger";
  /// false = plain transactional engine with no ledger machinery at all —
  /// the "traditional SQL Server" baseline of the paper's §4 experiments.
  /// All tables are forced to TableKind::kRegular.
  bool enable_ledger = true;
  /// Transactions per Database Ledger block (paper default: 100K).
  uint64_t block_size = 100000;
  /// fsync the WAL on every commit group.
  bool sync_wal = false;
  /// Lock wait budget before a transaction is aborted (deadlock handling).
  std::chrono::milliseconds lock_timeout{1000};
  /// Injectable clock, microseconds since epoch. Defaults to system clock.
  std::function<int64_t()> clock;
  /// Injectable clock for metrics + trace timing (monotonic microseconds),
  /// DISTINCT from `clock`: instrumentation must never change how often the
  /// commit-timestamp clock is read, or simulated commit timestamps would
  /// shift (the simulator pins both clocks, separately; DESIGN.md §13).
  /// Defaults to steady-clock microseconds.
  MetricsClock metrics_clock;
  /// Key for the receipt/digest HMAC signer (see DESIGN.md §1.3).
  std::vector<uint8_t> signing_key = {'d', 'e', 'v', '-', 'k', 'e', 'y'};
  std::string signing_key_id = "dev-key-1";
  /// Storage environment for all file I/O (WAL, checkpoints, recovery).
  /// nullptr = Env::Default(); tests inject a FaultInjectionEnv here.
  /// Not owned; must outlive the database.
  Env* env = nullptr;
  /// The geographic secondary that digests wait for (paper §3.6); nullptr
  /// = none. GenerateDigest refuses with Busy while the replica lags the
  /// newest commit by more than 1 s (DESIGN.md §9). Not owned; must
  /// outlive the database.
  const SimulatedGeoReplica* geo_replica = nullptr;
};

/// Catalog entry for one table (regular or ledger).
struct CatalogEntry {
  uint32_t table_id = 0;
  std::string name;
  TableKind kind = TableKind::kRegular;
  bool dropped = false;
  std::unique_ptr<TableStore> main;
  std::unique_ptr<TableStore> history;  // updateable ledger tables only
  LedgerTableRef ref;                   // stores + current plan

  /// Points `ref` at the stores and publishes a new plan of the current
  /// definition (table_definition.cc). Runs with the database's
  /// catalog_mu_ held exclusively: GetTableRef copies `ref` under the
  /// shared lock, DML reads it under the table's lock.
  void LinkRef();
  /// The table's current definition, which a schema change starts from.
  TableDefinition Definition() const;
  /// A sys_ledger_* metadata table, made by the bootstrap.
  bool is_system() const { return table_id < kFirstUserTableId; }
};

/// Row of the table-operations system view (paper Figure 6).
struct TableOperationRow {
  std::string table_name;
  uint32_t table_id = 0;
  std::string operation;  // "CREATE" or "DROP"
  uint64_t transaction_id = 0;
};

/// A recorded ledger truncation (paper §5.2), used by the verifier to
/// distinguish truncated references from tampering.
struct TruncationRecord {
  uint64_t truncated_below_block = 0;
  uint64_t min_txn_id = 0;
  uint64_t max_txn_id = 0;
};

class LedgerDatabase {
 public:
  /// Opens (or creates) a database. Runs recovery if `data_dir` holds a
  /// checkpoint and/or WAL: checkpoint load, then replay of each commit
  /// record past it, exactly once, through the paths the statements ran;
  /// replay also re-appends the Database Ledger's transaction entries from
  /// the commit records (paper §3.3.2).
  static Result<std::unique_ptr<LedgerDatabase>> Open(
      LedgerDatabaseOptions options);

  /// Point-in-time restore (paper §3.6): copies the durable state at
  /// `source_dir` into `options.data_dir` and opens it as a NEW incarnation
  /// of the database (fresh create-time tag), so its digests coexist with
  /// the original's in the digest store. `source_dir` must hold a
  /// checkpointed database; it is opened read-only (copied).
  static Result<std::unique_ptr<LedgerDatabase>> Restore(
      const std::string& source_dir, LedgerDatabaseOptions options);

  ~LedgerDatabase();

  LedgerDatabase(const LedgerDatabase&) = delete;
  LedgerDatabase& operator=(const LedgerDatabase&) = delete;

  // ---- DDL ----

  /// Creates a table. `user_schema` holds the application columns with the
  /// primary key set; ledger system columns are appended automatically
  /// (paper §3.1) and a history table is created for updateable ledger
  /// tables. The creation is recorded in the ledger metadata tables.
  Status CreateTable(const std::string& name, const Schema& user_schema,
                     TableKind kind) EXCLUDES(ddl_mu_);
  /// Non-clustered index management (physical schema change, §3.5).
  Status CreateIndex(const std::string& table, const std::string& index_name,
                     const std::vector<std::string>& columns, bool unique)
      EXCLUDES(ddl_mu_);
  Status DropIndex(const std::string& table, const std::string& index_name)
      EXCLUDES(ddl_mu_);

  // Logical schema changes (§3.5; implemented in schema_changes.cc).
  Status AddColumn(const std::string& table, const std::string& column,
                   DataType type, uint32_t max_length = 0) EXCLUDES(ddl_mu_);
  Status DropColumn(const std::string& table, const std::string& column)
      EXCLUDES(ddl_mu_);
  Status DropTable(const std::string& table) EXCLUDES(ddl_mu_);
  Status AlterColumnType(const std::string& table, const std::string& column,
                         DataType new_type) EXCLUDES(ddl_mu_);

  // ---- Transactions ----

  /// Starts a transaction on behalf of `user`. The returned pointer stays
  /// valid until Commit/Abort.
  Result<Transaction*> Begin(const std::string& user = "app");
  /// Commits: forms the ledger transaction entry from the per-table Merkle
  /// roots, assigns its block slot, writes the WAL commit record and
  /// appends to the Database Ledger (paper §3.3.2). After Commit returns,
  /// `txn` is dead whatever the outcome: an active transaction whose commit
  /// fails is aborted here (writes undone, locks released, counted in
  /// commit.aborts_total), so the caller must not Abort it again.
  Status Commit(Transaction* txn);
  void Abort(Transaction* txn);
  Status Savepoint(Transaction* txn, const std::string& name);
  Status RollbackToSavepoint(Transaction* txn, const std::string& name);

  // ---- DML (visible-column rows; locks acquired automatically) ----

  Status Insert(Transaction* txn, const std::string& table,
                const Row& user_row);
  Status Update(Transaction* txn, const std::string& table,
                const Row& user_row);
  Status Delete(Transaction* txn, const std::string& table,
                const KeyTuple& key);
  /// Point lookup returning visible columns.
  Result<Row> Get(Transaction* txn, const std::string& table,
                  const KeyTuple& key);
  /// Full scan returning visible columns in clustered-key order.
  Result<std::vector<Row>> Scan(Transaction* txn, const std::string& table);
  /// First row whose clustered key starts with `prefix` (visible columns);
  /// NotFound when no such row exists.
  Result<Row> SeekFirst(Transaction* txn, const std::string& table,
                        const KeyTuple& prefix);

  // ---- Ledger features ----

  /// Generates a Database Digest (paper §2.2): closes the open block and
  /// returns the JSON-serializable digest of the newest block. The one
  /// digest issuer: with a geo_replica configured, it refuses with Busy
  /// while the replica lags the newest commit by more than 1 s and counts
  /// an alert above 0.5 s (paper §3.6).
  Result<DatabaseDigest> GenerateDigest();

  /// Starts fault-tolerant digest protection (DESIGN.md §9): builds a
  /// DigestUploadPipeline targeting `store` (not owned, must outlive the
  /// database or StopDigestProtection) and, when `interval` is non-zero,
  /// starts its background cadence thread. An empty options.outbox_dir
  /// defaults to "<data_dir>/digest_outbox"; an unset options.env defaults
  /// to the database's Env. Fails if protection is already running or if
  /// the database is ephemeral with no outbox_dir given.
  Status StartDigestProtection(
      DigestStore* store, DigestPipelineOptions pipeline_options = {},
      std::chrono::milliseconds interval = std::chrono::milliseconds::zero());
  /// Stops the cadence thread (if any) and tears down the pipeline. The
  /// durable outbox stays on disk for the next StartDigestProtection.
  void StopDigestProtection();
  /// The running pipeline, or nullptr when protection is not started.
  /// Tests and the simulator drive its synchronous core directly.
  DigestUploadPipeline* digest_pipeline() { return digest_pipeline_.get(); }
  /// Health snapshot. Without a pipeline this reports the honest worst
  /// case: every closed block unprotected, no durable digest ever.
  DigestProtectionStatus GetDigestProtectionStatus() const;
  /// Ledger view of one table (paper §2.1, Figure 2).
  Result<std::vector<LedgerViewRow>> GetLedgerView(const std::string& table);
  /// Table create/drop audit view (paper Figure 6).
  Result<std::vector<TableOperationRow>> GetTableOperationsView();

  // ---- Durability ----

  /// Snapshots every store of a MaintenanceView (the ledger system tables
  /// included) + catalog, and resets the WAL (paper §3.3.2).
  Status Checkpoint();

  /// A view of the current state for a maintenance job (see below).
  MaintenanceView OpenMaintenanceView();

  // ---- Introspection (used by the verifier, receipts, truncation, tests
  // and benchmarks) ----

  /// A copy of the named table's ref, taken under catalog_mu_, so a
  /// concurrent DDL's relink cannot tear it.
  Result<LedgerTableRef> GetTableRef(const std::string& name)
      EXCLUDES(catalog_mu_);
  /// All catalog entries, id-ordered.
  std::vector<CatalogEntry*> AllTables();
  DatabaseLedger* database_ledger() { return ledger_.get(); }
  const Signer& signer() const { return signer_; }
  const LedgerDatabaseOptions& options() const { return options_; }
  const std::string& create_time() const { return create_time_; }
  int64_t NowMicros() const { return options_.clock(); }
  uint64_t committed_txn_count() const;

  // ---- Observability (DESIGN.md §13) ----

  /// The database-wide metric registry, the one stats surface: the WAL,
  /// lock manager and digest pipeline record through pointers resolved
  /// from it at construction time, the verifier through names per run.
  MetricRegistry* metrics() const { return metrics_.get(); }
  /// The bounded in-memory trace ring (Chrome trace-event export).
  Tracer* tracer() const { return tracer_.get(); }
  /// Point-in-time copy of every registered metric.
  sqlledger::MetricsSnapshot MetricsSnapshot() const {
    return metrics_->Snapshot();
  }

  /// Truncation records, newest watermark last (paper §5.2), on a view.
  std::vector<TruncationRecord> GetTruncationRecords();
  /// Appends a truncation record (called by TruncateLedger).
  Status RecordTruncation(const TruncationRecord& record);

  // ---- Incremental verification state (DESIGN.md §11) ----

  /// The cached verifier watermark, if one was loaded at Open or stored by
  /// a successful incremental verification. Empty = verify from scratch.
  std::optional<VerificationState> GetVerificationState() const;
  /// Caches `state` and, for durable databases, persists it next to the
  /// checkpoint (atomic temp+rename). The state must belong to this
  /// database and incarnation.
  Status StoreVerificationState(const VerificationState& state);
  /// Called by the digest pipeline when a digest is acknowledged durable in
  /// the external store; incremental verification anchors to it.
  void NoteDurableDigest(const DatabaseDigest& digest);
  /// Latest digest known durable in the external store, if any.
  std::optional<DatabaseDigest> latest_durable_digest() const;

  /// Direct store access for tamper-simulation in tests/benches (the
  /// storage-level attacker of §2.5.2). Never used by library code paths.
  TableStore* GetStoreForTesting(const std::string& table,
                                 bool history = false);

 private:
  explicit LedgerDatabase(LedgerDatabaseOptions options);
  /// Open; Restore sets `new_incarnation` for a fresh create-time tag.
  static Result<std::unique_ptr<LedgerDatabase>> OpenImpl(
      LedgerDatabaseOptions options, bool new_incarnation);

  /// One committer's seat in the group-commit queue (DESIGN.md §10). The
  /// committer encodes its record's ops behind `header_room` bytes of
  /// headroom before the request is enqueued; the leader writes the kind
  /// byte and the chained header, right-aligned, into that headroom.
  struct CommitRequest {
    Transaction* txn = nullptr;
    int64_t commit_ts_micros = 0;
    WalCommitRecord header;        // the record's header fields, no ops
    std::vector<uint8_t> payload;  // headroom, then the encoded ops
    size_t header_room = 0;
    bool done = false;
    Status result;
  };

  /// Enqueues `req` and blocks until a leader (possibly this thread) has
  /// committed or failed it. Returns the request's individual Status.
  Status CommitThroughGroup(CommitRequest* req);
  /// Leader body: reads the group's contiguous slots from the ledger's
  /// append position, writes each record's header against the WAL's
  /// header chain, batch-appends the records (one fsync), applies the
  /// ledger entries, and fills each member's result. Runs under commit_mu_
  /// only — group_mu_ is released so new committers keep enqueuing while
  /// the fsync is in flight.
  void ProcessGroup(const std::vector<CommitRequest*>& group)
      EXCLUDES(group_mu_);

  /// Makes the Database Ledger's two stores and, with the ledger enabled,
  /// the DatabaseLedger over them; run once, by the constructor.
  void BuildSystemStores();
  Status InitFresh();
  /// Rebuilds the catalog, every store's rows and the Database Ledger's
  /// state from the checkpoint at `path`, in a database not yet loaded.
  Status LoadCheckpoint(const std::string& path);
  /// Replays the WAL tail past the loaded checkpoint, after the rotated
  /// log when the checkpoint is the previous generation.
  Status ReplayWal(bool used_fallback);
  /// Checkpoint body; Checkpoint() wraps it with duration metrics/trace so
  /// recording happens after every lock scope has exited.
  Status CheckpointImpl();
  /// Replays one record of `wal_path`, decoding a commit record against
  /// the file's header chain, and skipping commit records below
  /// `checkpoint_next_txn_id` (already in the loaded checkpoint).
  Status ReplayWalRecord(Slice payload, uint64_t checkpoint_next_txn_id,
                         const std::string& wal_path, WalHeaderChain* chain);
  /// Makes the catalog entry `table_id` match `def`, for every DDL, the
  /// bootstrap, checkpoint load and replay alike, and the only code that
  /// makes an entry (table_definition.cc): creates it if missing, extends
  /// rows with NULLs for new columns, sets names and dropped flags, creates
  /// or drops indexes and raises the id allocators. Corruption for a
  /// definition no DDL makes. The caller holds the table's X lock (or is
  /// recovery).
  Status ApplyTableDefinition(uint32_t table_id, const TableDefinition& def)
      EXCLUDES(catalog_mu_);
  std::vector<uint8_t> EncodeCatalogMeta() const;

  CatalogEntry* FindTable(const std::string& name);
  CatalogEntry* FindTableById(uint32_t table_id);
  CatalogEntry* FindTableByIdLocked(uint32_t table_id)
      REQUIRES_SHARED(catalog_mu_);
  Status AcquireTableLock(Transaction* txn, const CatalogEntry& entry,
                          LockMode mode);
  Status AcquireRowLock(Transaction* txn, const CatalogEntry& entry,
                        const KeyTuple& key, LockMode mode);
  /// Clustered key of `user_row` (visible-column order), for row locking.
  Result<KeyTuple> UserKeyOf(const CatalogEntry& entry, const Row& user_row);
  // Every DDL is one transaction (DESIGN.md §4): it takes ddl_mu_ and
  // checks its preconditions against the schema, BeginDdl takes the
  // table's X lock, the caller builds the definition it means to reach and
  // DefineTable applies and logs it, the caller writes its sys_ledger_*
  // rows, and FinishDdl commits (or aborts on error). The X lock is held
  // until the commit record is durable, so no DML of the new shape reaches
  // the log ahead of it.
  Result<Transaction*> BeginDdl(const CatalogEntry& entry);
  /// Applies `def` and logs the entry's resulting definition.
  Status DefineTable(Transaction* txn, uint32_t table_id,
                     const TableDefinition& def);
  Status FinishDdl(Transaction* txn, Status st);
  /// Records a CREATE/DROP/column metadata operation through the ledger
  /// metadata tables inside `txn` (implemented in schema_changes.cc).
  Status RecordTableMetadata(Transaction* txn, const CatalogEntry& entry);
  Status RecordColumnMetadata(Transaction* txn, uint32_t table_id,
                              const ColumnDef& col);
  /// Through `view`, deletes the history rows retired by transactions in
  /// blocks below `below_block`, then those blocks and entries, and clears
  /// the verifier watermark; idempotent. Run by TruncateLedger after its
  /// audit row commits and by recovery for the newest recorded truncation.
  Status ApplyTruncation(const MaintenanceView& view, uint64_t below_block);
  friend Status TruncateLedger(LedgerDatabase* db, uint64_t below_block,
                               const std::vector<DatabaseDigest>& digests);
  friend class MaintenanceView;

  LedgerDatabaseOptions options_;
  Env* env_ = nullptr;  // resolved from options_.env (never null after ctor)
  std::string create_time_;
  std::string wal_path_;
  std::string checkpoint_path_;
  std::string verification_state_path_;  // empty for ephemeral databases

  // Metrics + tracing (DESIGN.md §13). Declared before every subsystem that
  // records into them (WAL, lock manager, digest pipeline), so they are
  // destroyed last. The m_* pointers below are resolved once in the
  // constructor and never change; recording through them is lock-free.
  std::unique_ptr<MetricRegistry> metrics_;
  std::unique_ptr<Tracer> tracer_;
  Counter* m_commit_txns_ = nullptr;       // commit.txns_total
  Counter* m_commit_aborts_ = nullptr;     // commit.aborts_total
  Counter* m_commit_groups_ = nullptr;     // commit.groups_total
  Counter* m_commit_group_txns_ = nullptr; // commit.group_txns_total
  Histogram* m_commit_group_size_ = nullptr;  // commit.group_size
  Histogram* m_commit_wait_ = nullptr;        // commit.wait_micros
  Histogram* m_checkpoint_micros_ = nullptr;  // checkpoint.duration_micros
  Counter* m_checkpoint_runs_ = nullptr;      // checkpoint.runs_total
  Histogram* m_recovery_micros_ = nullptr;    // recovery.duration_micros
  Histogram* m_recovery_load_micros_ = nullptr;
  // ^ recovery.checkpoint_load_micros
  Histogram* m_recovery_replay_micros_ = nullptr;
  // ^ recovery.wal_replay_micros
  Counter* m_recovery_runs_ = nullptr;        // recovery.runs_total
  // The geo gate's metrics, resolved only with a geo_replica, so that a
  // database without one exports none of them.
  Gauge* m_replica_lag_ = nullptr;         // digest.replica_lag_micros
  Counter* m_geo_alerts_ = nullptr;        // digest.geo_alerts_total
  Counter* m_geo_deferrals_ = nullptr;     // digest.geo_deferrals_total

  // Lock hierarchy (see DESIGN.md §8):
  //   ddl_mu_ -> group_mu_ -> commit_mu_ -> catalog_mu_ -> txn_mu_.
  // Never acquire a lock to the left while holding one to the right. (The
  // group-commit leader in fact releases group_mu_ before taking
  // commit_mu_, so the two are never held together; the ordering exists so
  // the rule stays checkable.)

  // Serializes DDL statements: each holds it from its prechecks, which
  // read the table's schema and index definitions, through its commit, so
  // no other DDL rewrites what it checked (DML reads the schema under
  // table locks instead). A failed precheck thus needs no transaction.
  Mutex ddl_mu_;

  mutable SharedMutex catalog_mu_;
  std::map<uint32_t, std::unique_ptr<CatalogEntry>> catalog_
      GUARDED_BY(catalog_mu_);
  std::map<std::string, uint32_t> name_index_ GUARDED_BY(catalog_mu_);
  uint32_t next_table_id_ GUARDED_BY(catalog_mu_) = kFirstUserTableId;

  // Database-ledger system stores (not in catalog_; internal). Set by the
  // constructor, never replaced.
  std::unique_ptr<TableStore> ledger_txns_store_;
  std::unique_ptr<TableStore> ledger_blocks_store_;
  std::unique_ptr<DatabaseLedger> ledger_;

  // The Wal object itself is set once at Open; commit_mu_ serializes every
  // append/reset against the paired ledger slot assignment, so digests,
  // commits and WAL resets see one consistent order.
  std::unique_ptr<Wal> wal_ PT_GUARDED_BY(commit_mu_);
  // The header of the last commit record appended to wal_'s file, which
  // the next one is encoded against; reset with the file.
  WalHeaderChain wal_chain_ GUARDED_BY(commit_mu_);
  // Whether wal_ was created at Open. Set once before any concurrency,
  // read without commit_mu_ by committers deciding whether to encode.
  bool wal_enabled_ = false;
  Mutex commit_mu_;

  // Group-commit queue (leader–follower; DESIGN.md §10). group_mu_ only
  // protects the queue, leader flag and group counters — it is never held
  // across I/O.
  Mutex group_mu_;
  CondVar group_cv_;
  std::deque<CommitRequest*> commit_queue_ GUARDED_BY(group_mu_);
  bool commit_leader_active_ GUARDED_BY(group_mu_) = false;
  // Group counters live in the registry (commit.groups_total,
  // commit.group_txns_total, commit.group_size) — recorded lock-free by the
  // leader after it releases group_mu_.

  LockManager locks_;
  HmacSigner signer_;

  // Digest protection. Destroyed before ledger_/stores (member order: the
  // destructor resets it explicitly first) since the pipeline calls back
  // into the database.
  std::unique_ptr<DigestUploadPipeline> digest_pipeline_;

  // Transaction registry + the MaintenanceView's quiesce flag.
  mutable Mutex txn_mu_;
  CondVar txn_cv_;
  std::map<uint64_t, std::unique_ptr<Transaction>> active_txns_
      GUARDED_BY(txn_mu_);
  uint64_t next_txn_id_ GUARDED_BY(txn_mu_) = 1;
  bool quiescing_ GUARDED_BY(txn_mu_) = false;
  // committed/aborted counts live in the registry (commit.txns_total,
  // commit.aborts_total).

  // Incremental-verification watermark + counters (DESIGN.md §11).
  // verify_mu_ is a leaf: it is never held while acquiring any other lock,
  // and may be taken from the digest pipeline's ack path (NoteDurableDigest)
  // and from the verifier.
  mutable Mutex verify_mu_;
  std::optional<VerificationState> verification_state_ GUARDED_BY(verify_mu_);
  std::optional<DatabaseDigest> latest_durable_digest_ GUARDED_BY(verify_mu_);
  // Incremental-verification counters live in the registry
  // (verify.incremental_total, verify.fallbacks_total, verify.*_total).
};

/// The one consistent state that checkpoint, verification and truncation
/// read (paper §3.4, §5.2): it drains active transactions and Begin waits
/// while it lives, so its holder is the only writer and may scan its stores
/// unlatched (DESIGN.md §8). Opening one while holding one, or an active
/// transaction, waits forever.
class MaintenanceView {
 public:
  ~MaintenanceView();
  MaintenanceView(const MaintenanceView&) = delete;
  MaintenanceView& operator=(const MaintenanceView&) = delete;
  LedgerDatabase* db() const { return db_; }
  /// Every catalog entry, id-ordered, dropped and system tables included.
  const std::vector<CatalogEntry*>& tables() const { return tables_; }
  /// The Database Ledger's two stores, then each entry's main and history.
  std::vector<TableStore*> stores() const;
  /// The recorded truncations, newest watermark last (paper §5.2).
  std::vector<TruncationRecord> truncations() const;

 private:
  friend class LedgerDatabase;
  explicit MaintenanceView(LedgerDatabase* db);
  LedgerDatabase* const db_;
  std::vector<CatalogEntry*> tables_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_LEDGER_DATABASE_H_

#include "ledger/ledger_database.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <set>

#include "catalog/row.h"
#include "ledger/geo_replication.h"
#include "ledger/row_serializer.h"
#include "storage/checkpoint.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
// Retired WAL commit record kinds (wal.h has the live ones), refused in a
// log with what each held.
constexpr const char* kWalRetiredCommitKinds[] = {
    nullptr,
    "history rows and table roots logged whole",     // 1
    nullptr,                                         // 2: a block close
    "stamped row images without predecessors",       // 3
    "repeat bitmaps, changed cells logged whole",    // 4
    "headers logged whole, a type and table per op", // 5
    "every DOUBLE logged as 8 raw bytes"             // 6
};

// Events kept by the database's trace ring before the oldest is overwritten
// (DESIGN.md §13).
constexpr size_t kTraceCapacity = 4096;

// The §3.6 geo gate: how far the geographic secondary may lag the newest
// commit before GenerateDigest refuses (the paper's normal delay is below
// one second), and before the digest it issues counts an alert.
constexpr int64_t kGeoDeferLagMicros = 1000 * 1000;
constexpr int64_t kGeoAlertLagMicros = 500 * 1000;

int64_t SystemClockMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Schema MakeSysTablesSchema() {
  Schema s;
  s.AddColumn("table_name", DataType::kVarchar, /*nullable=*/false);
  s.AddColumn("table_id", DataType::kBigInt, false);
  s.AddColumn("kind", DataType::kVarchar, false);
  s.SetPrimaryKey({1});
  return s;
}

Schema MakeSysColumnsSchema() {
  Schema s;
  s.AddColumn("table_id", DataType::kBigInt, false);
  s.AddColumn("column_id", DataType::kBigInt, false);
  s.AddColumn("column_name", DataType::kVarchar, false);
  s.AddColumn("data_type", DataType::kVarchar, false);
  s.SetPrimaryKey({0, 1});
  return s;
}

Schema MakeSysTruncationsSchema() {
  Schema s;
  s.AddColumn("truncated_below_block", DataType::kBigInt, false);
  s.AddColumn("min_txn_id", DataType::kBigInt, false);
  s.AddColumn("max_txn_id", DataType::kBigInt, false);
  s.AddColumn("truncated_at", DataType::kTimestamp, false);
  s.SetPrimaryKey({0});
  return s;
}

// The definition of a new table: the user schema with the ledger's hidden
// columns and, for an updateable ledger table, a history store `history_id`.
TableDefinition NewTableDefinition(const std::string& name,
                                   const Schema& user_schema, TableKind kind,
                                   uint32_t history_id) {
  TableDefinition def;
  def.kind = static_cast<uint8_t>(kind);
  def.main = {name, MakeLedgerSchema(user_schema, kind), {}};
  if (kind == TableKind::kUpdateable) {
    def.history_table_id = history_id;
    def.history = {name + "_history", MakeHistorySchema(def.main.schema), {}};
  }
  return def;
}
}  // namespace

LedgerDatabase::LedgerDatabase(LedgerDatabaseOptions options)
    : options_(std::move(options)),
      locks_(options_.lock_timeout),
      signer_(options_.signing_key_id, options_.signing_key) {
  if (!options_.clock) options_.clock = SystemClockMicros;
  env_ = options_.env != nullptr ? options_.env : Env::Default();

  // Observability (DESIGN.md §13): one registry + trace ring per database.
  // Every metric the database itself records is resolved here, once;
  // subsystems with their own instrumentation (WAL, lock manager, digest
  // pipeline, verifier) resolve theirs from metrics() at their own setup.
  metrics_ = std::make_unique<MetricRegistry>(options_.metrics_clock);
  tracer_ = std::make_unique<Tracer>(metrics_.get(), kTraceCapacity);
  m_commit_txns_ = metrics_->GetCounter("commit.txns_total");
  m_commit_aborts_ = metrics_->GetCounter("commit.aborts_total");
  m_commit_groups_ = metrics_->GetCounter("commit.groups_total");
  m_commit_group_txns_ = metrics_->GetCounter("commit.group_txns_total");
  m_commit_group_size_ = metrics_->GetHistogram("commit.group_size");
  m_commit_wait_ = metrics_->GetHistogram("commit.wait_micros");
  m_checkpoint_micros_ = metrics_->GetHistogram("checkpoint.duration_micros");
  m_checkpoint_runs_ = metrics_->GetCounter("checkpoint.runs_total");
  m_recovery_micros_ = metrics_->GetHistogram("recovery.duration_micros");
  m_recovery_load_micros_ =
      metrics_->GetHistogram("recovery.checkpoint_load_micros");
  m_recovery_replay_micros_ =
      metrics_->GetHistogram("recovery.wal_replay_micros");
  m_recovery_runs_ = metrics_->GetCounter("recovery.runs_total");
  m_verify_incremental_runs_ = metrics_->GetCounter("verify.incremental_total");
  m_verify_fallbacks_ = metrics_->GetCounter("verify.fallbacks_total");
  m_blocks_reverified_ = metrics_->GetCounter("verify.blocks_reverified_total");
  m_blocks_skipped_ = metrics_->GetCounter("verify.blocks_skipped_total");
  m_row_versions_skipped_ =
      metrics_->GetCounter("verify.row_versions_skipped_total");
  if (options_.geo_replica != nullptr) {
    m_replica_lag_ = metrics_->GetGauge("digest.replica_lag_micros");
    m_geo_alerts_ = metrics_->GetCounter("digest.geo_alerts_total");
    m_geo_deferrals_ = metrics_->GetCounter("digest.geo_deferrals_total");
  }
  locks_.SetMetrics(metrics_.get());
  if (!options_.data_dir.empty()) {
    checkpoint_path_ = options_.data_dir + "/checkpoint.sldb";
    wal_path_ = options_.data_dir + "/wal.log";
    verification_state_path_ = options_.data_dir + "/verify_state.sldb";
  }
  BuildSystemStores();
}

LedgerDatabase::~LedgerDatabase() {
  // The pipeline's cadence thread calls back into this database; stop it
  // before any member it touches is destroyed.
  StopDigestProtection();
}

Result<std::unique_ptr<LedgerDatabase>> LedgerDatabase::Open(
    LedgerDatabaseOptions options) {
  return OpenImpl(std::move(options), /*new_incarnation=*/false);
}

Result<std::unique_ptr<LedgerDatabase>> LedgerDatabase::OpenImpl(
    LedgerDatabaseOptions options, bool new_incarnation) {
  std::unique_ptr<LedgerDatabase> db(new LedgerDatabase(std::move(options)));

  if (db->options_.data_dir.empty()) {
    SL_RETURN_IF_ERROR(db->InitFresh());
    return db;
  }

  Env* env = db->env_;
  Status mkdir_st = env->CreateDirs(db->options_.data_dir);
  if (!mkdir_st.ok())
    return Status::IOError("cannot create data dir: " + mkdir_st.message());

  // A crash between the two checkpoint renames can leave only the ".prev"
  // generation on disk — that is still an existing database, not a fresh one.
  const bool existing = env->FileExists(db->checkpoint_path_) ||
                        env->FileExists(db->checkpoint_path_ + ".prev");
  if (existing) {
    const int64_t recover_start = db->metrics_->NowMicros();
    // If the newest checkpoint is missing, torn or fails to load, a fresh
    // database object, holding nothing of that load, loads the previous
    // generation. A retired format (NotSupported) is not torn: it is
    // refused, because the WAL beside it is in that format too.
    Status st = db->LoadCheckpoint(db->checkpoint_path_);
    const bool used_fallback = st.IsNotFound() || st.IsCorruption();
    if (used_fallback) {
      db.reset(new LedgerDatabase(db->options_));
      st = db->LoadCheckpoint(db->checkpoint_path_ + ".prev");
      if (st.IsNotFound() || st.IsCorruption())
        return Status::Corruption(
            "cannot load checkpoint (newest is missing/torn and no usable "
            "previous generation): " +
            st.message());
    }
    SL_RETURN_IF_ERROR(st);
    const int64_t replay_start = db->metrics_->NowMicros();
    SL_RETURN_IF_ERROR(db->ReplayWal(used_fallback));
    // A truncation is durable through its logged audit row. The newest
    // (largest cutoff) covers the older ones; it finds nothing to delete
    // when the checkpoint already holds its deletes.
    auto truncations = db->GetTruncationRecords();
    if (!truncations.empty())
      SL_RETURN_IF_ERROR(
          db->ApplyTruncation(truncations.back().truncated_below_block));
    if (new_incarnation)
      db->create_time_ = std::to_string(db->options_.clock());
    const int64_t recover_end = db->metrics_->NowMicros();
    auto micros = [](int64_t from, int64_t to) {
      return static_cast<uint64_t>(std::max<int64_t>(0, to - from));
    };
    db->m_recovery_load_micros_->Record(micros(recover_start, replay_start));
    db->m_recovery_replay_micros_->Record(micros(replay_start, recover_end));
    db->m_recovery_micros_->Record(micros(recover_start, recover_end));
    db->m_recovery_runs_->Add();
  } else {
    SL_RETURN_IF_ERROR(db->InitFresh());
  }
  auto wal =
      Wal::Open(db->wal_path_, {.sync = db->options_.sync_wal, .env = env});
  if (!wal.ok()) return wal.status();
  db->wal_ = std::move(*wal);
  db->wal_->SetMetrics(db->metrics_.get());
  db->wal_enabled_ = true;
  // First checkpoint, so recovery never sees a WAL without a catalog.
  if (!existing) SL_RETURN_IF_ERROR(db->Checkpoint());

  // Load the verifier watermark if a trustworthy one exists. Missing, torn
  // or stale (other database / other incarnation) state is not an error —
  // it only means the next incremental verification starts from scratch.
  auto vstate = VerificationState::Load(env, db->verification_state_path_);
  if (vstate.ok() && vstate->database_id == db->options_.database_id &&
      vstate->database_create_time == db->create_time_) {
    MutexLock lock(&db->verify_mu_);
    db->verification_state_ = std::move(*vstate);
  }
  return db;
}

Result<std::unique_ptr<LedgerDatabase>> LedgerDatabase::Restore(
    const std::string& source_dir, LedgerDatabaseOptions options) {
  if (options.data_dir.empty())
    return Status::InvalidArgument("Restore requires a target data_dir");
  if (options.data_dir == source_dir)
    return Status::InvalidArgument("restore target must differ from source");
  // All restore I/O goes through Env so FaultInjectionEnv covers the copy:
  // a crash mid-restore must leave either no target or a fully durable one.
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (!env->FileExists(source_dir + "/checkpoint.sldb"))
    return Status::NotFound("no checkpoint in source directory " + source_dir);
  SL_RETURN_IF_ERROR(RemoveDirRecursive(env, options.data_dir));
  SL_RETURN_IF_ERROR(env->CreateDirs(options.data_dir));
  SL_RETURN_IF_ERROR(CopyDirRecursive(env, source_dir, options.data_dir));
  return OpenImpl(std::move(options), /*new_incarnation=*/true);
}

Status LedgerDatabase::InitFresh() {
  create_time_ = std::to_string(options_.clock());
  if (!options_.enable_ledger) return Status::OK();

  // Bootstrap the ledger metadata system tables (paper §3.5.2, Figure 6)
  // through the apply path and record their own metadata through the
  // ledger, so even the bootstrap is auditable.
  auto txn = Begin("system");
  if (!txn.ok()) return txn.status();
  Status st;
  auto make_sys = [&](uint32_t id, uint32_t history_id,
                      const std::string& name, const Schema& user_schema,
                      TableKind kind) {
    if (st.ok())
      st = ApplyTableDefinition(
          id, NewTableDefinition(name, user_schema, kind, history_id));
    if (st.ok()) st = RecordTableMetadata(*txn, *FindTableById(id));
  };
  make_sys(kSysTablesTableId, kSysTablesHistoryTableId, "sys_ledger_tables",
           MakeSysTablesSchema(), TableKind::kUpdateable);
  make_sys(kSysColumnsTableId, kSysColumnsHistoryTableId,
           "sys_ledger_columns", MakeSysColumnsSchema(),
           TableKind::kUpdateable);
  make_sys(kSysTruncationsTableId, 0, "sys_ledger_truncations",
           MakeSysTruncationsSchema(), TableKind::kAppendOnly);
  return FinishDdl(*txn, st);
}

std::vector<uint8_t> LedgerDatabase::EncodeCatalogMeta() const {
  ReaderMutexLock catalog_lock(&catalog_mu_);
  std::vector<uint8_t> out;
  PutLengthPrefixed(&out, Slice(create_time_));
  PutVarint32(&out, next_table_id_);
  {
    MutexLock txn_lock(&txn_mu_);
    PutVarint64(&out, next_txn_id_);
  }
  PutVarint64(&out, m_commit_txns_->value());
  out.push_back(options_.enable_ledger ? 1 : 0);
  PutVarint32(&out, static_cast<uint32_t>(catalog_.size()));
  for (const auto& [id, entry] : catalog_) {
    PutVarint32(&out, id);
    entry->Definition().EncodeTo(&out);
  }
  return out;
}

Status LedgerDatabase::LoadCheckpoint(const std::string& path) {
  auto checkpoint = ReadCheckpoint(path, env_);
  if (!checkpoint.ok()) return checkpoint.status();
  Decoder dec{Slice(checkpoint->meta)};
  auto create_time = dec.GetLengthPrefixed();
  if (!create_time.ok()) return create_time.status();
  create_time_ = create_time->ToString();
  auto next_table = dec.GetVarint32();
  if (!next_table.ok()) return next_table.status();
  auto next_txn = dec.GetVarint64();
  if (!next_txn.ok()) return next_txn.status();
  auto committed = dec.GetVarint64();
  if (!committed.ok()) return committed.status();
  auto ledger_enabled = dec.GetBytes(1);
  if (!ledger_enabled.ok()) return ledger_enabled.status();
  if (((*ledger_enabled)[0] != 0) != options_.enable_ledger)
    return Status::InvalidArgument(
        "enable_ledger option does not match on-disk database");
  // Recovery is single-threaded: the locks satisfy the guarded-member
  // contracts, and the registry's commit counter, still zero, is seeded
  // with the checkpointed lifetime count.
  {
    WriterMutexLock catalog_lock(&catalog_mu_);
    next_table_id_ = *next_table;
  }
  {
    MutexLock txn_lock(&txn_mu_);
    next_txn_id_ = *next_txn;
  }
  m_commit_txns_->Add(*committed);
  auto num_entries = dec.GetVarint32();
  if (!num_entries.ok()) return num_entries.status();
  for (uint32_t i = 0; i < *num_entries; i++) {
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    auto def = TableDefinition::Decode(&dec);
    if (!def.ok()) return def.status();
    SL_RETURN_IF_ERROR(ApplyTableDefinition(*table_id, *def));
  }
  if (!dec.done()) return Status::Corruption("trailing bytes in catalog meta");
  // Rows load into the system stores and into those the definitions made.
  std::map<uint32_t, TableStore*> stores = {
      {kLedgerTransactionsTableId, ledger_txns_store_.get()},
      {kLedgerBlocksTableId, ledger_blocks_store_.get()}};
  for (CatalogEntry* entry : AllTables()) {
    for (TableStore* store : {entry->main.get(), entry->history.get()})
      if (store != nullptr) stores[store->table_id()] = store;
  }
  SL_RETURN_IF_ERROR(LoadCheckpointStores(*checkpoint, stores));
  return ledger_ != nullptr ? ledger_->LoadFromTables() : Status::OK();
}

Status LedgerDatabase::ReplayWal(bool used_fallback) {
  // A checkpoint quiesces, so every transaction whose id is below its
  // next_txn_id had finished and is already in it. Commit records of those
  // transactions are skipped: a crash between the checkpoint's rename and
  // the WAL rotation's directory sync leaves the new checkpoint beside the
  // log it superseded, and re-applying those records would replay row
  // images of an older shape and count the transactions twice.
  uint64_t checkpoint_next_txn_id = 0;
  {
    MutexLock txn_lock(&txn_mu_);
    checkpoint_next_txn_id = next_txn_id_;
  }
  // Replay the WAL tail: redo each commit record's operations once and
  // re-append the Database Ledger's transaction entries from the commit
  // records (the Analysis phase of paper §3.3.2). The fallback to the
  // previous generation first replays the rotated WAL ("wal.log.prev",
  // which spans previous-checkpoint -> newest-checkpoint), so either path
  // reconstructs the same state.
  // Each file's commit record headers form chains of their own.
  auto replay = [&](const std::string& path) {
    WalHeaderChain chain;
    return ReadFrameLog(env_, path, [&](Slice payload) {
      return ReplayWalRecord(payload, checkpoint_next_txn_id, path, &chain);
    });
  };
  if (used_fallback) {
    auto prev = replay(wal_path_ + ".prev");
    if (!prev.ok()) return prev.status();
  }
  auto scan = replay(wal_path_);
  if (!scan.ok()) return scan.status();
  // Chop off any torn tail NOW: the WAL is reopened for append, and a
  // record written after un-replayable garbage would be unreachable to
  // every future replay (it sits past the point where replay stops).
  if (scan->has_tail)
    SL_RETURN_IF_ERROR(env_->TruncateFile(wal_path_, scan->intact_bytes));
  return Status::OK();
}

namespace {
// Redoes one row op as its statement did: an insert or update pads the
// logged user row with PadVersion, stamping a ledger version with
// (txn_id, its sequence), and on a ledger table an update or delete
// retires the current version through RetireVersion; each version's leaf
// hash reaches `merkle`. `next_seq` is the record's running sequence
// counter (WalOp), which a ledger op advances past the numbers it takes.
Status ReplayRowOp(const LedgerTableRef& t, const WalOp& op, uint64_t txn_id,
                   uint64_t* next_seq, MerkleBuilder* merkle) {
  const bool ledger = t.kind != TableKind::kRegular;
  if (op.type == (ledger ? WalOpType::kDelete : WalOpType::kLedgerDelete))
    return Status::Corruption(ledger ? "plain delete on a ledger table"
                                     : "ledger delete on a regular table");
  if (!ledger && op.seq_gap != 0)
    return Status::Corruption("sequence gap on a regular table");
  const bool update = op.type == WalOpType::kUpdate;
  // The statement's first sequence number; an update takes two.
  const uint64_t first = *next_seq + op.seq_gap;
  if (ledger) *next_seq = first + (update ? 2 : 1);
  if (ledger && op.type != WalOpType::kInsert && t.history == nullptr)
    return Status::Corruption("retires a row of an append-only table");

  if (op.type == WalOpType::kDelete || op.type == WalOpType::kLedgerDelete) {
    if (ledger) {
      auto current = t.main->GetCopy(op.key);
      if (!current.has_value())
        return Status::Corruption("retires a missing row");
      auto retired = RetireVersion(t, *current, txn_id, first, merkle);
      if (!retired.ok()) return retired.status();
    }
    return t.main->Delete(op.key);
  }

  const uint64_t seq = update ? first + 1 : first;
  auto full = PadVersion(t, op.new_row, txn_id, seq);
  if (!full.ok()) return full.status();
  if (ledger && update) {
    auto current = t.main->GetCopy(t.main->KeyOf(*full));
    if (!current.has_value())
      return Status::Corruption("retires a missing row");
    auto retired =
        RetireVersion(t, *current, txn_id, UpdateRetireSeq(seq), merkle);
    if (!retired.ok()) return retired.status();
  }
  Hash256 leaf;
  if (ledger)
    leaf = RowVersionLeafHash(t.main->schema(), *full, RowOp::kInsert,
                              t.table_id, txn_id, seq);
  if (update) {
    SL_RETURN_IF_ERROR(t.main->Update(*full));
  } else {
    SL_RETURN_IF_ERROR(t.main->Insert(std::move(*full)));
  }
  if (ledger) merkle->AddLeafHash(leaf);
  return Status::OK();
}
}  // namespace

Status LedgerDatabase::ReplayWalRecord(Slice payload,
                                       uint64_t checkpoint_next_txn_id,
                                       const std::string& wal_path,
                                       WalHeaderChain* chain) {
  if (payload.empty()) return Status::Corruption("empty WAL record");
  uint8_t kind = payload[0];
  Slice body(payload.data() + 1, payload.size() - 1);

  if (kind == kWalKindBlockClose) {
    Decoder dec(body);
    auto block_id = dec.GetVarint64();
    if (!block_id.ok()) return block_id.status();
    if (ledger_ != nullptr) return ledger_->RecoverBlockClose(*block_id);
    return Status::OK();
  }
  // Refused like a retired checkpoint format: the error reaches Open before
  // the log is truncated, so no file changes.
  const char* retired = kind < std::size(kWalRetiredCommitKinds)
                            ? kWalRetiredCommitKinds[kind]
                            : nullptr;
  if (retired != nullptr)
    return Status::NotSupported(
        "WAL " + wal_path + " has commit records of kind " +
        std::to_string(kind) + " (" + retired +
        "), which this build no longer reads; it reads only kind " +
        std::to_string(kWalKindCommit));
  if (kind != kWalKindCommit)
    return Status::Corruption("unknown WAL record kind");

  // Decoded even when skipped: the next record's header chains from it.
  auto record = WalCommitRecord::Decode(body, chain);
  if (!record.ok()) return record.status();
  if (record->txn_id < checkpoint_next_txn_id) return Status::OK();

  // Redo operations in log order through the paths the statements ran; a
  // definition precedes the row ops that depend on it. Each record is
  // applied once, so an op the store refuses (a duplicate or missing row)
  // is Corruption.
  std::map<uint32_t, MerkleBuilder> merkle;  // ledger table id -> versions
  uint64_t next_seq = 0;
  for (const WalOp& op : record->ops) {
    if (op.type == WalOpType::kDefineTable) {
      SL_RETURN_IF_ERROR(ApplyTableDefinition(op.table_id, *op.definition));
      continue;
    }
    // No op names a history store: replay derives history rows.
    CatalogEntry* entry = FindTableById(op.table_id);
    if (entry == nullptr)
      return Status::Corruption("WAL references unknown table id " +
                                std::to_string(op.table_id));
    Status st = ReplayRowOp(
        entry->ref, op, record->txn_id, &next_seq,
        entry->kind == TableKind::kRegular ? nullptr : &merkle[op.table_id]);
    if (!st.ok())
      return Status::Corruption("WAL replay of txn " +
                                std::to_string(record->txn_id) +
                                " on table id " + std::to_string(op.table_id) +
                                ": " + st.message());
  }

  // The rebuilt roots must be the ones the commit computed: a mismatch is a
  // replay bug or a row image altered on disk.
  std::vector<std::pair<uint32_t, Hash256>> roots;
  roots.reserve(merkle.size());
  for (const auto& [table_id, builder] : merkle)
    roots.emplace_back(table_id, builder.Root());
  if (roots.size() != record->ledger_tables ||
      (!roots.empty() &&
       WalCommitRecord::RootsCheck(roots) != record->roots_check))
    return Status::Corruption("WAL replay: the table roots rebuilt for txn " +
                              std::to_string(record->txn_id) +
                              " do not match its commit record");
  if (ledger_ != nullptr) {
    TransactionEntry entry;
    entry.txn_id = record->txn_id;
    entry.block_id = record->block_id;
    entry.block_ordinal = record->block_ordinal;
    entry.commit_ts_micros = record->commit_ts_micros;
    entry.user_name = record->user_name;
    entry.table_roots = std::move(roots);
    SL_RETURN_IF_ERROR(ledger_->Append(std::move(entry)));
  }
  m_commit_txns_->Add();
  MutexLock txn_lock(&txn_mu_);
  if (record->txn_id >= next_txn_id_) next_txn_id_ = record->txn_id + 1;
  return Status::OK();
}

// ---- Catalog helpers ----

CatalogEntry* LedgerDatabase::FindTable(const std::string& name) {
  ReaderMutexLock lock(&catalog_mu_);
  auto it = name_index_.find(name);
  if (it == name_index_.end()) return nullptr;
  auto entry = catalog_.find(it->second);
  return entry == catalog_.end() ? nullptr : entry->second.get();
}

CatalogEntry* LedgerDatabase::FindTableByIdLocked(uint32_t table_id) {
  auto it = catalog_.find(table_id);
  return it == catalog_.end() ? nullptr : it->second.get();
}

CatalogEntry* LedgerDatabase::FindTableById(uint32_t table_id) {
  ReaderMutexLock lock(&catalog_mu_);
  return FindTableByIdLocked(table_id);
}

Result<LedgerTableRef> LedgerDatabase::GetTableRef(const std::string& name) {
  // A DDL relinks the ref under the writer lock (ApplyTableDefinition).
  ReaderMutexLock lock(&catalog_mu_);
  auto it = name_index_.find(name);
  CatalogEntry* entry =
      it == name_index_.end() ? nullptr : FindTableByIdLocked(it->second);
  if (entry == nullptr) return Status::NotFound("table '" + name + "' not found");
  return entry->ref;
}

std::vector<CatalogEntry*> LedgerDatabase::AllTables() {
  ReaderMutexLock lock(&catalog_mu_);
  std::vector<CatalogEntry*> out;
  out.reserve(catalog_.size());
  for (auto& [id, entry] : catalog_) out.push_back(entry.get());
  return out;
}

TableStore* LedgerDatabase::GetStoreForTesting(const std::string& table,
                                               bool history) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return nullptr;
  return history ? entry->history.get() : entry->main.get();
}

// ---- DDL ----

Result<Transaction*> LedgerDatabase::BeginDdl(const CatalogEntry& entry) {
  auto txn = Begin("system:ddl");
  if (!txn.ok()) return txn.status();
  Status st = AcquireTableLock(*txn, entry, LockMode::kExclusive);
  if (!st.ok()) {
    Abort(*txn);
    return st;
  }
  return *txn;
}

Status LedgerDatabase::FinishDdl(Transaction* txn, Status st) {
  if (st.ok()) return Commit(txn);
  Abort(txn);
  return st;
}

Status LedgerDatabase::CreateTable(const std::string& name,
                                   const Schema& user_schema, TableKind kind) {
  MutexLock ddl_lock(&ddl_mu_);
  if (name.empty()) return Status::InvalidArgument("empty table name");
  if (FindTable(name) != nullptr)
    return Status::AlreadyExists("table '" + name + "' already exists");
  if (!user_schema.HasPrimaryKey())
    return Status::InvalidArgument("table requires a primary key");
  if (!options_.enable_ledger) kind = TableKind::kRegular;
  for (const char* stamp : {kColStartTxn, kColStartSeq, kColEndTxn, kColEndSeq})
    if (kind != TableKind::kRegular && user_schema.FindColumn(stamp) >= 0)
      return Status::InvalidArgument(std::string(stamp) + " is a ledger column");

  uint32_t table_id = 0;
  {
    // Allocate table ids under the writer lock, so two concurrent
    // CreateTable calls cannot race the next_table_id_ counter.
    WriterMutexLock lock(&catalog_mu_);
    table_id = next_table_id_++;
    if (kind == TableKind::kUpdateable) next_table_id_++;
  }
  // The new id is locked before the apply publishes the name, so no DML on
  // the table can reach the log ahead of its definition. Nobody else knows
  // the id yet: the lock is granted at once.
  auto txn = Begin("system:ddl");
  if (!txn.ok()) return txn.status();
  Status st = locks_.AcquireTable((*txn)->id(), table_id, LockMode::kExclusive);
  if (st.ok())
    st = DefineTable(*txn, table_id,
                     NewTableDefinition(name, user_schema, kind, table_id + 1));
  if (st.ok()) st = RecordTableMetadata(*txn, *FindTableById(table_id));
  for (const ColumnDef& col : user_schema.columns()) {
    if (!st.ok()) break;
    if (!col.hidden) st = RecordColumnMetadata(*txn, table_id, col);
  }
  return FinishDdl(*txn, st);
}

Status LedgerDatabase::CreateIndex(const std::string& table,
                                   const std::string& index_name,
                                   const std::vector<std::string>& columns,
                                   bool unique) {
  MutexLock ddl_lock(&ddl_mu_);
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  std::vector<size_t> ordinals;
  for (const std::string& col : columns) {
    int ord = entry->main->schema().FindColumn(col);
    if (ord < 0)
      return Status::NotFound("column '" + col + "' not found in '" + table +
                              "'");
    ordinals.push_back(static_cast<size_t>(ord));
  }
  auto txn = BeginDdl(*entry);
  if (!txn.ok()) return txn.status();
  if (entry->main->FindIndex(index_name) != nullptr)
    return FinishDdl(*txn, Status::AlreadyExists("index '" + index_name +
                                                 "' already exists"));
  TableDefinition def = entry->Definition();
  def.main.indexes.push_back({index_name, ordinals, unique});
  // Mirror the index on the history table so historical queries are
  // equally served; invariant 5 verifies both.
  if (entry->history != nullptr)
    def.history.indexes.push_back({index_name, ordinals, /*unique=*/false});
  return FinishDdl(*txn, DefineTable(*txn, entry->table_id, def));
}

Status LedgerDatabase::DropIndex(const std::string& table,
                                 const std::string& index_name) {
  MutexLock ddl_lock(&ddl_mu_);
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  auto txn = BeginDdl(*entry);
  if (!txn.ok()) return txn.status();
  TableDefinition def = entry->Definition();
  auto named = [&](const IndexDef& idx) { return idx.name == index_name; };
  if (std::erase_if(def.main.indexes, named) == 0)
    return FinishDdl(*txn, Status::NotFound("index '" + index_name +
                                            "' not found"));
  std::erase_if(def.history.indexes, named);
  return FinishDdl(*txn, DefineTable(*txn, entry->table_id, def));
}

// ---- Transactions ----

Result<Transaction*> LedgerDatabase::Begin(const std::string& user) {
  MutexLock lock(&txn_mu_);
  while (quiescing_) txn_cv_.Wait(&txn_mu_);
  uint64_t id = next_txn_id_++;
  auto txn = std::make_unique<Transaction>(id, user);
  Transaction* raw = txn.get();
  active_txns_[id] = std::move(txn);
  return raw;
}

Status LedgerDatabase::Commit(Transaction* txn) {
  if (txn == nullptr || !txn->active())
    return Status::InvalidArgument("transaction not active");

  if (!txn->ops().empty()) {
    // All per-transaction CPU work runs before joining the commit group,
    // outside every lock: the SHA-heavy Merkle root computation and the
    // WAL record encoding, straight from the transaction's ops. Concurrent
    // committers do this in parallel; the group leader's critical section
    // is left with ordering + one batched append.
    txn->FinalizeForCommit();
    CommitRequest req;
    req.txn = txn;
    req.commit_ts_micros = options_.clock();
    if (wal_enabled_) {
      // The header is chained to the record before it in the log, so the
      // leader writes it (ProcessGroup), with the slot, into the headroom
      // left for it here: the kind byte and the header at their widest.
      WalCommitRecord& header = req.header;
      header.txn_id = txn->id();
      header.commit_ts_micros = req.commit_ts_micros;
      header.user_name = txn->user_name();
      header.SetTableRoots(txn->TableRoots());
      req.header_room = 1 + header.HeaderBytesBound();
      req.payload.reserve(req.header_room +
                          WalCommitRecord::EncodedOpsBound(txn->ops()));
      req.payload.resize(req.header_room);
      WalCommitRecord::EncodeOps(txn->ops(), &req.payload);
    }
    Status st = CommitThroughGroup(&req);
    if (!st.ok()) {
      Abort(txn);
      return st;
    }
  }

  txn->MarkCommitted();
  locks_.ReleaseAll(txn->id());
  m_commit_txns_->Add();
  {
    MutexLock lock(&txn_mu_);
    active_txns_.erase(txn->id());
    txn_cv_.SignalAll();
  }
  return Status::OK();
}

Status LedgerDatabase::CommitThroughGroup(CommitRequest* req) {
  // commit.wait_micros covers the whole group-commit interaction: queueing,
  // waiting for a leader (or leading), the group's WAL fsync, and wakeup.
  const int64_t wait_start = metrics_->NowMicros();
  group_mu_.Lock();
  commit_queue_.push_back(req);

  // Follower until proven leader: the oldest undrained request whose
  // thread finds no active leader takes leadership of the queue. Everyone
  // else sleeps until a leader marks their request done. front() is only
  // evaluated when no leader is active, in which case this request is
  // still queued (a leader drains requests only after setting
  // commit_leader_active_, and marks them done before clearing it).
  while (!req->done &&
         (commit_leader_active_ || commit_queue_.front() != req))
    group_cv_.Wait(&group_mu_);
  if (req->done) {
    Status result = req->result;
    group_mu_.Unlock();
    m_commit_wait_->Record(static_cast<uint64_t>(
        std::max<int64_t>(0, metrics_->NowMicros() - wait_start)));
    return result;
  }

  // Leader: seal everything queued so far as one group. Each committer has
  // one request outstanding, so a group never exceeds the session count.
  commit_leader_active_ = true;
  std::vector<CommitRequest*> group(commit_queue_.begin(),
                                    commit_queue_.end());
  commit_queue_.clear();
  group_mu_.Unlock();

  // I/O outside group_mu_: later committers keep enqueuing (and will form
  // the next group) while this group's fsync is in flight.
  const int64_t process_start = metrics_->NowMicros();
  ProcessGroup(group);
  const int64_t process_end = metrics_->NowMicros();

  group_mu_.Lock();
  for (CommitRequest* r : group) r->done = true;
  commit_leader_active_ = false;
  group_cv_.SignalAll();
  Status result = req->result;
  group_mu_.Unlock();

  // Leader-side accounting, outside every lock (atomics + the tracer's own
  // leaf mutex). The group counters used to live under group_mu_; the
  // registry is now the single accounting of truth.
  m_commit_groups_->Add();
  m_commit_group_txns_->Add(group.size());
  m_commit_group_size_->Record(group.size());
  m_commit_wait_->Record(static_cast<uint64_t>(
      std::max<int64_t>(0, metrics_->NowMicros() - wait_start)));
  tracer_->RecordComplete("commit.group", "commit", process_start,
                          process_end - process_start);
  return result;
}

void LedgerDatabase::ProcessGroup(const std::vector<CommitRequest*>& group) {
  MutexLock commit_lock(&commit_mu_);

  // commit_mu_ keeps every other append and block close out until this
  // group's Appends below, so its slots follow the append position.
  std::vector<std::pair<uint64_t, uint64_t>> slots;
  if (ledger_ != nullptr) slots = ledger_->NextSlots(group.size());

  if (wal_ != nullptr) {
    // Each header is encoded against the one before it in the log. The
    // chain advances only once the group is appended: after a failed
    // append the log is poisoned until a reset starts a new chain.
    WalHeaderChain chain = wal_chain_;
    std::vector<uint8_t> header;
    std::vector<Slice> payloads;
    payloads.reserve(group.size());
    for (size_t i = 0; i < group.size(); i++) {
      CommitRequest* r = group[i];
      if (ledger_ != nullptr) {
        r->header.block_id = slots[i].first;
        r->header.block_ordinal = slots[i].second;
      }
      header.assign(1, kWalKindCommit);
      r->header.EncodeChainedHeader(&chain, &header);
      const size_t skip = r->header_room - header.size();
      std::copy(header.begin(), header.end(), r->payload.begin() + skip);
      payloads.emplace_back(r->payload.data() + skip,
                            r->payload.size() - skip);
    }
    // WAL first: one buffered append, one fsync for the whole group. On
    // failure nothing reached the ledger, so the next group reads the same
    // slots and ordinals stay dense once a checkpoint clears the sticky
    // error. Every member fails (Commit aborts it): the WAL is poisoned,
    // so none of them is durable.
    // A schema change or a truncation is durable when it returns
    // (DESIGN.md §4), even when ordinary commits are not synced.
    const bool sync_at_commit =
        std::any_of(group.begin(), group.end(), [](const CommitRequest* r) {
          return r->txn->sync_at_commit();
        });
    Status st = wal_->AppendBatch(payloads, sync_at_commit);
    if (!st.ok()) {
      for (CommitRequest* r : group) r->result = st;
      return;
    }
    wal_chain_ = std::move(chain);
  }

  if (ledger_ != nullptr) {
    for (size_t i = 0; i < group.size(); i++) {
      CommitRequest* r = group[i];
      TransactionEntry entry;
      entry.txn_id = r->txn->id();
      entry.block_id = slots[i].first;
      entry.block_ordinal = slots[i].second;
      entry.commit_ts_micros = r->commit_ts_micros;
      entry.user_name = r->txn->user_name();
      entry.table_roots = r->txn->TableRoots();
      r->result = ledger_->Append(std::move(entry));
    }
  } else {
    for (CommitRequest* r : group) r->result = Status::OK();
  }
}

void LedgerDatabase::Abort(Transaction* txn) {
  if (txn == nullptr) return;
  txn->Abort();
  locks_.ReleaseAll(txn->id());
  m_commit_aborts_->Add();
  MutexLock lock(&txn_mu_);
  active_txns_.erase(txn->id());
  txn_cv_.SignalAll();
}

Status LedgerDatabase::Savepoint(Transaction* txn, const std::string& name) {
  if (txn == nullptr) return Status::InvalidArgument("null transaction");
  return txn->CreateSavepoint(name);
}

Status LedgerDatabase::RollbackToSavepoint(Transaction* txn,
                                           const std::string& name) {
  if (txn == nullptr) return Status::InvalidArgument("null transaction");
  return txn->RollbackToSavepoint(name);
}

// ---- DML ----

Status LedgerDatabase::AcquireTableLock(Transaction* txn,
                                        const CatalogEntry& entry,
                                        LockMode mode) {
  Status st = locks_.AcquireTable(txn->id(), entry.table_id, mode);
  if (!st.ok())
    return Status::Aborted("lock acquisition failed on '" + entry.name +
                           "': " + st.message());
  return Status::OK();
}

Status LedgerDatabase::AcquireRowLock(Transaction* txn,
                                      const CatalogEntry& entry,
                                      const KeyTuple& key, LockMode mode) {
  Status st = locks_.AcquireRow(txn->id(), entry.table_id, key, mode);
  if (!st.ok())
    return Status::Aborted("row lock acquisition failed on '" + entry.name +
                           "': " + st.message());
  return Status::OK();
}

Result<KeyTuple> LedgerDatabase::UserKeyOf(const CatalogEntry& entry,
                                           const Row& user_row) {
  const std::vector<size_t>& positions = entry.ref.plan->user_key_positions;
  if (positions.empty())
    return Status::Internal("primary-key column is not visible");
  for (size_t j : positions) {
    if (j >= user_row.size())
      return Status::InvalidArgument("row is missing primary-key columns");
  }
  return user_row.Project(positions);
}

Status LedgerDatabase::Insert(Transaction* txn, const std::string& table,
                              const Row& user_row) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  // The table lock first: a DDL rewrites the schema the key is read from
  // under the table's X lock.
  SL_RETURN_IF_ERROR(
      AcquireTableLock(txn, *entry, LockMode::kIntentionExclusive));
  auto key = UserKeyOf(*entry, user_row);
  if (!key.ok()) return key.status();
  SL_RETURN_IF_ERROR(AcquireRowLock(txn, *entry, *key, LockMode::kExclusive));
  return LedgerInsert(txn, entry->ref, user_row);
}

Status LedgerDatabase::Update(Transaction* txn, const std::string& table,
                              const Row& user_row) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(
      AcquireTableLock(txn, *entry, LockMode::kIntentionExclusive));
  auto key = UserKeyOf(*entry, user_row);
  if (!key.ok()) return key.status();
  SL_RETURN_IF_ERROR(AcquireRowLock(txn, *entry, *key, LockMode::kExclusive));
  return LedgerUpdate(txn, entry->ref, user_row);
}

Status LedgerDatabase::Delete(Transaction* txn, const std::string& table,
                              const KeyTuple& key) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(
      AcquireTableLock(txn, *entry, LockMode::kIntentionExclusive));
  SL_RETURN_IF_ERROR(AcquireRowLock(txn, *entry, key, LockMode::kExclusive));
  return LedgerDelete(txn, entry->ref, key);
}

Result<Row> LedgerDatabase::Get(Transaction* txn, const std::string& table,
                                const KeyTuple& key) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(
      AcquireTableLock(txn, *entry, LockMode::kIntentionShared));
  SL_RETURN_IF_ERROR(AcquireRowLock(txn, *entry, key, LockMode::kShared));
  auto row = entry->main->GetCopy(key, &entry->ref.plan->visible_ords);
  if (!row.has_value()) return Status::NotFound("row not found");
  return std::move(*row);
}

Result<std::vector<Row>> LedgerDatabase::Scan(Transaction* txn,
                                              const std::string& table) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(AcquireTableLock(txn, *entry, LockMode::kShared));
  std::vector<Row> out;
  for (BTree::Iterator it = entry->main->Scan(); it.Valid(); it.Next())
    out.push_back(it.value().Project(entry->ref.plan->visible_ords));
  return out;
}

Result<Row> LedgerDatabase::SeekFirst(Transaction* txn,
                                      const std::string& table,
                                      const KeyTuple& prefix) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(AcquireTableLock(txn, *entry, LockMode::kShared));
  auto row =
      entry->main->SeekFirstCopy(prefix, &entry->ref.plan->visible_ords);
  if (!row.has_value())
    return Status::NotFound("no row with the given key prefix");
  return std::move(*row);
}

// ---- Ledger features ----

Result<DatabaseDigest> LedgerDatabase::GenerateDigest() {
  if (ledger_ == nullptr)
    return Status::NotSupported("ledger is disabled for this database");
  MutexLock commit_lock(&commit_mu_);
  if (options_.geo_replica != nullptr) {
    // The digest covers every commit so far, so the newest one bounds what
    // a failover could lose. commit_mu_ keeps any commit from landing
    // between this check and the digest.
    const int64_t lag = std::max<int64_t>(
        0, ledger_->last_commit_ts() -
               options_.geo_replica->replicated_through());
    m_replica_lag_->Set(lag);
    if (lag > kGeoDeferLagMicros) {
      m_geo_deferrals_->Add();
      return Status::Busy(
          "geo replication lag " + std::to_string(lag) +
          "us exceeds the digest gating threshold; digests are deferred "
          "until the secondary catches up");
    }
    if (lag > kGeoAlertLagMicros) m_geo_alerts_->Add();
  }
  uint64_t closed_before = ledger_->closed_block_count();
  auto digest = ledger_->GenerateDigest(options_.database_id, create_time_);
  if (!digest.ok()) return digest;
  if (wal_ != nullptr && ledger_->closed_block_count() > closed_before) {
    // Make the block close durable so a post-crash recovery rebuilds the
    // exact block this digest covers.
    std::vector<uint8_t> payload{kWalKindBlockClose};
    PutVarint64(&payload, digest->block_id);
    SL_RETURN_IF_ERROR(wal_->AppendRecord(Slice(payload)));
  }
  return digest;
}

Status LedgerDatabase::StartDigestProtection(
    DigestStore* store, DigestPipelineOptions pipeline_options,
    std::chrono::milliseconds interval) {
  if (ledger_ == nullptr)
    return Status::NotSupported("ledger is disabled for this database");
  if (digest_pipeline_ != nullptr)
    return Status::Busy("digest protection is already running");
  if (pipeline_options.outbox_dir.empty()) {
    if (options_.data_dir.empty())
      return Status::InvalidArgument(
          "ephemeral database: digest protection needs an explicit "
          "outbox_dir");
    pipeline_options.outbox_dir = options_.data_dir + "/digest_outbox";
  }
  if (pipeline_options.env == nullptr) pipeline_options.env = env_;
  auto pipeline =
      DigestUploadPipeline::Open(this, store, std::move(pipeline_options));
  if (!pipeline.ok()) return pipeline.status();
  digest_pipeline_ = std::move(*pipeline);
  if (interval != std::chrono::milliseconds::zero())
    digest_pipeline_->Start(interval);
  return Status::OK();
}

void LedgerDatabase::StopDigestProtection() { digest_pipeline_.reset(); }

DigestProtectionStatus LedgerDatabase::GetDigestProtectionStatus() const {
  if (digest_pipeline_ != nullptr) return digest_pipeline_->status();
  DigestProtectionStatus s;
  s.blocks_behind = ledger_ != nullptr ? ledger_->open_block_id() : 0;
  return s;
}

Result<std::vector<LedgerViewRow>> LedgerDatabase::GetLedgerView(
    const std::string& table) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  // A table S lock excludes writers (their IX conflicts) for the duration
  // of the scan over the ledger and history stores.
  auto txn = Begin("system:view");
  if (!txn.ok()) return txn.status();
  Status st = AcquireTableLock(*txn, *entry, LockMode::kShared);
  if (!st.ok()) {
    Abort(*txn);
    return st;
  }
  auto view = BuildLedgerView(entry->ref);
  SL_RETURN_IF_ERROR(Commit(*txn));
  return view;
}

Result<std::vector<TableOperationRow>> LedgerDatabase::GetTableOperationsView() {
  CatalogEntry* sys = FindTableById(kSysTablesTableId);
  if (sys == nullptr)
    return Status::NotSupported("ledger is disabled for this database");
  auto txn = Begin("system:view");
  if (!txn.ok()) return txn.status();
  Status lock_st = AcquireTableLock(*txn, *sys, LockMode::kShared);
  if (!lock_st.ok()) {
    Abort(*txn);
    return lock_st;
  }
  auto view = BuildLedgerView(sys->ref);
  SL_RETURN_IF_ERROR(Commit(*txn));
  if (!view.ok()) return view.status();
  std::vector<TableOperationRow> out;
  for (const LedgerViewRow& row : *view) {
    if (row.operation != "INSERT") continue;  // DELETE halves of updates
    TableOperationRow op;
    op.table_name = row.values[0].string_value();
    op.table_id = static_cast<uint32_t>(row.values[1].AsInt64());
    op.operation =
        op.table_name.rfind("DroppedTable_", 0) == 0 ? "DROP" : "CREATE";
    op.transaction_id = row.transaction_id;
    out.push_back(std::move(op));
  }
  return out;
}

uint64_t LedgerDatabase::committed_txn_count() const {
  return m_commit_txns_->value();
}

// ---- Incremental verification state (DESIGN.md §11) ----

std::optional<VerificationState> LedgerDatabase::GetVerificationState() const {
  MutexLock lock(&verify_mu_);
  return verification_state_;
}

Status LedgerDatabase::StoreVerificationState(const VerificationState& state) {
  if (state.database_id != options_.database_id ||
      state.database_create_time != create_time_) {
    return Status::InvalidArgument(
        "verification state belongs to a different database or incarnation");
  }
  {
    MutexLock lock(&verify_mu_);
    verification_state_ = state;
  }
  // Persist outside verify_mu_: the save syncs, and leaf locks are never
  // held across I/O. Concurrent stores are already serialized by the
  // verifier's quiesce; a racing overwrite would only lose a watermark.
  if (!verification_state_path_.empty())
    return state.Save(env_, verification_state_path_);
  return Status::OK();
}

void LedgerDatabase::ClearVerificationState() {
  {
    MutexLock lock(&verify_mu_);
    verification_state_.reset();
  }
  if (!verification_state_path_.empty()) {
    // Best-effort: a leftover file is stale (wrong watermark for the new
    // truncation set) but still CRC-valid, so it must also be droppable by
    // the verifier's re-anchor checks — and it is, because truncation
    // removes the watermark block's predecessors and changes accumulators.
    (void)VerificationState::Remove(env_, verification_state_path_);  // see above
  }
}

void LedgerDatabase::NoteDurableDigest(const DatabaseDigest& digest) {
  MutexLock lock(&verify_mu_);
  if (!latest_durable_digest_.has_value() ||
      digest.block_id >= latest_durable_digest_->block_id) {
    latest_durable_digest_ = digest;
  }
}

std::optional<DatabaseDigest> LedgerDatabase::latest_durable_digest() const {
  MutexLock lock(&verify_mu_);
  return latest_durable_digest_;
}

void LedgerDatabase::RecordIncrementalVerification(
    bool fell_back, uint64_t blocks_reverified, uint64_t blocks_skipped,
    uint64_t row_versions_skipped) {
  m_verify_incremental_runs_->Add();
  if (fell_back) m_verify_fallbacks_->Add();
  m_blocks_reverified_->Add(blocks_reverified);
  m_blocks_skipped_->Add(blocks_skipped);
  m_row_versions_skipped_->Add(row_versions_skipped);
}

std::vector<TruncationRecord> LedgerDatabase::GetTruncationRecords() {
  std::vector<TruncationRecord> out;
  CatalogEntry* sys = FindTableById(kSysTruncationsTableId);
  if (sys == nullptr) return out;
  for (BTree::Iterator it = sys->main->Scan(); it.Valid(); it.Next()) {
    TruncationRecord rec;
    rec.truncated_below_block =
        static_cast<uint64_t>(it.value()[0].AsInt64());
    rec.min_txn_id = static_cast<uint64_t>(it.value()[1].AsInt64());
    rec.max_txn_id = static_cast<uint64_t>(it.value()[2].AsInt64());
    out.push_back(rec);
  }
  return out;
}

Status LedgerDatabase::RecordTruncation(const TruncationRecord& record) {
  CatalogEntry* sys = FindTableById(kSysTruncationsTableId);
  if (sys == nullptr)
    return Status::NotSupported("ledger is disabled for this database");
  auto txn = Begin("system:truncation");
  if (!txn.ok()) return txn.status();
  (*txn)->RequireSyncAtCommit();  // the truncation's one durability point
  Row row{Value::BigInt(static_cast<int64_t>(record.truncated_below_block)),
          Value::BigInt(static_cast<int64_t>(record.min_txn_id)),
          Value::BigInt(static_cast<int64_t>(record.max_txn_id)),
          Value::Timestamp(options_.clock())};
  Status st = Insert(*txn, "sys_ledger_truncations", row);
  if (!st.ok()) {
    Abort(*txn);
    return st;
  }
  return Commit(*txn);
}

Status LedgerDatabase::ApplyTruncation(uint64_t below_block) {
  // The deletes bypass transactional locking, so writers are quiesced.
  QuiesceGuard guard(this);
  auto range = ledger_->CollectTxnsBelow(below_block);
  if (!range.ok()) return range.status();
  if (range->txn_ids.empty()) return Status::OK();  // already applied
  std::set<uint64_t> truncated(range->txn_ids.begin(), range->txn_ids.end());
  // History rows retired by truncated transactions ("easy to truncate
  // because no other data elements reference it", §5.2).
  for (CatalogEntry* entry : AllTables()) {
    if (entry->history == nullptr) continue;
    std::vector<KeyTuple> doomed;
    for (BTree::Iterator it = entry->history->Scan(); it.Valid(); it.Next()) {
      Cell end_txn = it.value()[entry->ref.plan->end_txn_ord];
      if (!end_txn.is_null() &&
          truncated.count(static_cast<uint64_t>(end_txn.AsInt64())))
        doomed.push_back(it.key());
    }
    for (const KeyTuple& key : doomed)
      SL_RETURN_IF_ERROR(entry->history->Delete(key));
  }
  SL_RETURN_IF_ERROR(ledger_->TruncateBelow(below_block));
  ClearVerificationState();
  return Status::OK();
}

// ---- Durability ----

Status LedgerDatabase::Checkpoint() {
  if (options_.data_dir.empty())
    return Status::OK();  // ephemeral database: nothing to persist
  const int64_t start = metrics_->NowMicros();
  Status st = CheckpointImpl();
  const int64_t end = metrics_->NowMicros();
  m_checkpoint_micros_->Record(static_cast<uint64_t>(std::max<int64_t>(
      0, end - start)));
  m_checkpoint_runs_->Add();
  tracer_->RecordComplete("checkpoint", "storage", start, end - start);
  return st;
}

Status LedgerDatabase::CheckpointImpl() {
  QuiesceGuard guard(this);
  // Quiescing only drains user transactions; digest generation still runs
  // concurrently and appends block-close records under commit_mu_. Hold
  // commit_mu_ across the snapshot/WAL-reset so the checkpoint and the WAL
  // cannot disagree about which blocks closed.
  MutexLock commit_lock(&commit_mu_);
  // With sync_wal off the log's newest records are not durable yet. Sync
  // them before the log becomes wal.log.prev, so the fallback generation
  // holds every commit this checkpoint holds. This is a checkpoint's one
  // sync of the log, not a commit's. A poisoned log is not synced: after a
  // failed write or sync its bytes cannot be vouched for (a retried fsync
  // can report success for pages the failed one dropped), and the rotation
  // below must still clear it.
  if (wal_ != nullptr && !options_.sync_wal && wal_->sticky_error().ok()) {
    Status synced = wal_->Sync();  // lint: allow(commit-sync): checkpoint
    if (!synced.ok()) return synced;
  }

  std::vector<const TableStore*> stores;
  stores.push_back(ledger_txns_store_.get());
  stores.push_back(ledger_blocks_store_.get());
  {
    ReaderMutexLock catalog_lock(&catalog_mu_);
    for (const auto& [id, entry] : catalog_) {
      stores.push_back(entry->main.get());
      if (entry->history) stores.push_back(entry->history.get());
    }
  }
  std::vector<uint8_t> meta = EncodeCatalogMeta();
  SL_RETURN_IF_ERROR(
      WriteCheckpoint(checkpoint_path_, Slice(meta), stores, env_));
  if (wal_ != nullptr) {
    // The next commit record is the first of the new file's chain, whether
    // or not the reset succeeds: a failed one leaves the log poisoned.
    wal_chain_ = WalHeaderChain{};
    SL_RETURN_IF_ERROR(wal_->Reset());
  }
  return Status::OK();
}

// ---- Quiescing ----

LedgerDatabase::QuiesceGuard::QuiesceGuard(LedgerDatabase* db) : db_(db) {
  MutexLock lock(&db_->txn_mu_);
  while (db_->quiescing_) db_->txn_cv_.Wait(&db_->txn_mu_);
  db_->quiescing_ = true;
  while (!db_->active_txns_.empty()) db_->txn_cv_.Wait(&db_->txn_mu_);
}

LedgerDatabase::QuiesceGuard::~QuiesceGuard() {
  MutexLock lock(&db_->txn_mu_);
  db_->quiescing_ = false;
  db_->txn_cv_.SignalAll();
}

}  // namespace sqlledger

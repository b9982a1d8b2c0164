#include "ledger/ledger_database.h"

#include <algorithm>
#include <chrono>

#include "catalog/row.h"
#include "storage/checkpoint.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
// WAL record kinds (first payload byte).
constexpr uint8_t kWalKindCommit = 1;
constexpr uint8_t kWalKindBlockClose = 2;

// Events kept by the database's trace ring before the oldest is overwritten
// (DESIGN.md §13).
constexpr size_t kTraceCapacity = 4096;

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
  m_recovery_runs_ = metrics_->GetCounter("recovery.runs_total");
  m_verify_incremental_runs_ = metrics_->GetCounter("verify.incremental_total");
  m_verify_fallbacks_ = metrics_->GetCounter("verify.fallbacks_total");
  m_blocks_reverified_ = metrics_->GetCounter("verify.blocks_reverified_total");
  m_blocks_skipped_ = metrics_->GetCounter("verify.blocks_skipped_total");
  m_row_versions_skipped_ =
      metrics_->GetCounter("verify.row_versions_skipped_total");
  locks_.SetMetrics(metrics_.get());
}

LedgerDatabase::~LedgerDatabase() {
  // The pipeline's cadence thread calls back into this database; stop it
  // before any member it touches is destroyed.
  StopDigestProtection();
}

Result<std::unique_ptr<LedgerDatabase>> LedgerDatabase::Open(
    LedgerDatabaseOptions options) {
  std::unique_ptr<LedgerDatabase> db(new LedgerDatabase(std::move(options)));

  if (db->options_.data_dir.empty()) {
    SL_RETURN_IF_ERROR(db->InitFresh());
    return db;
  }

  Env* env = db->env_;
  Status mkdir_st = env->CreateDirs(db->options_.data_dir);
  if (!mkdir_st.ok())
    return Status::IOError("cannot create data dir: " + mkdir_st.message());
  db->checkpoint_path_ = db->options_.data_dir + "/checkpoint.sldb";
  db->wal_path_ = db->options_.data_dir + "/wal.log";

  WalOptions wal_options;
  wal_options.sync = db->options_.sync_wal;
  wal_options.env = env;

  // A crash between the two checkpoint renames can leave only the ".prev"
  // generation on disk — that is still an existing database, not a fresh one.
  if (env->FileExists(db->checkpoint_path_) ||
      env->FileExists(db->checkpoint_path_ + ".prev")) {
    const int64_t recover_start = db->metrics_->NowMicros();
    SL_RETURN_IF_ERROR(db->Recover());
    db->m_recovery_micros_->Record(static_cast<uint64_t>(
        std::max<int64_t>(0, db->metrics_->NowMicros() - recover_start)));
    db->m_recovery_runs_->Add();
    auto wal = Wal::Open(db->wal_path_, wal_options);
    if (!wal.ok()) return wal.status();
    db->wal_ = std::move(*wal);
    db->wal_->SetMetrics(db->metrics_.get());
    db->wal_enabled_ = true;
  } else {
    SL_RETURN_IF_ERROR(db->InitFresh());
    auto wal = Wal::Open(db->wal_path_, wal_options);
    if (!wal.ok()) return wal.status();
    db->wal_ = std::move(*wal);
    db->wal_->SetMetrics(db->metrics_.get());
    db->wal_enabled_ = true;
    // First checkpoint, so recovery never sees a WAL without a catalog.
    SL_RETURN_IF_ERROR(db->Checkpoint());
  }

  // Load the verifier watermark if a trustworthy one exists. Missing, torn
  // or stale (other database / other incarnation) state is not an error —
  // it only means the next incremental verification starts from scratch.
  db->verification_state_path_ = db->options_.data_dir + "/verify_state.sldb";
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
  options.force_new_incarnation = true;
  return Open(std::move(options));
}

Status LedgerDatabase::InitFresh() {
  create_time_ = std::to_string(options_.clock());

  ledger_txns_store_ = std::make_unique<TableStore>(
      kLedgerTransactionsTableId, "database_ledger_transactions",
      MakeLedgerTransactionsSchema());
  ledger_blocks_store_ = std::make_unique<TableStore>(
      kLedgerBlocksTableId, "database_ledger_blocks",
      MakeLedgerBlocksSchema());

  if (!options_.enable_ledger) return Status::OK();

  DatabaseLedgerOptions lopts;
  lopts.block_size = options_.block_size;
  lopts.clock = options_.clock;
  ledger_ = std::make_unique<DatabaseLedger>(ledger_txns_store_.get(),
                                             ledger_blocks_store_.get(),
                                             std::move(lopts));

  // Bootstrap the ledger metadata system tables (paper §3.5.2, Figure 6).
  auto make_sys = [&](uint32_t id, uint32_t history_id,
                      const std::string& name, const Schema& user_schema,
                      TableKind kind) {
    auto entry = std::make_unique<CatalogEntry>();
    entry->table_id = id;
    entry->name = name;
    entry->kind = kind;
    entry->is_system = true;
    Schema full = MakeLedgerSchema(user_schema, kind);
    entry->main = std::make_unique<TableStore>(id, name, full);
    if (kind == TableKind::kUpdateable) {
      entry->history = std::make_unique<TableStore>(
          history_id, name + "_history", MakeHistorySchema(full));
    }
    entry->ref.table_id = id;
    entry->ref.kind = kind;
    entry->ref.main = entry->main.get();
    entry->ref.history = entry->history ? entry->history.get() : nullptr;
    entry->ref.RefreshOrdinals();
    // The lock lives inside the lambda (not around the call) because the
    // analysis treats lambda bodies as independent functions.
    WriterMutexLock lock(&catalog_mu_);
    name_index_[name] = id;
    catalog_[id] = std::move(entry);
  };
  make_sys(kSysTablesTableId, kSysTablesHistoryTableId, "sys_ledger_tables",
           MakeSysTablesSchema(), TableKind::kUpdateable);
  make_sys(kSysColumnsTableId, kSysColumnsHistoryTableId,
           "sys_ledger_columns", MakeSysColumnsSchema(),
           TableKind::kUpdateable);
  make_sys(kSysTruncationsTableId, 0, "sys_ledger_truncations",
           MakeSysTruncationsSchema(), TableKind::kAppendOnly);

  // Record the system tables' own metadata through the ledger, so even the
  // bootstrap is auditable.
  auto txn = Begin("system");
  if (!txn.ok()) return txn.status();
  for (uint32_t id :
       {kSysTablesTableId, kSysColumnsTableId, kSysTruncationsTableId}) {
    CatalogEntry* entry = FindTableById(id);
    Status st = RecordTableMetadata(*txn, *entry);
    if (!st.ok()) {
      Abort(*txn);
      return st;
    }
  }
  return Commit(*txn);
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
    PutVarint32(&out, entry->table_id);
    PutLengthPrefixed(&out, Slice(entry->name));
    out.push_back(static_cast<uint8_t>(entry->kind));
    out.push_back(entry->dropped ? 1 : 0);
    out.push_back(entry->is_system ? 1 : 0);
    PutVarint32(&out, entry->history ? entry->history->table_id() : 0);
  }
  return out;
}

Status LedgerDatabase::DecodeCatalogMeta(
    Slice meta, std::vector<std::unique_ptr<TableStore>> stores) {
  // Recovery is single-threaded; the locks satisfy the guarded-member
  // contracts rather than excluding real contention.
  WriterMutexLock catalog_lock(&catalog_mu_);
  MutexLock txn_lock(&txn_mu_);
  std::map<uint32_t, std::unique_ptr<TableStore>> by_id;
  for (auto& store : stores) {
    uint32_t id = store->table_id();
    by_id[id] = std::move(store);
  }

  Decoder dec(meta);
  auto create_time = dec.GetLengthPrefixed();
  if (!create_time.ok()) return create_time.status();
  create_time_ = options_.force_new_incarnation
                     ? std::to_string(options_.clock())
                     : create_time->ToString();

  auto next_table = dec.GetVarint32();
  if (!next_table.ok()) return next_table.status();
  next_table_id_ = *next_table;
  auto next_txn = dec.GetVarint64();
  if (!next_txn.ok()) return next_txn.status();
  next_txn_id_ = *next_txn;
  auto committed = dec.GetVarint64();
  if (!committed.ok()) return committed.status();
  // Seed the registry counter with the checkpointed lifetime count.
  // Recovery is single-threaded and the counter starts at zero.
  m_commit_txns_->Add(*committed);
  auto ledger_enabled = dec.GetBytes(1);
  if (!ledger_enabled.ok()) return ledger_enabled.status();
  if (((*ledger_enabled)[0] != 0) != options_.enable_ledger)
    return Status::InvalidArgument(
        "enable_ledger option does not match on-disk database");

  auto take_store = [&by_id](uint32_t id) -> std::unique_ptr<TableStore> {
    auto it = by_id.find(id);
    if (it == by_id.end()) return nullptr;
    auto store = std::move(it->second);
    by_id.erase(it);
    return store;
  };

  ledger_txns_store_ = take_store(kLedgerTransactionsTableId);
  ledger_blocks_store_ = take_store(kLedgerBlocksTableId);
  if (ledger_txns_store_ == nullptr || ledger_blocks_store_ == nullptr)
    return Status::Corruption("checkpoint missing ledger system tables");

  auto num_entries = dec.GetVarint32();
  if (!num_entries.ok()) return num_entries.status();
  for (uint32_t i = 0; i < *num_entries; i++) {
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    auto name = dec.GetLengthPrefixed();
    if (!name.ok()) return name.status();
    auto kind_b = dec.GetBytes(1);
    if (!kind_b.ok()) return kind_b.status();
    auto dropped_b = dec.GetBytes(1);
    if (!dropped_b.ok()) return dropped_b.status();
    auto system_b = dec.GetBytes(1);
    if (!system_b.ok()) return system_b.status();
    auto history_id = dec.GetVarint32();
    if (!history_id.ok()) return history_id.status();

    auto entry = std::make_unique<CatalogEntry>();
    entry->table_id = *table_id;
    entry->name = name->ToString();
    entry->kind = static_cast<TableKind>((*kind_b)[0]);
    entry->dropped = (*dropped_b)[0] != 0;
    entry->is_system = (*system_b)[0] != 0;
    entry->main = take_store(*table_id);
    if (entry->main == nullptr)
      return Status::Corruption("checkpoint missing store for table '" +
                                entry->name + "'");
    if (*history_id != 0) {
      entry->history = take_store(*history_id);
      if (entry->history == nullptr)
        return Status::Corruption("checkpoint missing history store for '" +
                                  entry->name + "'");
    }
    entry->ref.table_id = entry->table_id;
    entry->ref.kind = entry->kind;
    entry->ref.main = entry->main.get();
    entry->ref.history = entry->history ? entry->history.get() : nullptr;
    entry->ref.RefreshOrdinals();
    if (!entry->dropped) name_index_[entry->name] = entry->table_id;
    catalog_[entry->table_id] = std::move(entry);
  }
  if (!dec.done()) return Status::Corruption("trailing bytes in catalog meta");
  return Status::OK();
}

Status LedgerDatabase::Recover() {
  // Load the newest checkpoint; if it is missing or torn (a crash during
  // WriteCheckpoint), fall back to the retained previous generation. The
  // fallback additionally replays the rotated WAL ("wal.log.prev", which
  // spans previous-checkpoint -> newest-checkpoint), so either path
  // reconstructs the same state — replay is idempotent.
  bool used_fallback = false;
  auto checkpoint = ReadCheckpoint(checkpoint_path_, env_);
  if (!checkpoint.ok()) {
    if (checkpoint.status().IsNotFound() ||
        checkpoint.status().code() == StatusCode::kCorruption) {
      checkpoint = ReadCheckpoint(checkpoint_path_ + ".prev", env_);
      if (!checkpoint.ok())
        return Status::Corruption(
            "cannot load checkpoint (newest is missing/torn and no usable "
            "previous generation): " +
            checkpoint.status().message());
      used_fallback = true;
    } else {
      return checkpoint.status();
    }
  }
  SL_RETURN_IF_ERROR(DecodeCatalogMeta(Slice(checkpoint->meta),
                                       std::move(checkpoint->tables)));
  if (options_.enable_ledger) {
    DatabaseLedgerOptions lopts;
    lopts.block_size = options_.block_size;
    lopts.clock = options_.clock;
    ledger_ = std::make_unique<DatabaseLedger>(ledger_txns_store_.get(),
                                               ledger_blocks_store_.get(),
                                               std::move(lopts));
    SL_RETURN_IF_ERROR(ledger_->LoadFromTables());
  }
  // Replay the WAL tail: redo row operations idempotently and rebuild the
  // Database Ledger's in-memory queue from the commit records (the Analysis
  // phase of paper §3.3.2).
  if (used_fallback) {
    auto prev = Wal::Replay(
        wal_path_ + ".prev",
        [this](Slice payload) { return ReplayWalRecord(payload); }, env_);
    if (!prev.ok()) return prev.status();
  }
  uint64_t valid_bytes = 0;
  auto replayed = Wal::Replay(
      wal_path_,
      [this, &valid_bytes](Slice payload) {
        SL_RETURN_IF_ERROR(ReplayWalRecord(payload));
        valid_bytes += 8 + payload.size();  // frame header + payload
        return Status::OK();
      },
      env_);
  if (!replayed.ok()) return replayed.status();
  // Chop off any torn tail NOW: the WAL is reopened for append, and a
  // record written after un-replayable garbage would be unreachable to
  // every future replay (it sits past the point where replay stops).
  auto wal_size = env_->GetFileSize(wal_path_);
  if (wal_size.ok() && *wal_size > valid_bytes)
    SL_RETURN_IF_ERROR(env_->TruncateFile(wal_path_, valid_bytes));
  if (options_.enable_ledger) ReconcileDdlCounters();
  return Status::OK();
}

// A DDL's metadata transaction is WAL-durable at commit, but the structural
// change it describes only becomes durable with the trailing checkpoint. A
// crash during that checkpoint therefore recovers the old catalog (and old
// id allocators) while WAL replay re-applies the sys_ledger_* rows — leaving
// orphaned metadata rows whose ids the rolled-back allocators would hand out
// again, colliding on the metadata tables' primary keys. Floor the
// allocators above every id the metadata history mentions so an orphaned
// row can never cause id reuse.
void LedgerDatabase::ReconcileDdlCounters() {
  WriterMutexLock lock(&catalog_mu_);
  CatalogEntry* sys_tables = FindTableByIdLocked(kSysTablesTableId);
  if (sys_tables != nullptr) {
    for (BTree::Iterator it = sys_tables->main->Scan(); it.Valid(); it.Next()) {
      const Row& row = it.value();
      uint32_t id = static_cast<uint32_t>(row[1].AsInt64());
      // An updateable table consumed a second id for its history store.
      uint32_t consumed =
          row[2].string_value() == TableKindName(TableKind::kUpdateable) ? 2
                                                                         : 1;
      if (id + consumed > next_table_id_) next_table_id_ = id + consumed;
    }
  }
  CatalogEntry* sys_cols = FindTableByIdLocked(kSysColumnsTableId);
  if (sys_cols != nullptr) {
    for (BTree::Iterator it = sys_cols->main->Scan(); it.Valid(); it.Next()) {
      const Row& row = it.value();
      CatalogEntry* entry =
          FindTableByIdLocked(static_cast<uint32_t>(row[0].AsInt64()));
      if (entry == nullptr) continue;
      uint32_t floor = static_cast<uint32_t>(row[1].AsInt64()) + 1;
      if (entry->main->schema().next_column_id() < floor)
        entry->main->mutable_schema()->set_next_column_id(floor);
      if (entry->history != nullptr &&
          entry->history->schema().next_column_id() < floor)
        entry->history->mutable_schema()->set_next_column_id(floor);
    }
  }
}

Status LedgerDatabase::ReplayWalRecord(Slice payload) {
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
  if (kind != kWalKindCommit)
    return Status::Corruption("unknown WAL record kind");

  auto record = WalCommitRecord::Decode(body);
  if (!record.ok()) return record.status();

  // Redo row operations, idempotently.
  ReaderMutexLock catalog_lock(&catalog_mu_);
  for (const WalOp& op : record->ops) {
    TableStore* store = nullptr;
    for (const auto& [id, entry] : catalog_) {
      if (entry->main->table_id() == op.table_id) {
        store = entry->main.get();
        break;
      }
      if (entry->history && entry->history->table_id() == op.table_id) {
        store = entry->history.get();
        break;
      }
    }
    if (store == nullptr)
      return Status::Corruption("WAL references unknown table id " +
                                std::to_string(op.table_id));
    switch (op.type) {
      case WalOpType::kInsert: {
        if (store->Get(op.key) == nullptr)
          SL_RETURN_IF_ERROR(store->Insert(op.new_row));
        break;
      }
      case WalOpType::kUpdate: {
        if (store->Get(op.key) == nullptr) {
          SL_RETURN_IF_ERROR(store->Insert(op.new_row));
        } else {
          SL_RETURN_IF_ERROR(store->Update(op.new_row));
        }
        break;
      }
      case WalOpType::kDelete: {
        if (store->Get(op.key) != nullptr)
          SL_RETURN_IF_ERROR(store->Delete(op.key));
        break;
      }
    }
  }

  if (ledger_ != nullptr) {
    TransactionEntry entry;
    entry.txn_id = record->txn_id;
    entry.block_id = record->block_id;
    entry.block_ordinal = record->block_ordinal;
    entry.commit_ts_micros = record->commit_ts_micros;
    entry.user_name = record->user_name;
    entry.table_roots = record->table_roots;
    SL_RETURN_IF_ERROR(ledger_->RecoverEntry(entry));
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
  CatalogEntry* entry = FindTable(name);
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

Status LedgerDatabase::CreateTable(const std::string& name,
                                   const Schema& user_schema, TableKind kind) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  if (FindTable(name) != nullptr)
    return Status::AlreadyExists("table '" + name + "' already exists");
  if (!user_schema.HasPrimaryKey())
    return Status::InvalidArgument("table requires a primary key");
  if (!options_.enable_ledger) kind = TableKind::kRegular;

  auto entry = std::make_unique<CatalogEntry>();
  entry->name = name;
  entry->kind = kind;
  Schema full = MakeLedgerSchema(user_schema, kind);

  CatalogEntry* raw = entry.get();
  {
    // Allocate table ids inside the same critical section that publishes
    // the entry, so two concurrent CreateTable calls cannot race the
    // next_table_id_ counter.
    WriterMutexLock lock(&catalog_mu_);
    entry->table_id = next_table_id_++;
    entry->main = std::make_unique<TableStore>(entry->table_id, name, full);
    if (kind == TableKind::kUpdateable) {
      uint32_t history_id = next_table_id_++;
      entry->history = std::make_unique<TableStore>(
          history_id, name + "_history", MakeHistorySchema(full));
    }
    entry->ref.table_id = entry->table_id;
    entry->ref.kind = kind;
    entry->ref.main = entry->main.get();
    entry->ref.history = entry->history ? entry->history.get() : nullptr;
    entry->ref.RefreshOrdinals();
    name_index_[name] = entry->table_id;
    catalog_[entry->table_id] = std::move(entry);
  }

  if (options_.enable_ledger) {
    auto txn = Begin("system:ddl");
    if (!txn.ok()) return txn.status();
    Status st = RecordTableMetadata(*txn, *raw);
    if (st.ok()) {
      for (const ColumnDef& col : raw->main->schema().columns()) {
        if (col.hidden) continue;
        st = RecordColumnMetadata(*txn, raw->table_id, col);
        if (!st.ok()) break;
      }
    }
    if (!st.ok()) {
      Abort(*txn);
      return st;
    }
    SL_RETURN_IF_ERROR(Commit(*txn));
  }
  if (!options_.data_dir.empty()) return Checkpoint();
  return Status::OK();
}

Status LedgerDatabase::CreateIndex(const std::string& table,
                                   const std::string& index_name,
                                   const std::vector<std::string>& columns,
                                   bool unique) {
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
  SL_RETURN_IF_ERROR(entry->main->CreateIndex(index_name, ordinals, unique));
  if (entry->history != nullptr) {
    // Mirror the index on the history table so historical queries are
    // equally served; invariant 5 verifies both.
    Status st = entry->history->CreateIndex(index_name, ordinals,
                                            /*unique=*/false);
    if (!st.ok()) {
      // Best-effort rollback of the main-table index just created.
      (void)entry->main->DropIndex(index_name);
      return st;
    }
  }
  if (!options_.data_dir.empty()) return Checkpoint();
  return Status::OK();
}

Status LedgerDatabase::DropIndex(const std::string& table,
                                 const std::string& index_name) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(entry->main->DropIndex(index_name));
  // History mirror may lack the index (pre-mirror checkpoints); tolerated.
  if (entry->history != nullptr) (void)entry->history->DropIndex(index_name);
  if (!options_.data_dir.empty()) return Checkpoint();
  return Status::OK();
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
    // WAL record encoding (including the ops copy). Concurrent committers
    // do this in parallel; the group leader's critical section is left
    // with ordering + one batched append.
    txn->FinalizeForCommit();
    CommitRequest req;
    req.txn = txn;
    req.commit_ts_micros = options_.clock();
    if (wal_enabled_) {
      WalCommitRecord record;
      record.txn_id = txn->id();
      record.commit_ts_micros = req.commit_ts_micros;
      record.user_name = txn->user_name();
      // Placeholder slot; the leader patches the real one in at
      // req.slot_offset once AssignSlots has run.
      record.block_id = 0;
      record.block_ordinal = 0;
      record.table_roots = txn->TableRoots();
      record.ops = txn->ops();
      req.payload.push_back(kWalKindCommit);
      req.slot_offset = record.EncodeTo(&req.payload);
    }
    SL_RETURN_IF_ERROR(CommitThroughGroup(&req));
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
  // Wake a lingering leader so it can re-check its group size.
  group_cv_.SignalAll();

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

  // Leader. Optionally linger so a group can form, then seal it.
  commit_leader_active_ = true;
  size_t max_group = std::max<size_t>(1, options_.commit.max_group_size);
  if (options_.commit.max_group_wait_micros > 0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(
                        options_.commit.max_group_wait_micros);
    while (commit_queue_.size() < max_group &&
           group_cv_.WaitUntil(&group_mu_, deadline)) {
    }
  }
  std::vector<CommitRequest*> group;
  group.reserve(std::min(commit_queue_.size(), max_group));
  while (!commit_queue_.empty() && group.size() < max_group) {
    group.push_back(commit_queue_.front());
    commit_queue_.pop_front();
  }
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

  std::vector<std::pair<uint64_t, uint64_t>> slots;
  if (ledger_ != nullptr) slots = ledger_->AssignSlots(group.size());

  if (wal_ != nullptr) {
    std::vector<Slice> payloads;
    payloads.reserve(group.size());
    for (size_t i = 0; i < group.size(); i++) {
      CommitRequest* r = group[i];
      if (ledger_ != nullptr)
        WalCommitRecord::PatchSlot(&r->payload, r->slot_offset,
                                   slots[i].first, slots[i].second);
      payloads.emplace_back(r->payload);
    }
    // WAL first: one buffered append, one fsync for the whole group. On
    // failure nothing reached the ledger — roll the slot reservation back
    // so a post-checkpoint WAL (sticky error cleared) resumes with dense
    // ordinals — and fail every member: the WAL is poisoned, so none of
    // them is durable.
    Status st = wal_->AppendBatch(payloads);
    if (!st.ok()) {
      if (ledger_ != nullptr) ledger_->ReleaseSlots(group.size());
      for (CommitRequest* r : group) r->result = st;
      return;
    }
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
  const Schema& schema = entry.main->schema();
  std::vector<size_t> visible = schema.VisibleOrdinals();
  KeyTuple key;
  for (size_t key_ord : schema.key_ordinals()) {
    bool found = false;
    for (size_t j = 0; j < visible.size(); j++) {
      if (visible[j] == key_ord) {
        if (j >= user_row.size())
          return Status::InvalidArgument(
              "row is missing primary-key columns");
        key.push_back(user_row[j]);
        found = true;
        break;
      }
    }
    if (!found)
      return Status::Internal("primary-key column is not visible");
  }
  return key;
}

Status LedgerDatabase::WithTableExclusive(
    CatalogEntry* entry, const std::function<Status()>& body) {
  auto txn = Begin("system:ddl-lock");
  if (!txn.ok()) return txn.status();
  Status st = AcquireTableLock(*txn, *entry, LockMode::kExclusive);
  if (st.ok()) st = body();
  if (!st.ok()) {
    Abort(*txn);
    return st;
  }
  return Commit(*txn);
}

Status LedgerDatabase::Insert(Transaction* txn, const std::string& table,
                              const Row& user_row) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  auto key = UserKeyOf(*entry, user_row);
  if (!key.ok()) return key.status();
  SL_RETURN_IF_ERROR(
      AcquireTableLock(txn, *entry, LockMode::kIntentionExclusive));
  SL_RETURN_IF_ERROR(AcquireRowLock(txn, *entry, *key, LockMode::kExclusive));
  return LedgerInsert(txn, entry->ref, user_row);
}

Status LedgerDatabase::Update(Transaction* txn, const std::string& table,
                              const Row& user_row) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  auto key = UserKeyOf(*entry, user_row);
  if (!key.ok()) return key.status();
  SL_RETURN_IF_ERROR(
      AcquireTableLock(txn, *entry, LockMode::kIntentionExclusive));
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
  auto row = entry->main->GetCopy(key);
  if (!row.has_value()) return Status::NotFound("row not found");
  Row out;
  for (size_t ord : entry->main->schema().VisibleOrdinals())
    out.push_back((*row)[ord]);
  return out;
}

Result<std::vector<Row>> LedgerDatabase::Scan(Transaction* txn,
                                              const std::string& table) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(AcquireTableLock(txn, *entry, LockMode::kShared));
  std::vector<Row> out;
  std::vector<size_t> visible = entry->main->schema().VisibleOrdinals();
  for (BTree::Iterator it = entry->main->Scan(); it.Valid(); it.Next()) {
    Row row;
    for (size_t ord : visible) row.push_back(it.value()[ord]);
    out.push_back(std::move(row));
  }
  return out;
}

Result<Row> LedgerDatabase::SeekFirst(Transaction* txn,
                                      const std::string& table,
                                      const KeyTuple& prefix) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr) return Status::NotFound("table '" + table + "' not found");
  SL_RETURN_IF_ERROR(AcquireTableLock(txn, *entry, LockMode::kShared));
  auto row = entry->main->SeekFirstCopy(prefix);
  if (!row.has_value())
    return Status::NotFound("no row with the given key prefix");
  Row out;
  for (size_t ord : entry->main->schema().VisibleOrdinals())
    out.push_back((*row)[ord]);
  return out;
}

// ---- Ledger features ----

Result<DatabaseDigest> LedgerDatabase::GenerateDigest() {
  if (ledger_ == nullptr)
    return Status::NotSupported("ledger is disabled for this database");
  MutexLock commit_lock(&commit_mu_);
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
  // commit_mu_ across the drain/snapshot/WAL-reset so the checkpoint and
  // the WAL cannot disagree about which blocks closed.
  MutexLock commit_lock(&commit_mu_);

  if (ledger_ != nullptr) SL_RETURN_IF_ERROR(ledger_->DrainQueue());

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
  if (wal_ != nullptr) SL_RETURN_IF_ERROR(wal_->Reset());
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

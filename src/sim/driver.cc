#include "sim/driver.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "crypto/sha256.h"
#include "ledger/ledger_view.h"
#include "ledger/receipt.h"
#include "ledger/truncation.h"
#include "ledger/verifier.h"

namespace sqlledger {
namespace sim {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kCorruption: return "CORRUPTION";
    case StatusCode::kIOError: return "IO_ERROR";
    case StatusCode::kNotSupported: return "NOT_SUPPORTED";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kIntegrityViolation: return "INTEGRITY_VIOLATION";
    case StatusCode::kPermissionDenied: return "PERMISSION_DENIED";
    case StatusCode::kBusy: return "BUSY";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); i++) {
    if (i > 0) out += ",";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

std::string HashHex(const Hash256& h) { return h.ToHex(); }

}  // namespace

std::string SimResult::Summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "DIVERGED") << " statements=" << statements
     << " commits=" << commits << " crashes=" << crashes
     << " tampers=" << tampers << " truncations=" << truncations
     << " verifications=" << verifications
     << " incr_verifications=" << incremental_verifications
     << " digests=" << digests << " outages=" << store_outages
     << " digest=" << final_digest_hex << " fp=" << outcome_fingerprint;
  if (!metrics_fingerprint.empty()) os << " mfp=" << metrics_fingerprint;
  if (!ok) os << " @" << divergent_op << ": " << message;
  return os.str();
}

SimDriver::SimDriver(SimConfig config) : config_(std::move(config)) {}

SimDriver::~SimDriver() = default;

Schema SimDriver::GenUserSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, /*nullable=*/false);
  s.AddColumn("val", DataType::kVarchar, /*nullable=*/true, /*max_length=*/24);
  s.AddColumn("n", DataType::kInt, /*nullable=*/true);
  s.SetPrimaryKey({0});
  return s;
}

void SimDriver::Fail(size_t i, std::string msg) {
  if (diverged_) return;
  diverged_ = true;
  result_.ok = false;
  result_.divergent_op = i;
  result_.message = std::move(msg);
  Note("DIVERGED @" + std::to_string(i) + ": " + result_.message);
}

void SimDriver::Note(const std::string& line) {
  log_ += line;
  log_ += '\n';
}

const std::string* SimDriver::TableName(uint32_t index) const {
  if (index >= registry_.size()) return nullptr;
  return &registry_[index];
}

uint32_t SimDriver::SystemTableId(const std::string& name) {
  for (CatalogEntry* e : db_->AllTables()) {
    if (e->name == name) return e->table_id;
  }
  return 0;
}

Row SimDriver::BuildUserRow(const ReferenceModel::Table& t,
                            const SimOp& op) const {
  Row row;
  size_t vis = 0;
  for (const ColumnDef& c : t.schema.columns()) {
    if (c.hidden || c.dropped) continue;
    if (vis == 0) {
      row.push_back(Value::BigInt(op.key));
    } else if (c.nullable && (op.arg + vis) % 5 == 0) {
      row.push_back(Value::Null(c.type));
    } else {
      switch (c.type) {
        case DataType::kVarchar: {
          std::string s = op.str + "-" + c.name;
          if (c.max_length > 0 && s.size() > c.max_length)
            s.resize(c.max_length);
          row.push_back(Value::Varchar(std::move(s)));
          break;
        }
        case DataType::kInt:
          row.push_back(
              Value::Int(static_cast<int32_t>((op.arg + vis) % 100000)));
          break;
        case DataType::kBigInt:
          row.push_back(Value::BigInt(static_cast<int64_t>(op.arg)));
          break;
        default:
          row.push_back(Value::Null(c.type));
          break;
      }
    }
    vis++;
  }
  return row;
}

// ---- Setup ----

Status SimDriver::OpenDb() {
  LedgerDatabaseOptions opts;
  opts.data_dir = config_.data_dir;
  opts.database_id = "simdb";
  opts.block_size = config_.block_size;
  opts.sync_wal = true;
  opts.env = fenv_.get();
  opts.clock = [this] { return ++clock_; };
  // Pin the metrics/trace clock to its own counter (DESIGN.md §13): metric
  // timestamps replay byte-for-byte, and instrumentation never perturbs the
  // commit-timestamp clock above.
  opts.metrics_clock = [this] { return ++metrics_clock_; };
  // Determinism contract (DESIGN.md §10): no timed group formation. The
  // driver is single-threaded, so with a zero linger every commit group is
  // a singleton and traces stay byte-identical across reruns; FullAudit
  // checks the invariant.
  opts.commit.max_group_wait_micros = 0;
  auto db = LedgerDatabase::Open(opts);
  if (!db.ok()) return db.status();
  db_ = std::move(*db);
  db_->database_ledger()->EnableAppendLog();
  applied_ = 0;
  txn_ = nullptr;

  // The remote store is external to the database host: created once and
  // untouched by crashes. Its fault decorator carries seeded network
  // weather (transient errors, lost acks, duplicate deliveries) on top of
  // the trace-scripted outage windows.
  if (remote_store_ == nullptr) {
    remote_store_ = std::make_unique<InMemoryDigestStore>();
    faulty_store_ = std::make_unique<FaultyDigestStore>(
        remote_store_.get(), config_.seed ^ 0xD16E57ULL);
    FaultyDigestStore::Probabilities p;
    p.transient_error = 0.05;
    p.ack_lost = 0.05;
    p.duplicate = 0.05;
    faulty_store_->SetProbabilities(p);
    faulty_store_->SetOutage(store_outage_);
  }

  // The pipeline dies and is rebuilt with the database (its outbox replays
  // from disk through the fault env). Zero backoff/probe intervals keep
  // replay deterministic under the 1µs-per-call driver clock: a Pump always
  // attempts, and failure counting alone drives the breaker.
  DigestPipelineOptions popts;
  popts.outbox_dir = config_.data_dir + "/digest_outbox";
  popts.env = fenv_.get();
  popts.outbox_capacity = 32;
  popts.initial_backoff_micros = 0;
  popts.max_backoff_micros = 0;
  popts.jitter = 0;
  popts.probe_interval_micros = 0;
  popts.seed = config_.seed ^ 0x9D1635ULL;
  return db_->StartDigestProtection(faulty_store_.get(), std::move(popts));
}

Status SimDriver::Setup() {
  // Through Env (not std::filesystem) so the whole tree keeps a single I/O
  // choke point; the fault env is created below, so preparation of the data
  // dir intentionally uses the real filesystem.
  Env* env = Env::Default();
  Status prep = RemoveDirRecursive(env, config_.data_dir);
  if (prep.ok()) prep = env->CreateDirs(config_.data_dir);
  if (!prep.ok())
    return Status::IOError("cannot prepare data dir: " + config_.data_dir +
                           ": " + prep.message());

  ReferenceModel::Config mc;
  mc.block_size = config_.block_size;
  mc.break_hash_order = config_.break_hash_order;
  model_ = std::make_unique<ReferenceModel>(mc);
  fenv_ = std::make_unique<FaultInjectionEnv>(
      nullptr, config_.seed ^ 0x9E3779B97F4A7C15ULL);
  SL_RETURN_IF_ERROR(OpenDb());

  // Base tables cycle through the three kinds so every op family has a
  // target: updateable (history + full DML), append-only, regular.
  std::vector<TableKind> kinds;
  for (uint32_t t = 0; t < config_.gen.base_tables; t++) {
    TableKind kind = t % 3 == 0   ? TableKind::kUpdateable
                     : t % 3 == 1 ? TableKind::kAppendOnly
                                  : TableKind::kRegular;
    std::string name = "t" + std::to_string(t);
    SL_RETURN_IF_ERROR(db_->CreateTable(name, GenUserSchema(), kind));
    kinds.push_back(kind);
  }

  // Adopt everything the bootstrap produced (system-catalog entry + one DDL
  // entry per base table) into the model wholesale, then sync counters and
  // mirror the base tables.
  if (!RebuildChain(0, /*check_prefix=*/false))
    return Status::Internal("setup: " + result_.message);
  SyncNextTableId();
  ProbeTxnCounter(0);
  for (uint32_t t = 0; t < config_.gen.base_tables; t++)
    AdoptCreatedTable(0, "t" + std::to_string(t), kinds[t]);
  if (diverged_) return Status::Internal("setup: " + result_.message);
  FullAudit(0);
  if (diverged_) return Status::Internal("setup: " + result_.message);
  return Status::OK();
}

void SimDriver::AdoptCreatedTable(size_t i, const std::string& name,
                                  TableKind kind) {
  uint32_t sys_id = SystemTableId(name);
  if (sys_id == 0) {
    Fail(i, "adopt: table '" + name + "' missing from system catalog");
    return;
  }
  model_->set_next_table_id(sys_id);
  Status st = model_->CreateTable(name, GenUserSchema(), kind);
  if (!st.ok()) {
    Fail(i, "adopt: model CreateTable('" + name + "'): " + st.message());
    return;
  }
  ReferenceModel::Table* mt = model_->FindTable(name);
  if (mt == nullptr || mt->table_id != sys_id) {
    Fail(i, "adopt: table id mismatch for '" + name + "'");
    return;
  }
  TableStore* hist = db_->GetStoreForTesting(name, /*history=*/true);
  uint32_t sys_hist = hist != nullptr ? hist->table_id() : 0;
  if (mt->history_table_id != sys_hist) {
    Fail(i, "adopt: history table id mismatch for '" + name + "': model " +
                std::to_string(mt->history_table_id) + " vs system " +
                std::to_string(sys_hist));
    return;
  }
  registry_.push_back(name);
}

void SimDriver::SyncNextTableId() {
  uint32_t next = kFirstUserTableId;
  for (CatalogEntry* e : db_->AllTables()) {
    next = std::max(next, e->table_id + 1);
    if (e->history != nullptr)
      next = std::max(next, e->history->table_id() + 1);
  }
  model_->set_next_table_id(next);
}

void SimDriver::ProbeTxnCounter(size_t i) {
  auto r = db_->Begin("sim:probe");
  if (!r.ok()) {
    Fail(i, "probe Begin failed: " + r.status().message());
    return;
  }
  uint64_t id = (*r)->id();
  db_->Abort(*r);
  model_->set_next_txn_id(id + 1);
}

// ---- Chain adoption ----

bool SimDriver::RebuildChain(size_t i, bool check_prefix) {
  Status drain = ledger()->DrainQueue();
  if (!drain.ok()) {
    Fail(i, "rebuild: DrainQueue: " + drain.message());
    return false;
  }
  std::vector<TransactionEntry> entries = ledger()->AllEntries();
  std::sort(entries.begin(), entries.end(),
            [](const TransactionEntry& a, const TransactionEntry& b) {
              if (a.block_id != b.block_id) return a.block_id < b.block_id;
              return a.block_ordinal < b.block_ordinal;
            });
  std::vector<BlockRecord> blocks = ledger()->AllBlocks();
  std::sort(blocks.begin(), blocks.end(),
            [](const BlockRecord& a, const BlockRecord& b) {
              return a.block_id < b.block_id;
            });

  ReferenceModel::ChainState st;
  st.entries = entries;
  Hash256 tip{};  // all-zero before any block closes
  size_t pos = 0;
  bool first = true;
  uint64_t prev_id = 0;
  for (const BlockRecord& b : blocks) {
    if (!first && b.block_id != prev_id + 1) {
      Fail(i, "rebuild: block id gap " + std::to_string(prev_id) + " -> " +
                  std::to_string(b.block_id));
      return false;
    }
    if (first) {
      // After truncation the first retained block's prev link points at a
      // removed block; only block 0 asserts the all-zero link.
      if (b.block_id == 0 && !b.previous_block_hash.IsZero()) {
        Fail(i, "rebuild: block 0 has nonzero previous hash");
        return false;
      }
    } else if (!(b.previous_block_hash == tip)) {
      Fail(i, "rebuild: prev link mismatch at block " +
                  std::to_string(b.block_id));
      return false;
    }
    std::vector<TransactionEntry> in_block;
    while (pos < entries.size() && entries[pos].block_id == b.block_id) {
      if (entries[pos].block_ordinal != in_block.size()) {
        Fail(i, "rebuild: ordinal gap in block " + std::to_string(b.block_id));
        return false;
      }
      in_block.push_back(entries[pos]);
      pos++;
    }
    if (in_block.size() != b.transaction_count) {
      Fail(i, "rebuild: block " + std::to_string(b.block_id) + " records " +
                  std::to_string(b.transaction_count) + " txns, found " +
                  std::to_string(in_block.size()));
      return false;
    }
    Hash256 root = model_->ExpectedBlockRoot(in_block);
    if (!(root == b.transactions_root)) {
      Fail(i, "rebuild: transactions root mismatch at block " +
                  std::to_string(b.block_id) + " (naive " + HashHex(root) +
                  " vs recorded " + HashHex(b.transactions_root) + ")");
      return false;
    }
    tip = b.ComputeHash();
    prev_id = b.block_id;
    first = false;
  }

  uint64_t open_id = ledger()->open_block_id();
  for (; pos < entries.size(); pos++) {
    const TransactionEntry& e = entries[pos];
    if (e.block_id != open_id || e.block_ordinal != st.open_entries.size()) {
      Fail(i, "rebuild: stray entry txn " + std::to_string(e.txn_id) +
                  " at block " + std::to_string(e.block_id) + " ordinal " +
                  std::to_string(e.block_ordinal));
      return false;
    }
    st.open_entries.push_back(e);
  }
  if (st.open_entries.size() != ledger()->open_block_entry_count()) {
    Fail(i, "rebuild: open entry count " +
                std::to_string(st.open_entries.size()) + " vs system " +
                std::to_string(ledger()->open_block_entry_count()));
    return false;
  }
  if (!(tip == ledger()->last_block_hash())) {
    Fail(i, "rebuild: chain tip mismatch (naive " + HashHex(tip) +
                " vs system " + HashHex(ledger()->last_block_hash()) + ")");
    return false;
  }

  st.open_block_id = open_id;
  st.next_ordinal = st.open_entries.size();
  st.last_block_hash = tip;
  st.blocks = blocks;
  for (const TransactionEntry& e : entries)
    st.last_commit_ts = std::max(st.last_commit_ts, e.commit_ts_micros);

  if (check_prefix) {
    // Recovery may lose the un-synced tail but must never rewrite history:
    // the previously adopted entries must be an exact prefix.
    const std::vector<TransactionEntry>& old = model_->entries();
    if (old.size() > st.entries.size()) {
      Fail(i, "rebuild: chain shrank from " + std::to_string(old.size()) +
                  " to " + std::to_string(st.entries.size()) + " entries");
      return false;
    }
    for (size_t j = 0; j < old.size(); j++) {
      if (!EntriesMatch(old[j], st.entries[j], /*check_ts=*/true)) {
        Fail(i, "rebuild: recovered entry " + std::to_string(j) +
                    " differs from adopted history (txn " +
                    std::to_string(st.entries[j].txn_id) + ")");
        return false;
      }
    }
  }

  model_->SetChainState(std::move(st));
  applied_ = ledger()->append_log_size();

  // Digests referencing truncated blocks would (correctly) fail invariant
  // 1; they are no longer part of the trusted set.
  trusted_.erase(
      std::remove_if(trusted_.begin(), trusted_.end(),
                     [&](const DatabaseDigest& d) {
                       for (const BlockRecord& b : blocks)
                         if (b.block_id == d.block_id) return false;
                       return true;
                     }),
      trusted_.end());
  return true;
}

// ---- Crash handling ----

bool SimDriver::Reopen(size_t i) {
  db_.reset();  // destroy before swapping the env out from under it
  reopens_++;
  fenv_ = std::make_unique<FaultInjectionEnv>(
      nullptr, config_.seed ^ (0x9E3779B97F4A7C15ULL * (reopens_ + 1)));
  Status st = OpenDb();
  if (!st.ok()) {
    Fail(i, "reopen after crash failed: " + st.message());
    return false;
  }
  return true;
}

bool SimDriver::HandleIfCrashed(size_t i, const std::function<void()>& resolve,
                                bool check_prefix) {
  if (diverged_ || fenv_ == nullptr || !fenv_->crashed()) return false;
  result_.crashes++;
  Note("crash recover @" + std::to_string(i));
  txn_ = nullptr;
  if (!Reopen(i)) return true;
  resolve();
  if (diverged_) return true;
  if (model_->InTxn()) model_->AbortTxn();
  // Catalog-level state (indexes live only in checkpoints) may have rolled
  // back to the previous checkpoint; resync from the recovered catalog.
  indexes_.clear();
  for (CatalogEntry* e : db_->AllTables()) {
    for (const auto& idx : e->main->indexes())
      indexes_.insert({e->name, idx->name});
  }
  // Recovery floors the system's column-id allocators above any orphaned
  // sys_ledger_columns rows (a DDL whose checkpoint tore); column ids are
  // hashed into row versions, so mirror the recovered allocators exactly.
  for (const std::string& name : registry_) {
    ReferenceModel::Table* mt = model_->FindTable(name);
    TableStore* store = db_->GetStoreForTesting(name);
    if (mt == nullptr || store == nullptr) continue;
    uint32_t next = store->schema().next_column_id();
    if (mt->schema.next_column_id() < next)
      mt->schema.set_next_column_id(next);
    if (mt->history_table_id != 0 && mt->history_schema.next_column_id() < next)
      mt->history_schema.set_next_column_id(next);
  }
  SyncNextTableId();
  ProbeTxnCounter(i);
  if (diverged_) return true;
  if (!RebuildChain(i, check_prefix)) return true;
  FullAudit(i);
  // The rebuilt pipeline replayed the outbox; a pump re-attempts the head
  // (idempotently re-uploading anything whose ack the crash ate) and the
  // audit re-checks store/submission-log agreement.
  if (!diverged_ && db_->digest_pipeline() != nullptr) {
    (void)db_->digest_pipeline()->Pump();  // audited just below
    AuditDigestStore(i);
  }
  return true;
}

// ---- Commit plumbing ----

bool SimDriver::EntriesMatch(const TransactionEntry& a,
                             const TransactionEntry& b, bool check_ts) const {
  if (a.txn_id != b.txn_id || a.block_id != b.block_id ||
      a.block_ordinal != b.block_ordinal || a.user_name != b.user_name)
    return false;
  if (check_ts && a.commit_ts_micros != b.commit_ts_micros) return false;
  if (a.table_roots.size() != b.table_roots.size()) return false;
  for (size_t i = 0; i < a.table_roots.size(); i++) {
    if (a.table_roots[i].first != b.table_roots[i].first) return false;
    if (!(a.table_roots[i].second == b.table_roots[i].second)) return false;
  }
  return true;
}

bool SimDriver::IngestNewEntries(size_t i) {
  std::vector<TransactionEntry> fresh = ledger()->AppendLogSince(applied_);
  for (const TransactionEntry& e : fresh) {
    Status st = model_->OnEntryAppended(e);
    if (!st.ok()) {
      Fail(i, "ingest entry txn " + std::to_string(e.txn_id) + ": " +
                  st.message());
      return false;
    }
    applied_++;
  }
  return true;
}

void SimDriver::ResolveInDoubtCommit(
    size_t i, const ReferenceModel::CommitOutcome& expected) {
  if (!expected.has_entry) {
    // Nothing ever reached the WAL; table changes were in-memory only and
    // are gone either way — but an op-less commit performs no I/O, so this
    // path only triggers with an armed crash burning down elsewhere.
    model_->UndoCommit();
    return;
  }
  auto found = ledger()->FindEntry(expected.entry.txn_id);
  if (found.ok()) {
    if (!EntriesMatch(*found, expected.entry, /*check_ts=*/false)) {
      Fail(i, "in-doubt commit txn " + std::to_string(expected.entry.txn_id) +
                  " recovered with different contents");
      return;
    }
    model_->FinalizeCommit();
  } else if (found.status().IsNotFound()) {
    model_->UndoCommit();
  } else {
    Fail(i, "in-doubt commit lookup: " + found.status().message());
  }
}

bool SimDriver::CommitOpenTxn(size_t i) {
  if (diverged_) return false;
  if (txn_ == nullptr) {
    if (model_->InTxn()) Fail(i, "model txn open with no system txn");
    return !diverged_;
  }
  if (!model_->InTxn()) {
    Fail(i, "system txn open with no model txn");
    return false;
  }
  ReferenceModel::CommitOutcome expected = model_->PrepareCommit(0);
  Transaction* t = txn_;
  txn_ = nullptr;
  Status st = db_->Commit(t);
  result_.commits++;
  if (fenv_->crashed()) {
    HandleIfCrashed(i, [&] { ResolveInDoubtCommit(i, expected); });
    return !diverged_;
  }
  if (!st.ok()) {
    Fail(i, "commit failed: " + st.message());
    return false;
  }
  std::vector<TransactionEntry> fresh = ledger()->AppendLogSince(applied_);
  size_t want = expected.has_entry ? 1 : 0;
  if (fresh.size() != want) {
    Fail(i, "commit appended " + std::to_string(fresh.size()) +
                " entries, model expected " + std::to_string(want));
    return false;
  }
  if (expected.has_entry) {
    if (!EntriesMatch(fresh[0], expected.entry, /*check_ts=*/false)) {
      Fail(i, "commit entry mismatch for txn " +
                  std::to_string(expected.entry.txn_id) + ": system block " +
                  std::to_string(fresh[0].block_id) + "/" +
                  std::to_string(fresh[0].block_ordinal) + " roots " +
                  std::to_string(fresh[0].table_roots.size()) +
                  " vs model block " + std::to_string(expected.entry.block_id) +
                  "/" + std::to_string(expected.entry.block_ordinal) +
                  " roots " + std::to_string(expected.entry.table_roots.size()));
      return false;
    }
    Status ms = model_->OnEntryAppended(fresh[0]);
    if (!ms.ok()) {
      Fail(i, "model rejected appended entry: " + ms.message());
      return false;
    }
    applied_++;
  }
  model_->FinalizeCommit();
  if (!(model_->last_block_hash() == ledger()->last_block_hash())) {
    Fail(i, "chain tip mismatch after commit (naive " +
                HashHex(model_->last_block_hash()) + " vs system " +
                HashHex(ledger()->last_block_hash()) + ")");
    return false;
  }
  Note("commit txn entries=" + std::to_string(want));
  return !diverged_;
}

// ---- Op handlers ----

void SimDriver::DoBegin(size_t i, const SimOp& op) {
  (void)op;
  if (!CommitOpenTxn(i)) return;
  auto r = db_->Begin("sim");
  if (!r.ok()) {
    Fail(i, "Begin failed: " + r.status().message());
    return;
  }
  uint64_t mid = model_->BeginTxn("sim");
  if ((*r)->id() != mid) {
    db_->Abort(*r);
    model_->AbortTxn();
    Fail(i, "txn id mismatch: system " + std::to_string((*r)->id()) +
                " vs model " + std::to_string(mid));
    return;
  }
  txn_ = *r;
  Note(std::to_string(i) + " begin " + std::to_string(mid));
}

void SimDriver::DoDml(size_t i, const SimOp& op) {
  const std::string* name = TableName(op.table);
  if (txn_ == nullptr || name == nullptr) {
    Note(std::to_string(i) + " " + SimOpKindName(op.kind) + " skip");
    return;
  }
  ReferenceModel::Table* mt = model_->FindTable(*name);
  if (mt == nullptr) {
    Fail(i, "model missing table '" + *name + "'");
    return;
  }
  result_.statements++;
  Status st, ms;
  std::string extra;
  switch (op.kind) {
    case SimOpKind::kInsert: {
      Row row = BuildUserRow(*mt, op);
      st = db_->Insert(txn_, *name, row);
      ms = model_->Insert(*name, row);
      break;
    }
    case SimOpKind::kUpdate: {
      Row row = BuildUserRow(*mt, op);
      st = db_->Update(txn_, *name, row);
      ms = model_->Update(*name, row);
      break;
    }
    case SimOpKind::kDelete: {
      KeyTuple key{Value::BigInt(op.key)};
      st = db_->Delete(txn_, *name, key);
      ms = model_->Delete(*name, key);
      break;
    }
    case SimOpKind::kGet: {
      KeyTuple key{Value::BigInt(op.key)};
      auto sr = db_->Get(txn_, *name, key);
      auto mr = model_->Get(*name, key);
      st = sr.ok() ? Status::OK() : sr.status();
      ms = mr.ok() ? Status::OK() : mr.status();
      if (sr.ok() && mr.ok()) {
        std::string a = RowToString(*sr), b = RowToString(*mr);
        if (a != b) {
          Fail(i, "Get('" + *name + "', " + std::to_string(op.key) +
                      "): system " + a + " vs model " + b);
          return;
        }
        extra = " row=" + a;
      }
      break;
    }
    case SimOpKind::kScan: {
      auto sr = db_->Scan(txn_, *name);
      auto mr = model_->Scan(*name);
      st = sr.ok() ? Status::OK() : sr.status();
      ms = mr.ok() ? Status::OK() : mr.status();
      if (sr.ok() && mr.ok()) {
        if (sr->size() != mr->size()) {
          Fail(i, "Scan('" + *name + "'): system " +
                      std::to_string(sr->size()) + " rows vs model " +
                      std::to_string(mr->size()));
          return;
        }
        for (size_t j = 0; j < sr->size(); j++) {
          std::string a = RowToString((*sr)[j]), b = RowToString((*mr)[j]);
          if (a != b) {
            Fail(i, "Scan('" + *name + "') row " + std::to_string(j) +
                        ": system " + a + " vs model " + b);
            return;
          }
        }
        extra = " rows=" + std::to_string(sr->size());
      }
      break;
    }
    default:
      Fail(i, "DoDml on non-DML op");
      return;
  }
  if (st.code() != ms.code()) {
    Fail(i, std::string(SimOpKindName(op.kind)) + "('" + *name +
                "'): system " + CodeName(st.code()) + " (" + st.message() +
                ") vs model " + CodeName(ms.code()) + " (" + ms.message() +
                ")");
    return;
  }
  Note(std::to_string(i) + " " + SimOpKindName(op.kind) + " " + *name + " " +
       CodeName(st.code()) + extra);
}

void SimDriver::DoSavepoint(size_t i, const SimOp& op) {
  if (txn_ == nullptr) {
    Note(std::to_string(i) + " savepoint skip");
    return;
  }
  Status st = db_->Savepoint(txn_, op.str);
  Status ms = model_->Savepoint(op.str);
  if (st.code() != ms.code()) {
    Fail(i, "Savepoint('" + op.str + "'): system " + CodeName(st.code()) +
                " vs model " + CodeName(ms.code()));
    return;
  }
  Note(std::to_string(i) + " savepoint " + op.str + " " + CodeName(st.code()));
}

void SimDriver::DoRollbackToSave(size_t i, const SimOp& op) {
  if (txn_ == nullptr) {
    Note(std::to_string(i) + " rollback skip");
    return;
  }
  Status st = db_->RollbackToSavepoint(txn_, op.str);
  Status ms = model_->RollbackToSavepoint(op.str);
  if (st.code() != ms.code()) {
    Fail(i, "RollbackToSavepoint('" + op.str + "'): system " +
                CodeName(st.code()) + " vs model " + CodeName(ms.code()));
    return;
  }
  Note(std::to_string(i) + " rollback " + op.str + " " + CodeName(st.code()));
}

void SimDriver::DoCreateTable(size_t i, const SimOp& op) {
  if (!CommitOpenTxn(i)) return;
  TableKind kind = op.arg == 1 ? TableKind::kAppendOnly : TableKind::kUpdateable;
  bool existed = model_->FindTable(op.str) != nullptr;
  Status st = db_->CreateTable(op.str, GenUserSchema(), kind);
  if (HandleIfCrashed(i, [&] {
        // Whether the create survived depends on whether its checkpoint
        // landed; adopt the recovered catalog's verdict.
        if (SystemTableId(op.str) != 0 && model_->FindTable(op.str) == nullptr)
          AdoptCreatedTable(i, op.str, kind);
      }))
    return;
  StatusCode want = existed ? StatusCode::kAlreadyExists : StatusCode::kOk;
  if (st.code() != want) {
    Fail(i, "CreateTable('" + op.str + "'): system " + CodeName(st.code()) +
                " vs model " + CodeName(want));
    return;
  }
  if (st.ok()) AdoptCreatedTable(i, op.str, kind);
  if (diverged_) return;
  if (!IngestNewEntries(i)) return;
  ProbeTxnCounter(i);
  Note(std::to_string(i) + " create_table " + op.str + " " +
       CodeName(st.code()));
}

void SimDriver::DoAddColumn(size_t i, const SimOp& op) {
  const std::string* name = TableName(op.table);
  if (name == nullptr) {
    Note(std::to_string(i) + " add_column skip");
    return;
  }
  if (!CommitOpenTxn(i)) return;
  DataType type = op.arg == 1 ? DataType::kVarchar : DataType::kInt;
  uint32_t max_length = op.arg == 1 ? 16 : 0;
  Status st = db_->AddColumn(*name, op.str, type, max_length);
  if (HandleIfCrashed(i, [&] {
        TableStore* store = db_->GetStoreForTesting(*name);
        bool present =
            store != nullptr && store->schema().FindColumn(op.str) >= 0;
        ReferenceModel::Table* mt = model_->FindTable(*name);
        bool model_has = mt != nullptr && mt->schema.FindColumn(op.str) >= 0;
        if (present && !model_has)
          // Reconciling the model to observed post-crash state; the column
          // is known absent, so the add cannot fail.
          (void)model_->AddColumn(*name, op.str, type, max_length);
      }))
    return;
  Status ms = model_->AddColumn(*name, op.str, type, max_length);
  if (st.code() != ms.code()) {
    Fail(i, "AddColumn('" + *name + "', '" + op.str + "'): system " +
                CodeName(st.code()) + " vs model " + CodeName(ms.code()));
    return;
  }
  if (!IngestNewEntries(i)) return;
  ProbeTxnCounter(i);
  Note(std::to_string(i) + " add_column " + *name + "." + op.str + " " +
       CodeName(st.code()));
}

void SimDriver::DoDropColumn(size_t i, const SimOp& op) {
  const std::string* name = TableName(op.table);
  if (name == nullptr) {
    Note(std::to_string(i) + " drop_column skip");
    return;
  }
  if (!CommitOpenTxn(i)) return;
  Status st = db_->DropColumn(*name, op.str);
  if (HandleIfCrashed(i, [&] {
        TableStore* store = db_->GetStoreForTesting(*name);
        bool present =
            store != nullptr && store->schema().FindColumn(op.str) >= 0;
        ReferenceModel::Table* mt = model_->FindTable(*name);
        bool model_has = mt != nullptr && mt->schema.FindColumn(op.str) >= 0;
        // Reconciling the model to observed post-crash state; the column
        // is known present, so the drop cannot fail.
        if (!present && model_has) (void)model_->DropColumn(*name, op.str);
      }))
    return;
  Status ms = model_->DropColumn(*name, op.str);
  if (st.code() != ms.code()) {
    Fail(i, "DropColumn('" + *name + "', '" + op.str + "'): system " +
                CodeName(st.code()) + " vs model " + CodeName(ms.code()));
    return;
  }
  if (!IngestNewEntries(i)) return;
  ProbeTxnCounter(i);
  Note(std::to_string(i) + " drop_column " + *name + "." + op.str + " " +
       CodeName(st.code()));
}

void SimDriver::DoCreateIndex(size_t i, const SimOp& op) {
  const std::string* name = TableName(op.table);
  if (name == nullptr) {
    Note(std::to_string(i) + " create_index skip");
    return;
  }
  if (!CommitOpenTxn(i)) return;
  std::pair<std::string, std::string> ix{*name, op.str};
  StatusCode want =
      indexes_.count(ix) ? StatusCode::kAlreadyExists : StatusCode::kOk;
  Status st = db_->CreateIndex(*name, op.str, {"val"}, /*unique=*/false);
  if (HandleIfCrashed(i, [] {})) return;  // index set resynced from catalog
  if (st.code() != want) {
    Fail(i, "CreateIndex('" + *name + "', '" + op.str + "'): system " +
                CodeName(st.code()) + " vs predicted " + CodeName(want));
    return;
  }
  if (st.ok()) indexes_.insert(ix);
  ProbeTxnCounter(i);
  Note(std::to_string(i) + " create_index " + *name + "." + op.str + " " +
       CodeName(st.code()));
}

void SimDriver::DoLedgerView(size_t i, const SimOp& op) {
  const std::string* name = TableName(op.table);
  if (name == nullptr) {
    Note(std::to_string(i) + " ledger_view skip");
    return;
  }
  if (!CommitOpenTxn(i)) return;
  auto sv = db_->GetLedgerView(*name);
  auto mv = model_->ExpectedLedgerView(*name);
  StatusCode sc = sv.ok() ? StatusCode::kOk : sv.status().code();
  StatusCode mc = mv.ok() ? StatusCode::kOk : mv.status().code();
  if (sc != mc) {
    Fail(i, "GetLedgerView('" + *name + "'): system " + CodeName(sc) +
                " vs model " + CodeName(mc));
    return;
  }
  if (sv.ok()) {
    if (sv->size() != mv->size()) {
      Fail(i, "ledger view '" + *name + "': system " +
                  std::to_string(sv->size()) + " rows vs model " +
                  std::to_string(mv->size()));
      return;
    }
    for (size_t j = 0; j < sv->size(); j++) {
      const LedgerViewRow& a = (*sv)[j];
      const ReferenceModel::ViewRow& b = (*mv)[j];
      if (RowToString(a.values) != RowToString(b.values) ||
          a.operation != b.operation || a.transaction_id != b.transaction_id ||
          a.sequence_number != b.sequence_number) {
        Fail(i, "ledger view '" + *name + "' row " + std::to_string(j) +
                    ": system " + RowToString(a.values) + " " + a.operation +
                    " txn " + std::to_string(a.transaction_id) + " seq " +
                    std::to_string(a.sequence_number) + " vs model " +
                    RowToString(b.values) + " " + b.operation + " txn " +
                    std::to_string(b.transaction_id) + " seq " +
                    std::to_string(b.sequence_number));
        return;
      }
    }
  }
  ProbeTxnCounter(i);
  Note(std::to_string(i) + " ledger_view " + *name + " " + CodeName(sc) +
       (sv.ok() ? " rows=" + std::to_string(sv->size()) : ""));
}

void SimDriver::DoOpsView(size_t i) {
  if (!CommitOpenTxn(i)) return;
  auto view = db_->GetTableOperationsView();
  if (!view.ok()) {
    Fail(i, "GetTableOperationsView: " + view.status().message());
    return;
  }
  for (const std::string& name : registry_) {
    ReferenceModel::Table* mt = model_->FindTable(name);
    if (mt == nullptr) continue;
    bool found = false;
    for (const TableOperationRow& row : *view) {
      if (row.table_name == name && row.operation == "CREATE" &&
          row.table_id == mt->table_id) {
        found = true;
        break;
      }
    }
    if (!found) {
      Fail(i, "operations view missing CREATE row for '" + name + "' (id " +
                  std::to_string(mt->table_id) + ")");
      return;
    }
  }
  ProbeTxnCounter(i);
  Note(std::to_string(i) + " ops_view rows=" + std::to_string(view->size()));
}

void SimDriver::DoDigest(size_t i) {
  if (!CommitOpenTxn(i)) return;
  auto d = db_->GenerateDigest();
  if (HandleIfCrashed(i, [] {})) return;
  if (!d.ok()) {
    Fail(i, "GenerateDigest: " + d.status().message());
    return;
  }
  if (!IngestNewEntries(i)) return;
  DatabaseDigest expected =
      model_->ExpectedDigest(db_->options().database_id, db_->create_time());
  if (d->block_id != expected.block_id ||
      !(d->block_hash == expected.block_hash) ||
      d->last_commit_ts_micros != expected.last_commit_ts_micros) {
    Fail(i, "digest mismatch: system block " + std::to_string(d->block_id) +
                " hash " + HashHex(d->block_hash) + " last_ts " +
                std::to_string(d->last_commit_ts_micros) + " vs model block " +
                std::to_string(expected.block_id) + " hash " +
                HashHex(expected.block_hash) + " last_ts " +
                std::to_string(expected.last_commit_ts_micros));
    return;
  }
  if (!(model_->last_block_hash() == ledger()->last_block_hash())) {
    Fail(i, "chain tip mismatch after digest");
    return;
  }
  trusted_.push_back(*d);
  result_.digests++;
  ProbeTxnCounter(i);
  Note(std::to_string(i) + " digest block=" + std::to_string(d->block_id) +
       " hash=" + HashHex(d->block_hash));
  SubmitDigestToPipeline(i, *d);
}

void SimDriver::DoReceipt(size_t i, const SimOp& op) {
  if (!CommitOpenTxn(i)) return;
  std::vector<const TransactionEntry*> closed;
  for (const TransactionEntry& e : model_->entries())
    if (e.block_id < model_->open_block_id()) closed.push_back(&e);
  if (closed.empty()) {
    Note(std::to_string(i) + " receipt skip");
    return;
  }
  const TransactionEntry& pick = *closed[op.arg % closed.size()];
  auto r = MakeTransactionReceipt(db_.get(), pick.txn_id);
  if (!r.ok()) {
    Fail(i, "MakeTransactionReceipt(txn " + std::to_string(pick.txn_id) +
                "): " + r.status().message());
    return;
  }
  if (!EntriesMatch(r->entry, pick, /*check_ts=*/true)) {
    Fail(i, "receipt entry for txn " + std::to_string(pick.txn_id) +
                " differs from model entry");
    return;
  }
  const BlockRecord* mb = nullptr;
  for (const BlockRecord& b : model_->blocks())
    if (b.block_id == pick.block_id) mb = &b;
  if (mb == nullptr || !(r->transactions_root == mb->transactions_root)) {
    Fail(i, "receipt transactions root mismatch for block " +
                std::to_string(pick.block_id));
    return;
  }
  if (!VerifyTransactionReceipt(*r, db_->signer())) {
    Fail(i, "receipt for txn " + std::to_string(pick.txn_id) +
                " failed offline verification");
    return;
  }
  Note(std::to_string(i) + " receipt txn=" + std::to_string(pick.txn_id) +
       " block=" + std::to_string(pick.block_id));
}

void SimDriver::DoVerify(size_t i) {
  if (!CommitOpenTxn(i)) return;
  auto report = VerifyLedger(db_.get(), trusted_);
  if (!report.ok()) {
    Fail(i, "VerifyLedger: " + report.status().message());
    return;
  }
  result_.verifications++;
  if (!report->ok()) {
    Fail(i, "verification reported violations on untampered data: " +
                report->Summary());
    return;
  }
  Note(std::to_string(i) + " verify blocks=" +
       std::to_string(report->blocks_checked) + " txns=" +
       std::to_string(report->transactions_checked) + " rows=" +
       std::to_string(report->row_versions_checked));
}

void SimDriver::DoIncrementalVerify(size_t i) {
  if (!CommitOpenTxn(i)) return;

  // Mirror the anchor union VerifyLedgerIncremental performs (watermark
  // anchor + latest durable digest, both presence-filtered), so the full
  // comparison run verifies the identical effective digest set.
  std::vector<DatabaseDigest> full_digests = trusted_;
  auto add_anchor = [&](const DatabaseDigest& d) {
    if (d.database_id != db_->options().database_id) return;
    if (!ledger()->FindBlock(d.block_id).ok()) return;
    for (const DatabaseDigest& e : full_digests)
      if (e == d) return;
    full_digests.push_back(d);
  };
  auto state = db_->GetVerificationState();
  if (state.has_value()) add_anchor(state->anchor);
  auto durable = db_->latest_durable_digest();
  if (durable.has_value()) add_anchor(*durable);

  auto inc = VerifyLedgerIncremental(db_.get(), trusted_);
  // The watermark save inside the call may consume an armed crash; the
  // report itself is still valid (saves are best-effort), but the diff is
  // skipped — recovery takes over and re-audits everything.
  if (HandleIfCrashed(i, [] {})) return;
  if (!inc.ok()) {
    Fail(i, "VerifyLedgerIncremental: " + inc.status().message());
    return;
  }
  result_.incremental_verifications++;
  if (!inc->ok()) {
    Fail(i, "incremental verification reported violations on untampered "
            "data: " +
                inc->Summary());
    return;
  }

  auto full = VerifyLedger(db_.get(), full_digests);
  if (!full.ok()) {
    Fail(i, "VerifyLedger (incremental diff): " + full.status().message());
    return;
  }
  if (!full->ok()) {
    Fail(i, "full verification disagreed with clean incremental verdict: " +
                full->Summary());
    return;
  }
  // Counter identities: the incremental run must account for exactly the
  // work the full run did — nothing double-counted, nothing dropped.
  if (full->blocks_checked != inc->blocks_checked ||
      inc->blocks_skipped + inc->blocks_reverified != inc->blocks_checked) {
    Fail(i, "incremental block accounting mismatch: full=" +
                std::to_string(full->blocks_checked) + " inc=" +
                std::to_string(inc->blocks_checked) + " skipped=" +
                std::to_string(inc->blocks_skipped) + " reverified=" +
                std::to_string(inc->blocks_reverified));
    return;
  }
  if (full->row_versions_checked !=
      inc->row_versions_checked + inc->row_versions_skipped) {
    Fail(i, "incremental row-version accounting mismatch: full=" +
                std::to_string(full->row_versions_checked) + " inc=" +
                std::to_string(inc->row_versions_checked) + "+" +
                std::to_string(inc->row_versions_skipped));
    return;
  }
  if (full->transactions_checked != inc->transactions_checked ||
      full->has_digest_coverage != inc->has_digest_coverage ||
      full->highest_digest_block != inc->highest_digest_block) {
    Fail(i, "incremental coverage mismatch: full=" + full->Summary() +
                " inc=" + inc->Summary());
    return;
  }
  Note(std::to_string(i) + " incverify watermark=" +
       std::to_string(inc->watermark_block) + " skipped_rows=" +
       std::to_string(inc->row_versions_skipped) + " fellback=" +
       std::to_string(inc->fell_back_to_full ? 1 : 0));
}

void SimDriver::DoCheckpoint(size_t i) {
  if (!CommitOpenTxn(i)) return;
  Status st = db_->Checkpoint();
  if (HandleIfCrashed(i, [] {})) return;
  if (!st.ok()) {
    Fail(i, "Checkpoint: " + st.message());
    return;
  }
  Note(std::to_string(i) + " checkpoint OK");
}

void SimDriver::DoCrash(size_t i) {
  fenv_->SimulateCrash();
  HandleIfCrashed(i, [] {});
}

void SimDriver::DoTamper(size_t i, const SimOp& op) {
  if (!CommitOpenTxn(i)) return;
  uint64_t kind = op.arg % 6;
  uint64_t sel = static_cast<uint64_t>(op.key);

  // Closed-chain state must be durably in the tables before entry/block
  // mutations can target it.
  Status drain = ledger()->DrainQueue();
  if (!drain.ok()) {
    Fail(i, "tamper drain: " + drain.message());
    return;
  }

  // The mutation, selected deterministically from model state, plus its
  // exact inverse for the revert pass.
  std::function<bool()> mutate, revert;
  std::vector<int> expect;  // acceptable violation invariants
  std::string what;

  auto pick_table = [&](bool need_history,
                        bool need_rows) -> ReferenceModel::Table* {
    std::vector<ReferenceModel::Table*> cands;
    for (const std::string& name : registry_) {
      ReferenceModel::Table* t = model_->FindTable(name);
      if (t == nullptr || t->kind == TableKind::kRegular) continue;
      if (need_rows && t->rows.empty()) continue;
      if (need_history && (t->history_table_id == 0 || t->history.empty()))
        continue;
      cands.push_back(t);
    }
    if (cands.empty()) return nullptr;
    return cands[sel % cands.size()];
  };
  auto nth_key = [&](const std::map<KeyTuple, Row, KeyTupleLess>& m,
                     uint64_t n) {
    auto it = m.begin();
    std::advance(it, static_cast<long>(n % m.size()));
    return it->first;
  };
  auto flip_cell = [&](TableStore* store, const KeyTuple& key, size_t ord) {
    Row* row = store->mutable_clustered()->MutableGet(key);
    if (row == nullptr) return false;
    Value old = (*row)[ord];
    Value now;
    if (old.is_null()) {
      now = old.type() == DataType::kVarchar ? Value::Varchar("tampered")
                                             : Value::Int(424242);
    } else if (old.type() == DataType::kVarchar) {
      std::string s(old.string_value());
      if (s.empty()) s = "x";
      else s[0] = static_cast<char>(s[0] ^ 0x1);
      now = Value::Varchar(std::move(s));
    } else if (old.type() == DataType::kInt) {
      now = Value::Int(static_cast<int32_t>(old.AsInt64() ^ 1));
    } else {
      now = Value::BigInt(old.AsInt64() ^ 1);
    }
    (*row)[ord] = now;
    revert = [store, key, ord, old] {
      Row* r = store->mutable_clustered()->MutableGet(key);
      if (r == nullptr) return false;
      (*r)[ord] = old;
      return true;
    };
    return true;
  };
  // A visible, non-key column ordinal of the table's schema.
  auto victim_ord = [&](const Schema& schema) -> int {
    std::vector<int> ords;
    for (size_t j = 0; j < schema.columns().size(); j++) {
      const ColumnDef& c = schema.column(j);
      if (c.hidden || c.dropped) continue;
      bool is_key = false;
      for (size_t k : schema.key_ordinals()) is_key |= (k == j);
      if (!is_key) ords.push_back(static_cast<int>(j));
    }
    if (ords.empty()) return -1;
    return ords[(sel >> 8) % ords.size()];
  };

  switch (kind) {
    case 0: {  // flip a live user cell
      ReferenceModel::Table* t = pick_table(false, true);
      if (t == nullptr) break;
      TableStore* store = db_->GetStoreForTesting(t->name);
      int ord = store == nullptr ? -1 : victim_ord(store->schema());
      if (ord < 0) break;
      KeyTuple key = nth_key(t->rows, sel >> 16);
      mutate = [&, store, key, ord] {
        return flip_cell(store, key, static_cast<size_t>(ord));
      };
      expect = {4, 5};
      what = "live-cell " + t->name;
      break;
    }
    case 1: {  // flip a history cell
      ReferenceModel::Table* t = pick_table(true, false);
      if (t == nullptr) break;
      TableStore* store = db_->GetStoreForTesting(t->name, /*history=*/true);
      int ord = store == nullptr ? -1 : victim_ord(store->schema());
      if (ord < 0) break;
      KeyTuple key = nth_key(t->history, sel >> 16);
      mutate = [&, store, key, ord] {
        return flip_cell(store, key, static_cast<size_t>(ord));
      };
      expect = {4, 5};
      what = "history-cell " + t->name;
      break;
    }
    case 2: {  // delete a live row (index-maintaining, so invariant 4 only)
      ReferenceModel::Table* t = pick_table(false, true);
      if (t == nullptr) break;
      TableStore* store = db_->GetStoreForTesting(t->name);
      if (store == nullptr) break;
      KeyTuple key = nth_key(t->rows, sel >> 16);
      mutate = [&, store, key] {
        const Row* row = store->Get(key);
        if (row == nullptr) return false;
        Row saved = *row;
        if (!store->Delete(key).ok()) return false;
        revert = [store, saved] { return store->Insert(saved).ok(); };
        return true;
      };
      expect = {4, 6};
      what = "row-delete " + t->name;
      break;
    }
    case 3: {  // flip a byte inside a closed entry's table_roots blob
      std::vector<const TransactionEntry*> cands;
      for (const TransactionEntry& e : model_->entries())
        if (e.block_id < model_->open_block_id() && !e.table_roots.empty())
          cands.push_back(&e);
      if (cands.empty()) break;
      const TransactionEntry& e = *cands[sel % cands.size()];
      TableStore* txns = ledger()->transactions_table_for_testing();
      KeyTuple key{Value::BigInt(static_cast<int64_t>(e.txn_id))};
      mutate = [&, txns, key] {
        Row* row = txns->mutable_clustered()->MutableGet(key);
        if (row == nullptr || (*row)[5].string_value().size() < 2)
          return false;
        Value old = (*row)[5];
        std::vector<uint8_t> bytes(old.string_value().begin(),
                                   old.string_value().end());
        bytes[1 + (sel >> 16) % (bytes.size() - 1)] ^= 0x40;
        (*row)[5] = Value::Varbinary(std::move(bytes));
        revert = [txns, key, old] {
          Row* r = txns->mutable_clustered()->MutableGet(key);
          if (r == nullptr) return false;
          (*r)[5] = old;
          return true;
        };
        return true;
      };
      expect = {3, 4};
      what = "entry-roots txn " + std::to_string(e.txn_id);
      break;
    }
    case 4:    // flip a block's previous-block hash
    case 5: {  // flip a block's transactions root
      std::vector<const BlockRecord*> cands;
      const auto& blocks = model_->blocks();
      for (size_t j = 0; j < blocks.size(); j++) {
        // For prev-hash flips the block needs a checked prev link (block 0
        // or a retained predecessor) or a successor whose link re-checks it.
        if (kind == 4 && blocks[j].block_id != 0 && j == 0 &&
            blocks.size() == 1)
          continue;
        cands.push_back(&blocks[j]);
      }
      if (cands.empty()) break;
      const BlockRecord& b = *cands[sel % cands.size()];
      TableStore* bt = ledger()->blocks_table_for_testing();
      KeyTuple key{Value::BigInt(static_cast<int64_t>(b.block_id))};
      size_t col = kind == 4 ? 1 : 2;
      mutate = [&, bt, key, col] {
        Row* row = bt->mutable_clustered()->MutableGet(key);
        if (row == nullptr) return false;
        Value old = (*row)[col];
        std::vector<uint8_t> bytes(old.string_value().begin(),
                                   old.string_value().end());
        if (bytes.empty()) return false;
        bytes[(sel >> 16) % bytes.size()] ^= 0x01;
        (*row)[col] = Value::Varbinary(std::move(bytes));
        revert = [bt, key, col, old] {
          Row* r = bt->mutable_clustered()->MutableGet(key);
          if (r == nullptr) return false;
          (*r)[col] = old;
          return true;
        };
        return true;
      };
      expect = kind == 4 ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 3};
      what = (kind == 4 ? "block-prev " : "block-root ") +
             std::to_string(b.block_id);
      break;
    }
    default:
      break;
  }

  if (!mutate) {
    Note(std::to_string(i) + " tamper skip");
    return;
  }
  if (!mutate()) {
    Fail(i, "tamper target missing in system store (" + what + ")");
    return;
  }
  result_.tampers++;

  auto report = VerifyLedger(db_.get(), trusted_);
  if (!report.ok()) {
    Fail(i, "tamper verify: " + report.status().message());
    return;
  }
  bool matched = false;
  for (const Violation& v : report->violations)
    for (int e : expect) matched |= (v.invariant == e);
  if (report->ok() || !matched) {
    Fail(i, "tamper (" + what + ") not detected with expected invariant: " +
                report->Summary());
    return;
  }
  size_t nviol = report->violations.size();

  if (!revert || !revert()) {
    Fail(i, "tamper revert failed (" + what + ")");
    return;
  }
  auto clean = VerifyLedger(db_.get(), trusted_);
  if (!clean.ok()) {
    Fail(i, "post-revert verify: " + clean.status().message());
    return;
  }
  if (!(*clean).ok()) {
    Fail(i, "violations persist after exact revert (" + what + "): " +
                clean->Summary());
    return;
  }
  Note(std::to_string(i) + " tamper " + what + " violations=" +
       std::to_string(nviol) + " reverted");
}

void SimDriver::AdoptTables(size_t i,
                            const std::map<std::string, std::vector<Row>>& pre) {
  for (const std::string& name : registry_) {
    ReferenceModel::Table* mt = model_->FindTable(name);
    TableStore* main = db_->GetStoreForTesting(name);
    if (mt == nullptr || main == nullptr) {
      Fail(i, "adopt-tables: missing table '" + name + "'");
      return;
    }
    // User-visible contents must be untouched by truncation's re-stamping.
    auto it = pre.find(name);
    if (it != pre.end()) {
      auto txn = db_->Begin("sim:adopt");
      if (!txn.ok()) {
        Fail(i, "adopt-tables Begin: " + txn.status().message());
        return;
      }
      auto scan = db_->Scan(*txn, name);
      db_->Abort(*txn);
      model_->ConsumeTxnIds(1);
      if (!scan.ok()) {
        Fail(i, "adopt-tables scan '" + name + "': " + scan.status().message());
        return;
      }
      if (scan->size() != it->second.size()) {
        Fail(i, "truncation changed visible row count of '" + name +
                    "': " + std::to_string(it->second.size()) + " -> " +
                    std::to_string(scan->size()));
        return;
      }
      for (size_t j = 0; j < scan->size(); j++) {
        if (RowToString((*scan)[j]) != RowToString(it->second[j])) {
          Fail(i, "truncation changed visible row " + std::to_string(j) +
                      " of '" + name + "': " + RowToString(it->second[j]) +
                      " -> " + RowToString((*scan)[j]));
          return;
        }
      }
    }
    if (mt->kind == TableKind::kRegular) continue;
    // Adopt the system's physical rows (hidden columns were re-stamped by
    // the truncation's dummy updates).
    std::map<KeyTuple, Row, KeyTupleLess> rows, history;
    for (BTree::Iterator bit = main->Scan(); bit.Valid(); bit.Next())
      rows[bit.key()] = bit.value();
    TableStore* hist = db_->GetStoreForTesting(name, /*history=*/true);
    if (hist != nullptr)
      for (BTree::Iterator bit = hist->Scan(); bit.Valid(); bit.Next())
        history[bit.key()] = bit.value();
    model_->ReplaceTableContents(name, std::move(rows), std::move(history));
  }
}

void SimDriver::DoTruncate(size_t i, const SimOp& op) {
  if (!CommitOpenTxn(i)) return;
  uint64_t open_id = model_->open_block_id();
  if (open_id == 0 || trusted_.empty()) {
    Note(std::to_string(i) + " truncate skip");
    return;
  }
  uint64_t below = 1 + op.arg % open_id;
  // Half the time aim below the lowest live append-only anchor so the
  // truncation can actually succeed (such a row pins its block forever — it
  // can never be dummy-updated into a fresh transaction); otherwise keep the
  // raw cutoff to exercise the refusal paths.
  if ((op.arg >> 32) & 1) {
    uint64_t safe = open_id;
    for (CatalogEntry* e : db_->AllTables()) {
      if (e->is_system || e->kind != TableKind::kAppendOnly) continue;
      for (BTree::Iterator it = e->main->Scan(); it.Valid(); it.Next()) {
        const Value& start_txn = it.value()[e->ref.start_txn_ord];
        if (start_txn.is_null()) continue;
        auto entry =
            ledger()->FindEntry(static_cast<uint64_t>(start_txn.AsInt64()));
        if (entry.ok() && entry->block_id < safe) safe = entry->block_id;
      }
    }
    if (below > safe) below = safe;
    if (below == 0) {
      Note(std::to_string(i) + " truncate skip (anchored at block 0)");
      return;
    }
  }

  // Snapshot user-visible contents; truncation must not change them.
  std::map<std::string, std::vector<Row>> pre;
  for (const std::string& name : registry_) {
    auto rows = model_->Scan(name);
    if (rows.ok()) pre[name] = std::move(*rows);
  }

  auto first_block = [this]() -> uint64_t {
    uint64_t first = UINT64_MAX;  // UINT64_MAX = no closed blocks
    for (const BlockRecord& b : ledger()->AllBlocks())
      if (b.block_id < first) first = b.block_id;
    return first;
  };
  uint64_t first_before = first_block();
  Status st = TruncateLedger(db_.get(), below, trusted_);
  if (HandleIfCrashed(
          i, [&] { AdoptTables(i, pre); }, /*check_prefix=*/false))
    return;
  bool removed_blocks = st.ok() && first_block() > first_before;
  // Even a failed truncation may have committed dummy-update transactions
  // before erroring out; resync from system truth either way.
  if (!RebuildChain(i, /*check_prefix=*/false)) return;
  AdoptTables(i, pre);
  if (diverged_) return;
  ProbeTxnCounter(i);
  FullAudit(i);
  if (diverged_) return;
  if (removed_blocks) result_.truncations++;
  Note(std::to_string(i) + " truncate below=" + std::to_string(below) + " " +
       CodeName(st.code()) + (removed_blocks ? " removed" : ""));
}

// ---- Digest protection ----

bool SimDriver::SubmitDigestToPipeline(size_t i, const DatabaseDigest& d) {
  DigestUploadPipeline* p = db_->digest_pipeline();
  if (p == nullptr) return false;
  Status st = p->SubmitDigest(d);
  if (st.ok()) {
    submission_log_.push_back({d.ToJson(), d.block_id, /*accepted=*/true});
  } else if (fenv_->crashed()) {
    // Ambiguous: the append may or may not have reached the outbox log
    // before the crash. Either resolution is legal — the audit tolerates
    // both — and recovery happens in the caller's safety net.
    submission_log_.push_back({d.ToJson(), d.block_id, /*accepted=*/false});
    return false;
  } else if (st.code() == StatusCode::kBusy) {
    // Outbox full mid-outage: a deterministic drop. The next accepted
    // digest covers the whole chain, so protection resumes at recovery.
    Note(std::to_string(i) + " digest_submit rejected (outbox full)");
    return false;
  } else {
    Fail(i, "SubmitDigest: " + st.message());
    return false;
  }
  (void)p->Pump();  // honors outage state; progress is audited below
  if (fenv_->crashed()) return true;  // safety net recovers + audits
  AuditDigestStore(i);
  return true;
}

bool SimDriver::DrainPipeline(size_t i) {
  DigestUploadPipeline* p = db_->digest_pipeline();
  if (p == nullptr) return true;
  // Seeded transient faults make individual rounds fail; with zero backoff
  // every round retries, so the guard only trips on a genuine wedge.
  for (int guard = 0; guard < 100000; guard++) {
    if (fenv_->crashed()) return true;  // caller's safety net recovers
    DigestProtectionStatus s = p->status();
    if (!s.fatal.ok()) {
      Fail(i, "pipeline latched fatal during drain: " + s.fatal.ToString());
      return false;
    }
    if (s.outbox_pending == 0) return true;
    (void)p->Pump();  // retry round; convergence enforced by the guard
  }
  Fail(i, "pipeline failed to drain " +
              std::to_string(p->status().outbox_pending) + " pending digests");
  return false;
}

bool SimDriver::AuditDigestStore(size_t i) {
  DigestUploadPipeline* p = db_->digest_pipeline();
  if (p == nullptr || diverged_) return !diverged_;
  // Read the remote store directly — the audit is an out-of-band oracle,
  // not a client subject to the injected outage.
  auto all = remote_store_->ListAll();
  if (!all.ok()) {
    Fail(i, "digest store audit: ListAll: " + all.status().message());
    return false;
  }
  std::vector<std::string> pend = p->outbox()->Pending();
  std::set<std::string> pending(pend.begin(), pend.end());

  // Stored digests must be an order-preserving subset of the submission
  // log, and any accepted submission skipped over must still be pending
  // replay (crash windows legally re-queue already-uploaded digests; the
  // idempotent store absorbs the re-upload without a duplicate).
  size_t pos = 0;
  for (const DatabaseDigest& d : *all) {
    std::string json = d.ToJson();
    size_t k = pos;
    while (k < submission_log_.size() && submission_log_[k].json != json) k++;
    if (k == submission_log_.size()) {
      Fail(i, "digest store holds an unsubmitted or out-of-order digest "
              "(block " +
                  std::to_string(d.block_id) + ")");
      return false;
    }
    for (size_t s = pos; s < k; s++) {
      if (submission_log_[s].accepted && !pending.count(submission_log_[s].json)) {
        Fail(i, "accepted digest (block " +
                    std::to_string(submission_log_[s].block_id) +
                    ") missing from the store and not pending");
        return false;
      }
    }
    pos = k + 1;
  }
  for (size_t s = pos; s < submission_log_.size(); s++) {
    if (submission_log_[s].accepted && !pending.count(submission_log_[s].json)) {
      Fail(i, "accepted digest (block " +
                  std::to_string(submission_log_[s].block_id) +
                  ") neither stored nor pending");
      return false;
    }
  }
  return true;
}

void SimDriver::DoStoreOutage(size_t i, const SimOp& op) {
  bool begin = op.kind == SimOpKind::kStoreOutageBegin;
  if (faulty_store_ == nullptr || db_->digest_pipeline() == nullptr) {
    Note(std::to_string(i) + " store_outage skip");
    return;
  }
  // The generator balances begin/end, but minimized subsequences need not;
  // resolve redundant transitions as deterministic no-ops.
  if (begin == store_outage_) {
    Note(std::to_string(i) + " store_outage skip");
    return;
  }
  store_outage_ = begin;
  faulty_store_->SetOutage(begin);
  if (begin) {
    result_.store_outages++;
    Note(std::to_string(i) + " store_outage begin");
    return;
  }
  // Outage lifted: queued digests must catch up in order and the store
  // must agree with the submission log.
  if (!DrainPipeline(i)) return;
  if (fenv_->crashed()) return;  // safety net recovers + audits
  if (!AuditDigestStore(i)) return;
  Note(std::to_string(i) + " store_outage end pending=" +
       std::to_string(db_->digest_pipeline()->status().outbox_pending));
}

// ---- Deep audit ----

void SimDriver::FullAudit(size_t i) {
  if (diverged_ || txn_ != nullptr) return;
  auto r = db_->Begin("sim:audit");
  if (!r.ok()) {
    Fail(i, "audit Begin: " + r.status().message());
    return;
  }
  uint64_t mid = model_->BeginTxn("sim:audit");
  if ((*r)->id() != mid) {
    db_->Abort(*r);
    model_->AbortTxn();
    Fail(i, "audit txn id mismatch: system " + std::to_string((*r)->id()) +
                " vs model " + std::to_string(mid));
    return;
  }
  for (const std::string& name : registry_) {
    auto ss = db_->Scan(*r, name);
    auto ms = model_->Scan(name);
    if (!ss.ok() || !ms.ok()) {
      db_->Abort(*r);
      model_->AbortTxn();
      Fail(i, "audit scan '" + name + "': system " +
                  CodeName(ss.ok() ? StatusCode::kOk : ss.status().code()) +
                  " vs model " +
                  CodeName(ms.ok() ? StatusCode::kOk : ms.status().code()));
      return;
    }
    if (ss->size() != ms->size()) {
      db_->Abort(*r);
      model_->AbortTxn();
      Fail(i, "audit '" + name + "': system " + std::to_string(ss->size()) +
                  " rows vs model " + std::to_string(ms->size()));
      return;
    }
    for (size_t j = 0; j < ss->size(); j++) {
      if (RowToString((*ss)[j]) != RowToString((*ms)[j])) {
        db_->Abort(*r);
        model_->AbortTxn();
        Fail(i, "audit '" + name + "' row " + std::to_string(j) +
                    ": system " + RowToString((*ss)[j]) + " vs model " +
                    RowToString((*ms)[j]));
        return;
      }
    }
  }
  db_->Abort(*r);
  model_->AbortTxn();
  if (ledger()->open_block_id() != model_->open_block_id() ||
      ledger()->open_block_entry_count() != model_->open_entries().size() ||
      !(ledger()->last_block_hash() == model_->last_block_hash())) {
    Fail(i, "audit chain mismatch: system block " +
                std::to_string(ledger()->open_block_id()) + "+" +
                std::to_string(ledger()->open_block_entry_count()) + " tip " +
                HashHex(ledger()->last_block_hash()) + " vs model block " +
                std::to_string(model_->open_block_id()) + "+" +
                std::to_string(model_->open_entries().size()) + " tip " +
                HashHex(model_->last_block_hash()));
    return;
  }
  // Group-commit determinism: the driver commits one transaction at a time
  // with a zero linger, so every group must be a singleton. A larger group
  // here would mean group boundaries depend on scheduling — the exact
  // nondeterminism the simulator exists to rule out.
  MetricsSnapshot metrics = db_->MetricsSnapshot();
  uint64_t groups = metrics.counters["commit.groups_total"];
  uint64_t grouped = metrics.counters["commit.group_txns_total"];
  uint64_t largest = metrics.histograms["commit.group_size"].max;
  if (groups != grouped || largest > 1) {
    Fail(i, "audit group-commit mismatch: " + std::to_string(groups) +
                " groups for " + std::to_string(grouped) +
                " grouped txns (largest " + std::to_string(largest) + ")");
    return;
  }
  // Incremental-verification watermark vs the model's full recomputation:
  // whatever block the persisted state claims to have verified must hash,
  // when recomputed the slow obvious way from the model, to the stored
  // anchor hash. A watermark for a block the model no longer has is legal
  // staleness (crash lost the unsynced tail); the verifier's re-anchor
  // check falls back to a full pass in that case.
  auto vstate = db_->GetVerificationState();
  if (vstate.has_value()) {
    for (const BlockRecord& b : model_->blocks()) {
      if (b.block_id != vstate->last_verified_block) continue;
      if (!(b.ComputeHash() == vstate->block_hash)) {
        Fail(i, "audit watermark mismatch: state claims block " +
                    std::to_string(vstate->last_verified_block) + " hash " +
                    HashHex(vstate->block_hash) + " but model recomputes " +
                    HashHex(b.ComputeHash()));
        return;
      }
      if (vstate->anchor.block_id != vstate->last_verified_block) {
        Fail(i, "audit watermark anchor mismatch: anchored to block " +
                    std::to_string(vstate->anchor.block_id) +
                    " but watermark is " +
                    std::to_string(vstate->last_verified_block));
      }
      break;
    }
  }
}

// ---- Main loop ----

void SimDriver::ExecuteOp(size_t i, const SimOp& op) {
  if (diverged_) return;
  switch (op.kind) {
    case SimOpKind::kBegin:
      DoBegin(i, op);
      break;
    case SimOpKind::kCommit:
      if (txn_ == nullptr) {
        Note(std::to_string(i) + " commit skip");
        break;
      }
      CommitOpenTxn(i);
      break;
    case SimOpKind::kAbort:
      if (txn_ == nullptr) {
        Note(std::to_string(i) + " abort skip");
        break;
      }
      db_->Abort(txn_);
      txn_ = nullptr;
      model_->AbortTxn();
      Note(std::to_string(i) + " abort");
      break;
    case SimOpKind::kInsert:
    case SimOpKind::kUpdate:
    case SimOpKind::kDelete:
    case SimOpKind::kGet:
    case SimOpKind::kScan:
      DoDml(i, op);
      break;
    case SimOpKind::kSavepoint:
      DoSavepoint(i, op);
      break;
    case SimOpKind::kRollbackToSave:
      DoRollbackToSave(i, op);
      break;
    case SimOpKind::kCreateTable:
      DoCreateTable(i, op);
      break;
    case SimOpKind::kAddColumn:
      DoAddColumn(i, op);
      break;
    case SimOpKind::kDropColumn:
      DoDropColumn(i, op);
      break;
    case SimOpKind::kCreateIndex:
      DoCreateIndex(i, op);
      break;
    case SimOpKind::kLedgerView:
      DoLedgerView(i, op);
      break;
    case SimOpKind::kOpsView:
      DoOpsView(i);
      break;
    case SimOpKind::kDigest:
      DoDigest(i);
      break;
    case SimOpKind::kReceipt:
      DoReceipt(i, op);
      break;
    case SimOpKind::kVerify:
      DoVerify(i);
      break;
    case SimOpKind::kIncrementalVerify:
      DoIncrementalVerify(i);
      break;
    case SimOpKind::kCheckpoint:
      DoCheckpoint(i);
      break;
    case SimOpKind::kCrash:
      DoCrash(i);
      break;
    case SimOpKind::kArmCrash:
      fenv_->CrashAtSync(static_cast<int>(op.arg));
      Note(std::to_string(i) + " arm_crash " + std::to_string(op.arg));
      break;
    case SimOpKind::kTamper:
      DoTamper(i, op);
      break;
    case SimOpKind::kTruncate:
      DoTruncate(i, op);
      break;
    case SimOpKind::kStoreOutageBegin:
    case SimOpKind::kStoreOutageEnd:
      DoStoreOutage(i, op);
      break;
  }
}

SimResult SimDriver::Run(const std::vector<SimOp>& trace) {
  Status st = Setup();
  if (!st.ok()) {
    result_.ok = false;
    if (result_.message.empty()) result_.message = "setup: " + st.message();
    result_.outcome_fingerprint = Sha256::Digest(Slice(log_)).ToHex();
    return result_;
  }
  for (size_t i = 0; i < trace.size() && !diverged_; i++) {
    ExecuteOp(i, trace[i]);
    // Safety net: an armed crash can fire inside any handler; by here every
    // handler has finished its own resolution, so a still-crashed env means
    // a generic recover is due.
    if (!diverged_ && fenv_->crashed()) HandleIfCrashed(i, [] {});
    if (!diverged_ && txn_ == nullptr && config_.audit_interval > 0 &&
        (i + 1) % config_.audit_interval == 0)
      FullAudit(i);
    if (!diverged_ && txn_ == nullptr && config_.verify_interval > 0 &&
        (i + 1) % config_.verify_interval == 0)
      DoVerify(i);
  }

  // Epilogue: disarm pending crashes, settle the open transaction, then
  // take the final digest + full verification the fingerprint is built on.
  size_t end = trace.size();
  if (!diverged_) {
    fenv_->CrashAtSync(-1);
    CommitOpenTxn(end);
  }
  bool final_submitted = false;
  if (!diverged_) {
    auto d = db_->GenerateDigest();
    if (!d.ok()) {
      Fail(end, "final digest: " + d.status().message());
    } else if (IngestNewEntries(end)) {
      DatabaseDigest expected = model_->ExpectedDigest(
          db_->options().database_id, db_->create_time());
      if (d->block_id != expected.block_id ||
          !(d->block_hash == expected.block_hash)) {
        Fail(end, "final digest mismatch: system block " +
                      std::to_string(d->block_id) + " hash " +
                      HashHex(d->block_hash) + " vs model block " +
                      std::to_string(expected.block_id) + " hash " +
                      HashHex(expected.block_hash));
      } else {
        trusted_.push_back(*d);
        result_.digests++;
        result_.final_digest_hex =
            std::to_string(d->block_id) + ":" + HashHex(d->block_hash);
        ProbeTxnCounter(end);
        final_submitted = SubmitDigestToPipeline(end, *d);
      }
    }
  }
  // Settle digest protection: lift any outage the trace left open, drain
  // the outbox, re-audit, and — when the final digest made it into the
  // outbox — assert staleness fell back to zero.
  if (!diverged_ && db_->digest_pipeline() != nullptr) {
    if (store_outage_) {
      store_outage_ = false;
      faulty_store_->SetOutage(false);
      Note("epilogue store_outage end");
    }
    if (DrainPipeline(end) && AuditDigestStore(end) && final_submitted) {
      DigestProtectionStatus s = db_->digest_pipeline()->status();
      if (!s.fully_protected())
        Fail(end, "digest protection did not catch up: " + s.ToString());
    }
  }
  if (!diverged_) DoVerify(end);
  if (!diverged_) DoIncrementalVerify(end);
  if (!diverged_) FullAudit(end);

  result_.ok = !diverged_;
  result_.outcome_fingerprint = Sha256::Digest(Slice(log_)).ToHex();
  // Observability determinism check (DESIGN.md §13): under the pinned
  // metrics clock, the final metrics snapshot and trace export must replay
  // byte-for-byte for the same seed, just like the outcome log.
  if (db_ != nullptr) {
    std::string obs = MetricsToJson(db_->MetricsSnapshot()).Dump();
    obs += db_->tracer()->ToChromeJson().Dump();
    result_.metrics_fingerprint = Sha256::Digest(Slice(obs)).ToHex();
  }
  return result_;
}

// ---- Free functions ----

SimResult RunTrace(const SimConfig& config, const std::vector<SimOp>& trace) {
  SimDriver driver(config);
  return driver.Run(trace);
}

SimResult RunSim(const SimConfig& config) {
  return RunTrace(config, GenerateTrace(config.seed, config.gen));
}

std::vector<SimOp> MinimizeTrace(const SimConfig& config,
                                 std::vector<SimOp> trace) {
  if (RunTrace(config, trace).ok) return trace;
  size_t chunk = trace.size() / 2;
  while (chunk >= 1) {
    bool removed_any = false;
    size_t i = 0;
    while (i < trace.size()) {
      std::vector<SimOp> candidate;
      candidate.reserve(trace.size());
      candidate.insert(candidate.end(), trace.begin(),
                       trace.begin() + static_cast<long>(i));
      size_t hi = std::min(trace.size(), i + chunk);
      candidate.insert(candidate.end(),
                       trace.begin() + static_cast<long>(hi), trace.end());
      if (candidate.size() < trace.size() &&
          !RunTrace(config, candidate).ok) {
        trace = std::move(candidate);
        removed_any = true;
        // keep i: the next chunk slid into place
      } else {
        i += chunk;
      }
    }
    if (chunk == 1 && !removed_any) break;
    if (!removed_any) chunk /= 2;
  }
  return trace;
}

}  // namespace sim
}  // namespace sqlledger

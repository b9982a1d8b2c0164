// The auditor's workload (paper §3.4, §5.1): one session against a ledger
// of 4,000 five-row transactions of 260-byte rows (20k row versions), a
// point on Fig. 9's size axis. The database is durable (checkpointed, so
// receipts read the ledger's system table) but does no fsync per commit:
// the auditor's path has none.
//
// Not Fig. 9's largest point (16,000): there a receipt scans a transactions
// table that no longer fits in a core's own caches, and load from other
// tenants of the shared calibration host made receipts up to 2.4 times
// slower from one run to the next. In three interleaved comparisons of 8-10
// runs each, 4,000 cut the run-to-run spread (interquartile range over
// median) of the request rate from 0.14-0.26 to 0.07-0.08, of the 99th
// percentile from 0.09-0.14 to 0.05-0.09, and of the median from 0.14-0.60
// to 0.04-0.24.
//
// The measured requests: first a receipt phase (50 receipts per cycle, each
// made and checked offline), then the auditor's steady state, one cycle per
// digest: the application appends a small batch and a digest is uploaded
// (not requests), then the auditor verifies incrementally and in full at
// p=4. With that fixed 50:1:1 request mix the request median is a receipt
// and the 99th percentile falls on the full verifications, so both paths
// show in the request latencies.

#include <algorithm>
#include <array>
#include <string>

#include "harness.h"
#include "ledger/digest_store.h"
#include "ledger/ledger_database.h"
#include "ledger/receipt.h"
#include "ledger/verifier.h"
#include "util/random.h"

namespace ledger_bench {
namespace {

using namespace sqlledger;

struct AuditConfig {
  int load_txns = 4000;
  int rows_per_txn = 5;
  /// Set-ups before the measured requests, and as many after them (the
  /// reason is in oltp.cc).
  int setups = 3;
  /// The ledger grows by 60 transactions per second of --seconds.
  int append_txns_per_cycle = 10;
  int receipts_per_cycle = 50;
  /// Measured cycles per second of --seconds.
  double cycles_per_second = 6;
  int recovery_opens = 7;
  int p1_verifications = 3;
};

AuditConfig ConfigFor(const BenchOptions& options) {
  AuditConfig cfg;
  if (options.smoke) {
    cfg.load_txns = 1000;
    cfg.setups = 1;
    cfg.receipts_per_cycle = 10;
    cfg.recovery_opens = 2;
    cfg.p1_verifications = 1;
  }
  return cfg;
}

/// Application-side state: the next row id, a pool of seeded payloads
/// (generated before any timing) and every committed transaction id.
struct Appender {
  Appender(uint64_t seed, int rows_per_txn) : rng(seed), rows(rows_per_txn) {
    for (int i = 0; i < 64; i++) payloads.push_back(rng.AlphaString(244));
  }

  Random rng;
  int rows;
  int64_t next_id = 1;
  std::vector<std::string> payloads;
  std::vector<uint64_t> txn_ids;
  std::vector<int64_t> ack_wall_us;  // filled only while measuring
  std::vector<double> txn_us, insert_us, commit_us;

  /// Appends one transaction; spans go to `spans` when non-null.
  Status AppendOne(LedgerDatabase* db, SpanLog* spans, uint64_t parent,
                   bool record_ack) {
    const uint64_t id = spans != nullptr ? spans->NewId() : 0;
    const int64_t start = NowMicros();
    auto txn = db->Begin("app");
    if (!txn.ok()) return txn.status();
    const int64_t begun = NowMicros();
    if (spans != nullptr)
      spans->Record("begin", "txn", start, begun, spans->NewId(), id, id);
    const uint64_t txn_id = (*txn)->id();
    for (int r = 0; r < rows; r++) {
      const int64_t i_start = NowMicros();
      Status st = db->Insert(
          *txn, "t",
          {Value::BigInt(next_id++), Value::BigInt(r),
           Value::Varchar(payloads[rng.Uniform(payloads.size())])});
      const int64_t i_end = NowMicros();
      if (!st.ok()) {
        db->Abort(*txn);
        return st;
      }
      insert_us.push_back(static_cast<double>(i_end - i_start));
      if (spans != nullptr)
        spans->Record("insert", "txn", i_start, i_end, spans->NewId(), id, id);
    }
    const int64_t c_start = NowMicros();
    Status st = db->Commit(*txn);
    const int64_t end = NowMicros();
    if (!st.ok()) return st;
    commit_us.push_back(static_cast<double>(end - c_start));
    txn_us.push_back(static_cast<double>(end - start));
    txn_ids.push_back(txn_id);
    if (record_ack) ack_wall_us.push_back(WallMicros());
    if (spans != nullptr) {
      spans->Record("commit", "txn", c_start, end, spans->NewId(), id, id);
      spans->Record("audit.append", "txn", start, end, id, parent, id);
    }
    return Status::OK();
  }
};

LedgerDatabaseOptions DbOptions(const std::string& dir, uint64_t seed) {
  LedgerDatabaseOptions options;
  options.data_dir = dir;
  options.database_id = "ledger-bench-audit-" + std::to_string(seed);
  options.block_size = 1000;
  // The auditor's path does no durable commits; the WAL only has to exist
  // so that reopening (what an auditor's tool does first) replays it.
  options.sync_wal = false;
  return options;
}

Status UploadDigest(LedgerDatabase* db) {
  DigestUploadPipeline* pipeline = db->digest_pipeline();
  SL_RETURN_IF_ERROR(pipeline->GenerateAndSubmit());
  return pipeline->DrainFully();
}

/// A loaded ledger. Members are destroyed appender first and digest store
/// last: the database's digest pipeline uses the store.
struct SetUp {
  std::unique_ptr<TimedDigestStore> store;
  std::unique_ptr<LedgerDatabase> db;
  std::unique_ptr<Appender> app;
};

/// Replaces `*out` with a fresh ledger under `dir`: open, create the table,
/// load it, start digest protection, upload the first digest and
/// checkpoint. Appends the set-up time to `seconds`; returns false after
/// recording a failure.
bool SetUpOnce(const AuditConfig& cfg, uint64_t seed, const std::string& dir,
               SpanLog* log, SetUp* out, std::vector<double>* seconds,
               RunResult* r) {
  out->app.reset();
  out->db.reset();
  out->store.reset();
  RemoveTree(dir + "/db");
  RemoveTree(dir + "/digests");
  if (!MakeDirs(dir)) {
    r->Fail("cannot create " + dir);
    return false;
  }
  out->app = std::make_unique<Appender>(seed, cfg.rows_per_txn);
  const int64_t start = NowMicros();
  auto opened = LedgerDatabase::Open(DbOptions(dir + "/db", seed));
  if (!opened.ok()) {
    r->Fail("open: " + opened.status().ToString());
    return false;
  }
  out->db = std::move(*opened);
  Status st = out->db->CreateTable("t", AuditSchema(), TableKind::kUpdateable);
  for (int i = 0; i < cfg.load_txns && st.ok(); i++)
    st = out->app->AppendOne(out->db.get(), nullptr, 0, false);
  out->store = OpenTimedStore(dir + "/digests", log, r);
  if (out->store == nullptr) return false;
  if (st.ok()) st = out->db->StartDigestProtection(out->store.get());
  if (st.ok()) st = UploadDigest(out->db.get());
  if (st.ok()) st = out->db->Checkpoint();
  if (!st.ok()) {
    r->Fail("setup: " + st.ToString());
    return false;
  }
  seconds->push_back(Seconds(NowMicros() - start));
  return true;
}

}  // namespace

RunResult RunAudit(const BenchOptions& options, const std::string& work_dir) {
  const AuditConfig cfg = ConfigFor(options);
  RunResult r;
  r.details.Set("env", EnvironmentRecord(options, work_dir));
  const std::string db_dir = work_dir + "/db";
  SpanLog spans(1);
  SpanLog* log = options.trace ? &spans : nullptr;

  // ---- Set-up, repeated; the last one serves the requests ----
  std::vector<double> setup_s;
  SetUp live;
  for (int k = 0; k < cfg.setups; k++) {
    if (!SetUpOnce(cfg, options.seed, work_dir, log, &live, &setup_s, &r))
      return r;
  }
  SetSetupSeconds(setup_s, &r);
  std::unique_ptr<TimedDigestStore> store = std::move(live.store);
  std::unique_ptr<LedgerDatabase> db = std::move(live.db);
  std::unique_ptr<Appender> app = std::move(live.app);
  r.SetTiming("ledger.append_txn_p50_us", Median(app->txn_us),
              app->txn_us.size());
  r.SetTiming("ledger.insert_p50_us", Median(app->insert_us),
              app->insert_us.size());
  r.SetTiming("ledger.commit_p50_us", Median(app->commit_us),
              app->commit_us.size());

  // ---- Measured requests ----
  Random rng(options.seed ^ 0xA0D17ULL);
  VerificationOptions p4;
  p4.parallelism = 4;
  std::vector<double> request_us, incr_s, full_s, receipt_us, make_us,
      check_us;
  uint64_t full_rows = 0, skipped = 0, incr_total = 0;
  std::array<double, 2> mode_ops{}, mode_us{};  // [untraced, traced]
  // A fixed number of cycles (about --seconds long on the calibration
  // machine), so the ledger grows by the same amount on every run.
  const int cycles = std::max(
      1, static_cast<int>(cfg.cycles_per_second * options.seconds + 0.5));
  auto record = [&](int64_t start, int64_t end, const char* name,
                    SpanLog* span_log, uint64_t parent) {
    if (span_log != nullptr)
      spans.Record(name, "request", start, end, spans.NewId(), parent, parent);
    request_us.push_back(static_cast<double>(end - start));
  };
  // Each cycle and each receipt batch alternates untraced/traced in the
  // trace run; the two halves' request rates give the tracing overhead.
  auto account = [&](bool traced, size_t requests, int64_t start) {
    mode_ops[traced ? 1 : 0] += static_cast<double>(requests);
    mode_us[traced ? 1 : 0] += static_cast<double>(NowMicros() - start);
  };

  // Receipts come first, one batch per cycle, before any verification has
  // run in this process: after one, receipt latency is two to four times
  // higher and swings with the allocator state the verifier leaves behind,
  // which would drown the receipt path's own cost in noise.
  const CpuTimes receipts_cpu0 = ProcessCpu();
  for (int batch = 0; batch < cycles && r.correct; batch++) {
    const bool traced = log != nullptr && batch % 2 == 1;
    SpanLog* batch_log = traced ? log : nullptr;
    const uint64_t batch_span = traced ? spans.NewId() : 0;
    const int64_t batch_start = NowMicros();
    for (int i = 0; i < cfg.receipts_per_cycle; i++) {
      const uint64_t txn_id = app->txn_ids[rng.Uniform(app->txn_ids.size())];
      const uint64_t id = batch_log != nullptr ? spans.NewId() : 0;
      const int64_t start = NowMicros();
      auto receipt = MakeTransactionReceipt(db.get(), txn_id);
      const int64_t made = NowMicros();
      bool ok = receipt.ok();
      if (ok) {
        // Offline: the auditor only has the JSON document and the key.
        auto parsed = TransactionReceipt::FromJson(receipt->ToJson());
        ok = parsed.ok() && parsed->entry.txn_id == txn_id &&
             VerifyTransactionReceipt(*parsed, db->signer());
      }
      const int64_t end = NowMicros();
      if (!ok) {
        r.failed++;
        r.Fail("receipt for txn " + std::to_string(txn_id) + " did not verify");
        break;
      }
      if (batch_log != nullptr) {
        spans.Record("receipt.make", "ledger", start, made, spans.NewId(), id,
                     id);
        spans.Record("receipt.check", "ledger", made, end, spans.NewId(), id,
                     id);
      }
      record(start, end, "receipt", batch_log, batch_span);
      receipt_us.push_back(static_cast<double>(end - start));
      make_us.push_back(static_cast<double>(made - start));
      check_us.push_back(static_cast<double>(end - made));
    }
    account(traced, cfg.receipts_per_cycle, batch_start);
    if (batch_log != nullptr)
      spans.Record("receipt.batch", "client", batch_start, NowMicros(),
                   batch_span, 0, batch_span);
  }
  const CpuTimes receipts_cpu1 = ProcessCpu();

  // Cycle -1 is an unrecorded warm-up. Its incremental verification finds no
  // watermark, verifies everything and seeds one.
  MetricsSnapshot before, after;
  CpuTimes cpu0, cpu1;
  int64_t cycles_t0 = 0;
  for (int cycle = -1; cycle < cycles && r.correct; cycle++) {
    const bool measuring = cycle >= 0;
    if (cycle == 0) {
      before = db->MetricsSnapshot();
      cpu0 = ProcessCpu();
      cycles_t0 = NowMicros();
    }
    const bool traced = log != nullptr && measuring && cycle % 2 == 1;
    SpanLog* cycle_log = traced ? log : nullptr;
    const uint64_t cycle_span = traced ? spans.NewId() : 0;
    const int64_t cycle_start = NowMicros();

    Status st;
    for (int i = 0; i < cfg.append_txns_per_cycle && st.ok(); i++)
      st = app->AppendOne(db.get(), cycle_log, cycle_span, measuring);
    if (st.ok()) st = UploadDigest(db.get());
    if (!st.ok()) {
      r.failed++;
      r.Fail("append/digest: " + st.ToString());
      break;
    }

    int64_t start = NowMicros();
    auto incr = VerifyLedgerAgainstStore(db.get(), *store, p4, true);
    int64_t end = NowMicros();
    if (!incr.ok() || !incr->ok() ||
        (measuring && (!incr->incremental || incr->fell_back_to_full))) {
      r.failed++;
      r.Fail("incremental verification: " +
             (incr.ok() ? incr->Summary() + " " + incr->fallback_reason
                        : incr.status().ToString()));
      break;
    }
    const uint64_t incr_rows =
        incr->row_versions_checked + incr->row_versions_skipped;
    if (measuring) {
      record(start, end, "verify.incremental", cycle_log, cycle_span);
      incr_s.push_back(Seconds(end - start));
      skipped += incr->row_versions_skipped;
      incr_total += incr_rows;
    }

    start = NowMicros();
    auto full = VerifyLedgerAgainstStore(db.get(), *store, p4, false);
    end = NowMicros();
    if (!full.ok() || !full->ok()) {
      r.failed++;
      r.Fail("full verification: " +
             (full.ok() ? full->Summary() : full.status().ToString()));
      break;
    }
    r.Check(full->row_versions_checked == incr_rows,
            "incremental checked+skipped " + std::to_string(incr_rows) +
                " != full run's " +
                std::to_string(full->row_versions_checked));
    if (measuring) {
      record(start, end, "verify.full", cycle_log, cycle_span);
      full_s.push_back(Seconds(end - start));
      full_rows = full->row_versions_checked;
      account(traced, 2, cycle_start);
    }
    if (cycle_log != nullptr)
      spans.Record("audit.cycle", "client", cycle_start, NowMicros(),
                   cycle_span, 0, cycle_span);
  }

  after = db->MetricsSnapshot();
  cpu1 = ProcessCpu();

  // ---- End-to-end and per-layer numbers ----
  const uint64_t ops = request_us.size();
  // Measured time: the receipt batches and the measured cycles.
  const double seconds = std::max((mode_us[0] + mode_us[1]) / 1e6, 1e-6);
  r.attempted = ops + r.failed;
  r.Check(!full_s.empty() && !receipt_us.empty(),
          "no full verification or receipt was measured");
  r.Set("ops_per_s", static_cast<double>(ops) / seconds);
  r.SetTiming("op_p50_us", Percentile(request_us, 50), ops);
  r.SetTiming("op_p99_us", Percentile(request_us, 99), ops);
  const double denom = static_cast<double>(std::max<uint64_t>(ops, 1));
  const double user_s = (receipts_cpu1.user_s - receipts_cpu0.user_s) +
                        (cpu1.user_s - cpu0.user_s);
  const double sys_s =
      (receipts_cpu1.sys_s - receipts_cpu0.sys_s) + (cpu1.sys_s - cpu0.sys_s);
  r.Set("workload.cpu_us_per_op", (user_s + sys_s) * 1e6 / denom);
  r.Set("workload.sys_cpu_share",
        user_s + sys_s > 0 ? sys_s / (user_s + sys_s) : 0);

  const double full_med = Median(full_s);
  r.SetTiming("ledger.verify_full_s", full_med, full_s.size());
  r.SetTiming("ledger.verify_incr_s", Median(incr_s), incr_s.size());
  r.SetTiming("ledger.receipt_p50_us", Percentile(receipt_us, 50),
              receipt_us.size());
  r.SetTiming("ledger.receipt_p99_us", Percentile(receipt_us, 99),
              receipt_us.size());
  r.SetTiming("ledger.receipt_make_p50_us", Median(make_us), make_us.size());
  r.SetTiming("ledger.receipt_check_p50_us", Median(check_us),
              check_us.size());
  if (full_med > 0)
    r.Set("ledger.verify_rows_per_s", static_cast<double>(full_rows) / full_med);
  const double verify_runs =
      static_cast<double>(std::max<size_t>(1, full_s.size() + incr_s.size()));
  r.Set("ledger.verify_reanchor_ms",
        static_cast<double>(
            HistogramDelta(before, after, "verify.reanchor_micros").sum) /
            1000.0 / verify_runs);
  r.Set("ledger.verify_tree_hash_ms",
        static_cast<double>(
            HistogramDelta(before, after, "verify.tree_hash_micros").sum) /
            1000.0 / verify_runs);
  r.Set("ledger.verify_view_check_ms",
        static_cast<double>(
            HistogramDelta(before, after, "verify.view_check_micros").sum) /
            1000.0 / verify_runs);
  r.Set("ledger.incr_skip_ratio",
        incr_total == 0 ? 0
                        : static_cast<double>(skipped) /
                              static_cast<double>(incr_total));
  r.Set("ledger.verify_fallbacks_total",
        static_cast<double>(CounterDelta(before, after, "verify.fallbacks_total")));
  // One session appending without fsync: no transaction mix, no lock
  // contention, no durable commits and no checkpoint in the measured phase.
  r.SetUnexercised(
      {"workload.new_order_p50_us", "workload.payment_p50_us",
       "workload.delivery_p50_us", "workload.order_status_p50_us",
       "workload.stock_level_p50_us", "workload.trade_order_p50_us",
       "workload.trade_result_p50_us", "workload.market_feed_p50_us",
       "workload.tpce_read_p50_us", "workload.new_order_p99_us",
       "workload.payment_p99_us", "workload.tpce_read_p99_us",
       "workload.attributed_share", "workload.abort_ratio",
       "txn.lock_waits_per_txn", "txn.lock_wait_p50_us", "txn.lock_wait_p99_us",
       "txn.lock_wait_share", "txn.deadlocks_total", "txn.lock_timeouts_total",
       "ledger.commit_wait_p50_us", "ledger.commit_wait_p99_us",
       "ledger.group_size_mean", "ledger.commit_wait_share",
       "storage.wal_sync_p50_us", "storage.wal_sync_p99_us",
       "storage.wal_append_p50_us", "storage.fsyncs_per_txn",
       "storage.wal_bytes_per_txn", "storage.checkpoint_ms",
       "ledger.verify_oltp_s"});
  r.Set("ledger.digest_retries_total",
        static_cast<double>(CounterDelta(before, after, "digest.retries_total")));
  const std::vector<TimedDigestStore::UploadRecord> uploads = store->uploads();
  std::vector<double> upload_us;
  for (const auto& u : uploads) {
    if (u.start_us >= cycles_t0)
      upload_us.push_back(static_cast<double>(u.duration_us));
  }
  r.SetTiming("ledger.digest_upload_p50_us", Median(upload_us),
              upload_us.size());
  r.Set("ledger.digests_total", static_cast<double>(upload_us.size()));
  uint64_t covered = 0;
  r.Set("ledger.protect_lag_p50_ms",
        ProtectLagP50Ms(app->ack_wall_us, uploads, &covered));
  r.samples["ledger.protect_lag_p50_ms"] = covered;
  if (log != nullptr && mode_ops[0] > 0 && mode_us[0] > 0 && mode_us[1] > 0) {
    r.Set("trace.overhead_ratio",
          (mode_ops[1] / mode_us[1]) / (mode_ops[0] / mode_us[0]));
  }

  if (options.trace && r.correct) {
    VerificationOptions p1;
    p1.parallelism = 1;
    std::vector<double> p1_s;
    for (int i = 0; i < cfg.p1_verifications; i++) {
      const int64_t start = NowMicros();
      auto report = VerifyLedgerAgainstStore(db.get(), *store, p1, false);
      const int64_t end = NowMicros();
      r.Check(report.ok() && report->ok(), "p=1 verification not clean");
      p1_s.push_back(Seconds(end - start));
      spans.Record("verify.p1", "ledger", start, end, spans.NewId(), 0, 0);
    }
    r.SetTiming("ledger.verify_p1_s", Median(p1_s), p1_s.size());
    if (full_med > 0) r.Set("ledger.verify_speedup_p4", Median(p1_s) / full_med);
  }

  // ---- Close without a checkpoint, recover, re-check ----
  // Recovery replays every append since the set-up's checkpoint, a fixed
  // number because the cycle count is fixed. A checkpoint here would set
  // the run's peak memory, by an amount that varies with how much freed
  // memory its buffers happen to reuse.
  const TableCounts close_counts = CountRows(db.get());
  r.Check(close_counts.at("t").first ==
              app->txn_ids.size() * static_cast<uint64_t>(cfg.rows_per_txn),
          "audit table rows do not match the acknowledged appends");
  r.Set("rss_peak_mb", PeakRssMb());
  r.Set("heap_mb", HeapInUseMb());
  db.reset();
  r.Set("disk_mb", DirSizeMb(db_dir));
  db = MeasureRecovery(DbOptions(db_dir, options.seed), cfg.recovery_opens,
                       log, &r);
  if (db == nullptr) return r;
  CheckCountsEqual(close_counts, CountRows(db.get()), &r);
  VerifyClean(db.get(), *store, "post-recovery verification", log, &r);
  TamperCanary(db.get(), *store, "t", 1, options.seed, &r);
  db.reset();

  {
    SetUp late;
    for (int k = 0; k < cfg.setups; k++) {
      if (!SetUpOnce(cfg, options.seed, work_dir + "/late", nullptr, &late,
                     &setup_s, &r)) {
        return r;
      }
    }
  }
  SetSetupSeconds(setup_s, &r);

  if (options.trace) {
    RunCryptoProbe(options.seed, &r);
    std::vector<const SpanLog*> logs = {&spans};
    const std::string path =
        options.out_dir + "/trace_" + options.workload + ".json";
    r.Check(WriteTrace(path, logs, options.workload, options.seed),
            "cannot write " + path);
  }
  return r;
}

}  // namespace ledger_bench

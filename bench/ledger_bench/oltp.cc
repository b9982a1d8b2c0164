// OLTP workloads: tpcc (the paper's four ledger tables), tpcc_plain (the
// same mix with the ledger disabled, the Fig. 7 baseline) and tpce (all 33
// tables are ledger tables, read-heavy mix).
//
// Closed loop with no think time: an embedded application thread blocks on
// Commit, so each session issues its next transaction only when the last
// one returned. A request is one business transaction; an attempt that the
// engine aborts (lock timeout / deadlock victim) is retried with the same
// inputs, so request latency includes the retries the user would wait for.

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "ledger/digest_store.h"
#include "ledger/ledger_database.h"
#include "util/random.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

namespace ledger_bench {
namespace {

using namespace sqlledger;

enum TxnType : uint8_t {
  kNewOrder,
  kPayment,
  kDelivery,
  kOrderStatus,
  kStockLevel,
  kTradeOrder,
  kTradeResult,
  kMarketFeed,
  kTpceRead,
  kNumTypes,
};
constexpr std::array<const char*, kNumTypes> kTypeNames = {
    "new_order",    "payment",     "delivery",    "order_status", "stock_level",
    "trade_order",  "trade_result", "market_feed", "tpce_read"};
constexpr std::array<bool, kNumTypes> kIsWrite = {
    true, true, true, false, false, true, true, true, false};

/// An attempt that exhausts this many aborts in a row fails the run: the
/// mix is designed so conflicts resolve, so endless aborts mean a bug.
constexpr int kMaxAttempts = 100;

struct OltpConfig {
  bool ledger = true;
  bool tpce = false;
  int sessions = 4;
  int warehouses = 16;
  // Set-up is tens of milliseconds and recovery of tpce well under one
  // tenth of a second, so both are repeated and the median reported. The
  // first open of each kind is slower (it faults in fresh memory), so at
  // least five keep the median off it. This many set-ups run before the
  // workload and as many after it (see RunOltp).
  int setups = 5;
  int recovery_opens = 5;
  /// Measured requests per session per second of --seconds: a fixed amount
  /// of work (about --seconds long on the calibration machine), so the
  /// database every run ends with — what recovery replays and what the
  /// process holds — does not grow when the engine gets faster. There is
  /// no deadline: a slow host makes the run longer, never shorter, so every
  /// run's bounded memory and disk numbers describe the same work.
  double ops_per_session_second = 1100;
  uint64_t warmup_ops = 250;
  /// Requests per session after the final checkpoint, so every run's
  /// recovery replays the same amount of WAL.
  uint64_t tail_ops = 500;
  std::chrono::milliseconds digest_interval{200};
};

OltpConfig ConfigFor(const BenchOptions& options) {
  OltpConfig cfg;
  cfg.ledger = options.workload != "tpcc_plain";
  cfg.tpce = options.workload == "tpce";
  if (cfg.tpce) {
    cfg.ops_per_session_second = 800;
    cfg.recovery_opens = 7;
  }
  if (options.smoke) {
    cfg.sessions = 2;
    cfg.warehouses = 2;
    cfg.setups = 1;
    cfg.recovery_opens = 2;
    cfg.tail_ops = 50;
    cfg.warmup_ops = 50;
  }
  return cfg;
}

/// The transaction mix behind one workload; the type of a committed
/// attempt is read off the workload's own Stats counters, so the mix keeps
/// one definition (src/workload/).
class Mix {
 public:
  Mix(LedgerDatabase* db, const OltpConfig& cfg) {
    if (cfg.tpce) {
      TpceConfig c;
      c.ledger_tables = cfg.ledger;
      tpce_ = std::make_unique<TpceWorkload>(db, c);
    } else {
      TpccConfig c;
      c.warehouses = cfg.warehouses;
      c.ledger_tables = cfg.ledger;
      tpcc_ = std::make_unique<TpccWorkload>(db, c);
    }
  }

  Status Setup() { return tpcc_ ? tpcc_->Setup() : tpce_->Setup(); }

  /// One attempt. On OK, `*aborted` says whether the engine aborted it;
  /// otherwise `*type` is the committed transaction's type.
  Status Attempt(Random* rng, TxnType* type, bool* aborted) {
    if (tpcc_) {
      TpccStats s;
      Status st = tpcc_->RunTransaction(rng, &s);
      *aborted = s.aborted > 0;
      *type = s.new_orders     ? kNewOrder
              : s.payments     ? kPayment
              : s.deliveries   ? kDelivery
              : s.order_status ? kOrderStatus
                               : kStockLevel;
      return st;
    }
    TpceStats s;
    Status st = tpce_->RunTransaction(rng, &s);
    *aborted = s.aborted > 0;
    *type = s.trade_orders    ? kTradeOrder
            : s.trade_results ? kTradeResult
            : s.market_feeds  ? kMarketFeed
                              : kTpceRead;
    return st;
  }

 private:
  std::unique_ptr<TpccWorkload> tpcc_;
  std::unique_ptr<TpceWorkload> tpce_;
};

/// One phase of the session loop: every session issues `ops` requests.
/// Only the measured phase records; the warm-up and the post-measurement
/// tail just run.
struct Phase {
  uint64_t ops = 0;
  bool record = false;
  bool trace = false;
  /// Start of the measured phase; traced slices are counted from here.
  int64_t t0 = 0;
  int64_t slice_us = 1;
};

struct Session {
  Session(int index, uint64_t seed)
      : rng(seed), backoff(~seed), spans(index + 1) {}

  Random rng;      // transaction inputs
  Random backoff;  // retry delays, kept apart so inputs replay exactly
  SpanLog spans;
  std::array<uint64_t, kNumTypes> committed{};
  uint64_t failed = 0;
  std::string error;
  // Measured phase only:
  uint64_t window_attempts = 0;
  uint64_t window_aborts = 0;
  std::vector<double> latency_us;
  std::vector<int64_t> end_us;
  std::vector<uint8_t> types;
  std::vector<uint8_t> traced;
  std::vector<int64_t> write_acks_wall_us;
  int64_t done_us = 0;
};

void RunSession(Mix* mix, Session* s, const Phase& p) {
  const uint64_t session_span = s->spans.NewId();
  const int64_t session_start = NowMicros();
  for (uint64_t op = 0; op < p.ops; op++) {
    const int64_t op_start = NowMicros();
    const bool traced =
        p.trace && p.record && ((op_start - p.t0) / p.slice_us) % 2 == 1;
    const uint64_t req = s->spans.NewId();
    const Random inputs = s->rng;
    TxnType type = kStockLevel;
    Status st;
    for (int attempt = 1;; attempt++) {
      const int64_t a_start = NowMicros();
      bool aborted = false;
      st = mix->Attempt(&s->rng, &type, &aborted);
      const int64_t a_end = NowMicros();
      if (p.record) s->window_attempts++;
      if (!st.ok()) break;
      if (traced) {
        s->spans.Record(aborted ? "aborted" : kTypeNames[type], "txn",
                        a_start, a_end, s->spans.NewId(), session_span, req);
      }
      if (!aborted) break;
      if (p.record) s->window_aborts++;
      if (attempt >= kMaxAttempts) {
        st = Status::Aborted("still aborting after retries");
        break;
      }
      // Retry the same transaction after a randomized, growing backoff:
      // two victims of a symmetric upgrade deadlock that retried at once
      // would meet again.
      s->rng = inputs;
      std::this_thread::sleep_for(std::chrono::microseconds(
          s->backoff.Uniform(uint64_t{50} << std::min(attempt, 8))));
    }
    if (!st.ok()) {
      s->failed++;
      s->error = st.ToString();
      break;
    }
    const int64_t op_end = NowMicros();
    s->committed[type]++;
    if (p.record) {
      s->latency_us.push_back(static_cast<double>(op_end - op_start));
      s->end_us.push_back(op_end);
      s->types.push_back(type);
      s->traced.push_back(traced);
      if (kIsWrite[type]) s->write_acks_wall_us.push_back(WallMicros());
    }
  }
  if (p.record) {
    s->done_us = NowMicros();
    if (p.trace) {
      s->spans.Record("session", "client", session_start, s->done_us,
                      session_span, 0, 0);
    }
  }
}

/// Runs one phase on every session, one thread each, and waits for all.
void RunPhase(Mix* mix, std::vector<std::unique_ptr<Session>>* sessions,
              const Phase& p) {
  std::vector<std::thread> threads;
  for (const auto& s : *sessions)
    threads.emplace_back([=, sp = s.get()] { RunSession(mix, sp, p); });
  for (std::thread& t : threads) t.join();
}

LedgerDatabaseOptions DbOptions(const OltpConfig& cfg, const std::string& dir,
                                uint64_t seed) {
  LedgerDatabaseOptions options;
  options.data_dir = dir;
  options.database_id = "ledger-bench-" + std::to_string(seed);
  options.enable_ledger = cfg.ledger;
  options.sync_wal = true;
  return options;
}

/// A database ready for the workload. Members are destroyed mix first and
/// digest store last: the database's digest pipeline uses the store.
struct SetUp {
  std::unique_ptr<TimedDigestStore> store;
  std::unique_ptr<LedgerDatabase> db;
  std::unique_ptr<Mix> mix;
};

/// Replaces `*out` with a fresh database under `dir` (open, schema,
/// population, digest protection) and appends its set-up time to
/// `seconds`. Returns false after recording a failure.
bool SetUpOnce(const OltpConfig& cfg, uint64_t seed, const std::string& dir,
               SpanLog* store_spans, SetUp* out, std::vector<double>* seconds,
               RunResult* r) {
  out->mix.reset();
  out->db.reset();
  out->store.reset();
  RemoveTree(dir + "/db");
  RemoveTree(dir + "/digests");
  if (!MakeDirs(dir)) {
    r->Fail("cannot create " + dir);
    return false;
  }
  const int64_t start = NowMicros();
  auto opened = LedgerDatabase::Open(DbOptions(cfg, dir + "/db", seed));
  if (!opened.ok()) {
    r->Fail("open: " + opened.status().ToString());
    return false;
  }
  out->db = std::move(*opened);
  out->mix = std::make_unique<Mix>(out->db.get(), cfg);
  Status st = out->mix->Setup();
  if (st.ok() && cfg.ledger) {
    out->store = OpenTimedStore(dir + "/digests", store_spans, r);
    if (out->store == nullptr) return false;
    st = out->db->StartDigestProtection(out->store.get(), {},
                                        cfg.digest_interval);
  }
  if (!st.ok()) {
    r->Fail("setup: " + st.ToString());
    return false;
  }
  seconds->push_back(Seconds(NowMicros() - start));
  return true;
}

}  // namespace

RunResult RunOltp(const BenchOptions& options, const std::string& work_dir) {
  const OltpConfig cfg = ConfigFor(options);
  RunResult r;
  r.details.Set("env", EnvironmentRecord(options, work_dir));
  const std::string db_dir = work_dir + "/db";
  SpanLog main_spans(90);
  SpanLog store_spans(91);
  SpanLog* main_log = options.trace ? &main_spans : nullptr;

  // ---- Set-up, repeated; the last one serves the workload ----
  std::vector<double> setup_s;
  SetUp live;
  for (int k = 0; k < cfg.setups; k++) {
    if (!SetUpOnce(cfg, options.seed, work_dir,
                   options.trace ? &store_spans : nullptr, &live, &setup_s,
                   &r)) {
      return r;
    }
  }
  SetSetupSeconds(setup_s, &r);
  std::unique_ptr<TimedDigestStore> store = std::move(live.store);
  std::unique_ptr<LedgerDatabase> db = std::move(live.db);
  std::unique_ptr<Mix> mix = std::move(live.mix);
  const TableCounts start_counts = CountRows(db.get());

  // ---- Warm-up, then the measured phase ----
  std::vector<std::unique_ptr<Session>> sessions;
  Random seeder(options.seed);
  for (int i = 0; i < cfg.sessions; i++)
    sessions.push_back(std::make_unique<Session>(i, seeder.Next()));
  Phase warmup;
  warmup.ops = cfg.warmup_ops;
  RunPhase(mix.get(), &sessions, warmup);

  const MetricsSnapshot before = db->MetricsSnapshot();
  const CpuTimes cpu0 = ProcessCpu();
  Phase measured;
  measured.ops = static_cast<uint64_t>(cfg.ops_per_session_second *
                                       options.seconds);
  measured.record = true;
  measured.trace = options.trace;
  measured.t0 = NowMicros();
  // Alternating untraced/traced slices of the trace run: about 40 of them.
  measured.slice_us =
      std::max<int64_t>(20000, static_cast<int64_t>(options.seconds * 25000));
  RunPhase(mix.get(), &sessions, measured);
  const MetricsSnapshot after = db->MetricsSnapshot();
  const CpuTimes cpu1 = ProcessCpu();
  const int64_t t0 = measured.t0;

  // ---- End-to-end and client-side per-layer numbers ----
  // Throughput counts only while every session is still issuing requests:
  // up to the moment the first one finishes its share.
  int64_t all_active_until = INT64_MAX;
  for (const auto& s : sessions)
    all_active_until = std::min(all_active_until, s->done_us);
  std::vector<double> latency;
  std::array<std::vector<double>, kNumTypes> by_type;
  std::vector<int64_t> write_acks;
  std::array<uint64_t, 2> ops_by_mode{};  // [untraced, traced], all active
  uint64_t all_active_ops = 0;
  uint64_t window_attempts = 0, window_aborts = 0;
  for (const auto& s : sessions) {
    latency.insert(latency.end(), s->latency_us.begin(), s->latency_us.end());
    for (size_t i = 0; i < s->types.size(); i++) {
      by_type[s->types[i]].push_back(s->latency_us[i]);
      if (s->end_us[i] <= all_active_until) {
        all_active_ops++;
        ops_by_mode[s->traced[i]]++;
      }
    }
    write_acks.insert(write_acks.end(), s->write_acks_wall_us.begin(),
                      s->write_acks_wall_us.end());
    window_attempts += s->window_attempts;
    window_aborts += s->window_aborts;
    r.failed += s->failed;
    if (!s->error.empty()) r.Fail("session: " + s->error);
  }
  const uint64_t ops = latency.size();
  r.attempted = ops + r.failed;
  r.Check(ops > 0 && all_active_until > t0, "no request completed");
  const double active_s = std::max(Seconds(all_active_until - t0), 1e-6);
  r.Set("ops_per_s", static_cast<double>(all_active_ops) / active_s);
  r.samples["ops_per_s"] = all_active_ops;
  r.SetTiming("op_p50_us", Percentile(latency, 50), ops);
  r.SetTiming("op_p99_us", Percentile(latency, 99), ops);

  double client_us = 0;
  for (double v : latency) client_us += v;
  client_us = std::max(client_us, 1.0);
  const double denom = static_cast<double>(std::max<uint64_t>(ops, 1));
  for (int t = 0; t < kNumTypes; t++) {
    r.SetTiming(std::string("workload.") + kTypeNames[t] + "_p50_us",
                Percentile(by_type[t], 50), by_type[t].size());
  }
  for (int t : {kNewOrder, kPayment, kTpceRead}) {
    r.SetTiming(std::string("workload.") + kTypeNames[t] + "_p99_us",
                Percentile(by_type[t], 99), by_type[t].size());
  }
  const double cpu_s =
      (cpu1.user_s - cpu0.user_s) + (cpu1.sys_s - cpu0.sys_s);
  r.Set("workload.cpu_us_per_op", cpu_s * 1e6 / denom);
  r.Set("workload.sys_cpu_share",
        cpu_s > 0 ? (cpu1.sys_s - cpu0.sys_s) / cpu_s : 0);
  r.Set("workload.abort_ratio",
        window_attempts == 0 ? 0
                             : static_cast<double>(window_aborts) /
                                   static_cast<double>(window_attempts));

  // ---- Registry deltas over the measured phase ----
  HistogramSnapshot lock = HistogramDelta(before, after, "lock.wait_micros");
  HistogramSnapshot commit = HistogramDelta(before, after, "commit.wait_micros");
  HistogramSnapshot wal_sync = HistogramDelta(before, after, "wal.sync_micros");
  HistogramSnapshot wal_append =
      HistogramDelta(before, after, "wal.append_micros");
  r.Set("workload.attributed_share",
        static_cast<double>(lock.sum + commit.sum) / client_us);
  r.Set("txn.lock_waits_per_txn", static_cast<double>(lock.count) / denom);
  r.SetTiming("txn.lock_wait_p50_us", lock.Percentile(50), lock.count);
  r.SetTiming("txn.lock_wait_p99_us", lock.Percentile(99), lock.count);
  r.Set("txn.lock_wait_share", static_cast<double>(lock.sum) / client_us);
  r.Set("txn.deadlocks_total",
        static_cast<double>(CounterDelta(before, after, "lock.deadlocks_total")));
  r.Set("txn.lock_timeouts_total",
        static_cast<double>(CounterDelta(before, after, "lock.timeouts_total")));
  r.SetTiming("ledger.commit_wait_p50_us", commit.Percentile(50), commit.count);
  r.SetTiming("ledger.commit_wait_p99_us", commit.Percentile(99), commit.count);
  r.Set("ledger.group_size_mean",
        HistogramDelta(before, after, "commit.group_size").Mean());
  r.Set("ledger.commit_wait_share", static_cast<double>(commit.sum) / client_us);
  r.SetTiming("storage.wal_sync_p50_us", wal_sync.Percentile(50),
              wal_sync.count);
  r.SetTiming("storage.wal_sync_p99_us", wal_sync.Percentile(99),
              wal_sync.count);
  r.SetTiming("storage.wal_append_p50_us", wal_append.Percentile(50),
              wal_append.count);
  r.Set("storage.fsyncs_per_txn",
        static_cast<double>(CounterDelta(before, after, "wal.syncs_total")) /
            denom);
  r.Set("storage.wal_bytes_per_txn",
        static_cast<double>(CounterDelta(before, after, "wal.bytes_total")) /
            denom);
  r.Set("ledger.digest_retries_total",
        static_cast<double>(CounterDelta(before, after, "digest.retries_total")));
  // The auditor's layers run only in the audit workload.
  r.SetUnexercised({"ledger.verify_full_s", "ledger.verify_incr_s",
                    "ledger.receipt_p50_us", "ledger.receipt_p99_us",
                    "ledger.verify_p1_s", "ledger.verify_speedup_p4",
                    "ledger.verify_rows_per_s", "ledger.verify_reanchor_ms",
                    "ledger.verify_tree_hash_ms", "ledger.verify_view_check_ms",
                    "ledger.incr_skip_ratio", "ledger.verify_fallbacks_total",
                    "ledger.receipt_make_p50_us", "ledger.receipt_check_p50_us",
                    "ledger.append_txn_p50_us", "ledger.insert_p50_us",
                    "ledger.commit_p50_us"});
  if (!cfg.ledger) {
    r.SetUnexercised({"ledger.digest_upload_p50_us", "ledger.digests_total",
                      "ledger.protect_lag_p50_ms", "ledger.verify_oltp_s"});
  }
  if (options.trace) {
    // Slices alternate untraced/traced from t0, so the two modes split the
    // all-active interval (nearly) in half; compare their request rates.
    int64_t traced_us = 0;
    const int64_t slice = measured.slice_us;
    for (int64_t k = 0; t0 + k * slice < all_active_until; k++) {
      const int64_t from = t0 + k * slice;
      if (k % 2 == 1) traced_us += std::min(slice, all_active_until - from);
    }
    const int64_t untraced_us = (all_active_until - t0) - traced_us;
    if (ops_by_mode[0] > 0 && traced_us > 0 && untraced_us > 0) {
      r.Set("trace.overhead_ratio",
            (static_cast<double>(ops_by_mode[1]) /
             static_cast<double>(traced_us)) /
                (static_cast<double>(ops_by_mode[0]) /
                 static_cast<double>(untraced_us)));
    }
  }

  // ---- Checkpoint, a fixed durable tail, then close without one ----
  {
    const int64_t c_start = NowMicros();
    Status st = db->Checkpoint();
    const int64_t c_end = NowMicros();
    r.Check(st.ok(), "checkpoint: " + st.ToString());
    r.SetTiming("storage.checkpoint_ms",
                static_cast<double>(c_end - c_start) / 1000, 1);
    if (main_log != nullptr)
      main_log->Record("checkpoint", "storage", c_start, c_end,
                       main_log->NewId(), 0, 0);
  }
  for (auto& s : sessions) s->error.clear();  // already reported
  Phase tail;
  tail.ops = cfg.tail_ops;
  RunPhase(mix.get(), &sessions, tail);
  std::array<uint64_t, kNumTypes> committed{};
  for (const auto& s : sessions) {
    if (!s->error.empty()) r.Fail("tail: " + s->error);
    for (int t = 0; t < kNumTypes; t++) committed[t] += s->committed[t];
  }
  if (cfg.ledger) {
    db->StopDigestProtection();
    const std::vector<TimedDigestStore::UploadRecord> uploads = store->uploads();
    std::vector<double> upload_us;
    for (const auto& u : uploads) {
      if (u.start_us >= t0 && u.start_us < all_active_until)
        upload_us.push_back(static_cast<double>(u.duration_us));
    }
    r.SetTiming("ledger.digest_upload_p50_us", Median(upload_us),
                upload_us.size());
    r.Set("ledger.digests_total", static_cast<double>(upload_us.size()));
    uint64_t covered = 0;
    r.Set("ledger.protect_lag_p50_ms",
          ProtectLagP50Ms(write_acks, uploads, &covered));
    r.samples["ledger.protect_lag_p50_ms"] = covered;
  }

  // Insert-only tables grow by exactly the acknowledged inserting commits.
  const TableCounts close_counts = CountRows(db.get());
  auto grew = [&](const std::string& table) {
    return close_counts.at(table).first - start_counts.at(table).first;
  };
  if (cfg.tpce) {
    r.Check(grew("trade") == committed[kTradeOrder],
            "trade grew by " + std::to_string(grew("trade")) + ", " +
                std::to_string(committed[kTradeOrder]) + " TradeOrders acked");
  } else {
    r.Check(grew("orders") == committed[kNewOrder],
            "orders grew by " + std::to_string(grew("orders")) + ", " +
                std::to_string(committed[kNewOrder]) + " NewOrders acked");
    r.Check(grew("history") == committed[kPayment],
            "history grew by " + std::to_string(grew("history")) + ", " +
                std::to_string(committed[kPayment]) + " Payments acked");
  }
  JsonValue counts = JsonValue::Object();
  for (int t = 0; t < kNumTypes; t++) {
    counts.Set(kTypeNames[t],
               JsonValue::Int(static_cast<int64_t>(committed[t])));
  }
  r.details.Set("committed_by_type", std::move(counts));

  // ---- Recovery, then the post-recovery checks ----
  r.Set("rss_peak_mb", PeakRssMb());
  r.Set("heap_mb", HeapInUseMb());
  mix.reset();
  db.reset();
  r.Set("disk_mb", DirSizeMb(db_dir));
  db = MeasureRecovery(DbOptions(cfg, db_dir, options.seed),
                       cfg.recovery_opens, main_log, &r);
  if (db == nullptr) return r;
  CheckCountsEqual(close_counts, CountRows(db.get()), &r);
  if (cfg.ledger) {
    r.Set("ledger.verify_oltp_s",
          VerifyClean(db.get(), *store, "post-recovery verification",
                      main_log, &r));
    TamperCanary(db.get(), *store, cfg.tpce ? "trade" : "orders", 3,
                 options.seed, &r);
  }
  db.reset();

  // ---- Set-up again, after the workload ----
  // Memory-heavy code on the calibration machine runs at two speeds about
  // 1.5x apart, in stretches of a few tenths of a second to seconds, so one
  // batch of set-ups usually sees a single speed. A second batch seconds
  // later makes the median depend less on the speed the run started in.
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
    std::vector<const SpanLog*> logs = {&main_spans, &store_spans};
    for (const auto& s : sessions) logs.push_back(&s->spans);
    const std::string path =
        options.out_dir + "/trace_" + options.workload + ".json";
    r.Check(WriteTrace(path, logs, options.workload, options.seed),
            "cannot write " + path);
  }
  return r;
}

}  // namespace ledger_bench

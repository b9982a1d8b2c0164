// Shared pieces of the ledger_bench binary: run options and results, the
// benchmark-side span log, registry deltas, process accounting, the timed
// digest-store decorator, the environment record and the crypto probe.
//
// Everything here sits OUTSIDE the library: the benchmark drives the public
// API and measures around it (call timing, getrusage, before/after deltas
// of the metric registry). Nothing in src/ knows it is being benchmarked.

#ifndef LEDGER_BENCH_HARNESS_H_
#define LEDGER_BENCH_HARNESS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "ledger/digest_store.h"
#include "ledger/ledger_database.h"
#include "util/json.h"
#include "util/metrics.h"

namespace ledger_bench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer run: spans on (in alternating slices) plus the extra
  /// per-layer measurements; the trace file is written at the end.
  bool trace = false;
  /// Shrinks every size so a full pass over all workloads takes seconds.
  bool smoke = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

/// Outcome of one run: the correctness verdict, request counts, and every
/// metric value by name (units live in BENCHMARK.json).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Sample count behind each timing metric.
  std::map<std::string, uint64_t> samples;
  std::vector<std::string> errors;
  sqlledger::JsonValue details = sqlledger::JsonValue::Object();

  void Fail(const std::string& what);
  /// Records a failed correctness check unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Set(const std::string& name, double value) { values[name] = value; }
  /// Reports per-layer metrics of layers the workload does not exercise as
  /// 0, so that a metric missing from a run means a broken measurement.
  void SetUnexercised(std::initializer_list<const char*> names) {
    for (const char* name : names) values[name] = 0;
  }
  void SetTiming(const std::string& name, double value, uint64_t n) {
    values[name] = value;
    samples[name] = n;
  }
};

// ---- Clocks and statistics ----

/// Monotonic microseconds (the span and latency clock).
int64_t NowMicros();
/// Wall-clock microseconds since the epoch: the clock the database stamps
/// commits and digests with (LedgerDatabaseOptions::clock default).
int64_t WallMicros();
/// Exact percentile with linear interpolation between closest ranks; 0 for
/// an empty sample. Takes a copy because it sorts.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}
double Seconds(int64_t micros);

// ---- Process accounting ----

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
CpuTimes ProcessCpu();
/// Peak resident set of this process so far (getrusage ru_maxrss), MiB.
/// Workloads report it before the recovery reopen: recovery briefly holds
/// the checkpoint image beside the rebuilt tables, and how much of the
/// closed database's freed memory it reuses varies from run to run.
double PeakRssMb();
/// Bytes in live heap allocations now (glibc mallinfo2: in-use arena
/// chunks plus mmapped chunks), MiB: the memory the program's data holds.
/// The resident set also counts freed memory the allocator keeps, and how
/// much of that stays depends on which arenas the threads happened to use:
/// at the same point of audit the resident set read 30 or 40 MB from run
/// to run, even after malloc_trim, while the live heap read 20.85 MB.
double HeapInUseMb();

// ---- Metric-registry deltas ----

/// after - before of one histogram (max is the after-side max).
sqlledger::HistogramSnapshot HistogramDelta(
    const sqlledger::MetricsSnapshot& before,
    const sqlledger::MetricsSnapshot& after, const std::string& name);
uint64_t CounterDelta(const sqlledger::MetricsSnapshot& before,
                      const sqlledger::MetricsSnapshot& after,
                      const std::string& name);

// ---- Benchmark-side spans (Chrome trace-event JSON) ----

struct Span {
  const char* name = "";
  const char* cat = "";
  int64_t start_us = 0;
  int64_t dur_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;     // request the span belongs to; 0 = none
};

/// Spans of one thread. Not thread-safe: each client thread owns one; a
/// log shared across threads is guarded by its owner.
class SpanLog {
 public:
  static constexpr size_t kMaxSpans = 200000;

  explicit SpanLog(int tid) : tid_(tid) {}

  int tid() const { return tid_; }
  /// Span ids are unique across logs: the tid sits in the high bits.
  uint64_t NewId() { return (static_cast<uint64_t>(tid_) << 40) | ++next_; }
  void Record(const char* name, const char* cat, int64_t start_us,
              int64_t end_us, uint64_t id, uint64_t parent, uint64_t req);
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  int tid_;
  uint64_t next_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Writes every span sorted by (tid, start) as Chrome trace-event JSON in
/// the schema scripts/check_trace.py validates. Returns false on I/O error.
bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                const std::string& workload, uint64_t seed);

// ---- Digest store decorator ----

/// Wraps the immutable blob store: times every Upload (including the blob
/// fsync) and remembers when each digest was acknowledged, which is what
/// protection lag is measured against.
class TimedDigestStore : public sqlledger::DigestStore {
 public:
  struct UploadRecord {
    int64_t generated_at_wall_us = 0;
    int64_t acked_wall_us = 0;
    int64_t start_us = 0;  // monotonic, for window filtering
    int64_t duration_us = 0;
  };

  /// `spans` (may be null = no spans) is written under this store's mutex:
  /// uploads arrive on the digest pipeline's thread.
  TimedDigestStore(std::unique_ptr<sqlledger::DigestStore> inner,
                   SpanLog* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  sqlledger::Status Upload(const sqlledger::DatabaseDigest& digest) override;
  sqlledger::Result<std::vector<sqlledger::DatabaseDigest>> ListAll()
      const override {
    return inner_->ListAll();
  }
  sqlledger::Result<sqlledger::DatabaseDigest> Latest(
      const std::string& create_time) const override {
    return inner_->Latest(create_time);
  }

  /// Acknowledged uploads in acknowledgement order.
  std::vector<UploadRecord> uploads() const;

 private:
  std::unique_ptr<sqlledger::DigestStore> inner_;
  mutable std::mutex mu_;
  std::vector<UploadRecord> uploads_;
  SpanLog* spans_;
};

/// Opens an ImmutableBlobDigestStore under `dir` wrapped in the decorator.
std::unique_ptr<TimedDigestStore> OpenTimedStore(const std::string& dir,
                                                 SpanLog* spans,
                                                 RunResult* result);

/// Median time from each acknowledged commit (wall-clock ack time) until
/// the store acknowledged the first digest generated at or after it.
/// Commits no digest covered yet are skipped; `*covered` counts the rest.
double ProtectLagP50Ms(const std::vector<int64_t>& commit_acks_wall_us,
                       const std::vector<TimedDigestStore::UploadRecord>& uploads,
                       uint64_t* covered);

/// Sets setup_s to the median of `seconds`, one value per set-up, and keeps
/// every value in the result file (details.setup_s_each).
void SetSetupSeconds(const std::vector<double>& seconds, RunResult* result);

// ---- Checks shared by the workloads ----

/// (main rows, history rows) per catalog table, system tables included.
using TableCounts = std::map<std::string, std::pair<uint64_t, uint64_t>>;
TableCounts CountRows(sqlledger::LedgerDatabase* db);
void CheckCountsEqual(const TableCounts& before, const TableCounts& after,
                      RunResult* result);

/// Opens the closed database at `options.data_dir` `opens` times, timing
/// each Open (checkpoint load + WAL replay; Open does not checkpoint, so
/// every open replays the same WAL). Sets recovery_s to the median and
/// storage.recovery_replay_ms from the last open's registry. Returns the
/// last handle, or null after recording a failure.
std::unique_ptr<sqlledger::LedgerDatabase> MeasureRecovery(
    const sqlledger::LedgerDatabaseOptions& options, int opens,
    SpanLog* spans, RunResult* result);

/// Full verification against every digest in `store`, p=4. Records a
/// failure unless the report is clean; returns wall seconds.
double VerifyClean(sqlledger::LedgerDatabase* db,
                   const sqlledger::DigestStore& store, const char* what,
                   SpanLog* spans, RunResult* result);

/// Tamper canary: flips the low bit of integer column `column` of a seeded
/// row of `table`, straight in storage, then requires full verification to
/// report an invariant-4 violation. Leaves the database tampered.
void TamperCanary(sqlledger::LedgerDatabase* db,
                  const sqlledger::DigestStore& store,
                  const std::string& table, size_t column, uint64_t seed,
                  RunResult* result);

// ---- Environment record and probes ----

/// git sha, nproc, SHA-256 kernel, build type, data-dir filesystem, seed
/// and an fsync probe (200 x 4 KiB write + fdatasync in `data_dir`).
sqlledger::JsonValue EnvironmentRecord(const BenchOptions& options,
                                       const std::string& data_dir);

/// The audit workload's table: Fig. 9's row, two BIGINTs and a
/// 244-character payload, 260 bytes.
sqlledger::Schema AuditSchema();

/// SHA-256 throughput, batched row-version leaf hashing on the audit row
/// shape, and a 1,000-leaf Merkle root. Per-layer values only.
void RunCryptoProbe(uint64_t seed, RunResult* result);

// ---- Filesystem helpers ----

/// Removes `path` recursively; missing is fine.
void RemoveTree(const std::string& path);
/// Total size of the regular files under `path`, MiB: what a closed
/// database occupies on disk.
double DirSizeMb(const std::string& path);
/// Creates `path` and parents.
bool MakeDirs(const std::string& path);

// ---- Workloads ----

RunResult RunOltp(const BenchOptions& options, const std::string& work_dir);
RunResult RunAudit(const BenchOptions& options, const std::string& work_dir);

}  // namespace ledger_bench

#endif  // LEDGER_BENCH_HARNESS_H_

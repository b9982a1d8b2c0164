#include "harness.h"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "ledger/ledger_database.h"
#include "ledger/row_serializer.h"
#include "ledger/verifier.h"
#include "util/random.h"

namespace ledger_bench {

using sqlledger::HistogramSnapshot;
using sqlledger::JsonValue;
using sqlledger::MetricsSnapshot;

void RunResult::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

int64_t NowMicros() { return sqlledger::SteadyClockMicros(); }

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Seconds(int64_t micros) { return static_cast<double>(micros) / 1e6; }

CpuTimes ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuTimes t;
  t.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  t.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  return t;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

HistogramSnapshot HistogramDelta(const MetricsSnapshot& before,
                                 const MetricsSnapshot& after,
                                 const std::string& name) {
  HistogramSnapshot delta;
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return delta;
  delta = a->second;
  auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return delta;
  delta.count -= b->second.count;
  delta.sum -= b->second.sum;
  for (size_t i = 0; i < HistogramSnapshot::kNumBuckets; i++)
    delta.buckets[i] -= b->second.buckets[i];
  return delta;
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

// ---- Spans ----

void SpanLog::Record(const char* name, const char* cat, int64_t start_us,
                     int64_t end_us, uint64_t id, uint64_t parent,
                     uint64_t req) {
  if (spans_.size() >= kMaxSpans) {
    dropped_++;
    return;
  }
  spans_.push_back(Span{name, cat, start_us, std::max<int64_t>(0, end_us - start_us),
                        id, parent, req});
}

bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                const std::string& workload, uint64_t seed) {
  struct Row {
    int tid;
    const Span* span;
  };
  std::vector<Row> rows;
  uint64_t dropped = 0;
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    dropped += log->dropped();
    for (const Span& s : log->spans()) {
      rows.push_back({log->tid(), &s});
      origin = std::min(origin, s.start_us);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.span->start_us < b.span->start_us;
  });
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Row& r : rows) {
    const Span& s = *r.span;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
        << "\",\"ph\":\"X\",\"ts\":" << (s.start_us - origin)
        << ",\"dur\":" << s.dur_us << ",\"pid\":1,\"tid\":" << r.tid
        << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
      << dropped << ",\"workload\":\"" << workload << "\",\"seed\":" << seed
      << "}}\n";
  return static_cast<bool>(out);
}

// ---- Digest store decorator ----

sqlledger::Status TimedDigestStore::Upload(
    const sqlledger::DatabaseDigest& digest) {
  const int64_t start = NowMicros();
  sqlledger::Status st = inner_->Upload(digest);
  const int64_t end = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  if (st.ok()) {
    uploads_.push_back(UploadRecord{digest.generated_at_micros, WallMicros(), start,
                              end - start});
  }
  if (spans_ != nullptr) {
    spans_->Record("digest.upload", "digest", start, end, spans_->NewId(), 0,
                   digest.block_id);
  }
  return st;
}

std::vector<TimedDigestStore::UploadRecord> TimedDigestStore::uploads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return uploads_;
}

std::unique_ptr<TimedDigestStore> OpenTimedStore(const std::string& dir,
                                                 SpanLog* spans,
                                                 RunResult* result) {
  auto inner = sqlledger::ImmutableBlobDigestStore::Open(dir);
  if (!inner.ok()) {
    result->Fail("digest store open: " + inner.status().ToString());
    return nullptr;
  }
  return std::make_unique<TimedDigestStore>(std::move(*inner), spans);
}

double ProtectLagP50Ms(const std::vector<int64_t>& commit_acks_wall_us,
                       const std::vector<TimedDigestStore::UploadRecord>& uploads,
                       uint64_t* covered) {
  // Digests are generated and acknowledged in order by one pipeline, so the
  // first digest generated at or after a commit is found by binary search.
  std::vector<double> lags;
  lags.reserve(commit_acks_wall_us.size());
  for (int64_t ack : commit_acks_wall_us) {
    auto it = std::lower_bound(
        uploads.begin(), uploads.end(), ack,
        [](const TimedDigestStore::UploadRecord& u, int64_t t) {
          return u.generated_at_wall_us < t;
        });
    if (it == uploads.end()) continue;
    lags.push_back(static_cast<double>(it->acked_wall_us - ack) / 1000.0);
  }
  *covered = lags.size();
  return Median(std::move(lags));
}

void SetSetupSeconds(const std::vector<double>& seconds, RunResult* result) {
  result->SetTiming("setup_s", Median(seconds), seconds.size());
  JsonValue each = JsonValue::Array();
  for (double s : seconds) each.Append(JsonValue::Double(s));
  result->details.Set("setup_s_each", std::move(each));
}

// ---- Checks shared by the workloads ----

TableCounts CountRows(sqlledger::LedgerDatabase* db) {
  TableCounts counts;
  for (sqlledger::CatalogEntry* entry : db->AllTables()) {
    if (entry->dropped) continue;
    counts[entry->name] = {
        entry->main->row_count(),
        entry->history != nullptr ? entry->history->row_count() : 0};
  }
  return counts;
}

void CheckCountsEqual(const TableCounts& before, const TableCounts& after,
                      RunResult* result) {
  if (before.size() != after.size()) {
    result->Fail("table set changed across reopen: " +
                 std::to_string(before.size()) + " -> " +
                 std::to_string(after.size()));
  }
  for (const auto& [name, rows] : before) {
    auto it = after.find(name);
    if (it == after.end()) {
      result->Fail("table " + name + " missing after reopen");
    } else if (it->second != rows) {
      result->Fail("table " + name + " rows (main, history) changed across " +
                   "reopen: (" + std::to_string(rows.first) + ", " +
                   std::to_string(rows.second) + ") -> (" +
                   std::to_string(it->second.first) + ", " +
                   std::to_string(it->second.second) + ")");
    }
  }
}

std::unique_ptr<sqlledger::LedgerDatabase> MeasureRecovery(
    const sqlledger::LedgerDatabaseOptions& options, int opens,
    SpanLog* spans, RunResult* result) {
  std::vector<double> seconds;
  std::unique_ptr<sqlledger::LedgerDatabase> db;
  for (int i = 0; i < opens; i++) {
    db.reset();
    const int64_t start = NowMicros();
    auto opened = sqlledger::LedgerDatabase::Open(options);
    const int64_t end = NowMicros();
    if (!opened.ok()) {
      result->Fail("reopen: " + opened.status().ToString());
      return nullptr;
    }
    db = std::move(*opened);
    seconds.push_back(Seconds(end - start));
    if (spans != nullptr)
      spans->Record("reopen", "storage", start, end, spans->NewId(), 0, 0);
  }
  result->SetTiming("recovery_s", Median(seconds), seconds.size());
  sqlledger::MetricsSnapshot snap = db->MetricsSnapshot();
  result->Set("storage.recovery_replay_ms",
              static_cast<double>(
                  snap.histograms["recovery.duration_micros"].sum) /
                  1000.0);
  return db;
}

double VerifyClean(sqlledger::LedgerDatabase* db,
                   const sqlledger::DigestStore& store, const char* what,
                   SpanLog* spans, RunResult* result) {
  sqlledger::VerificationOptions vopts;
  vopts.parallelism = 4;
  const int64_t start = NowMicros();
  auto report = sqlledger::VerifyLedgerAgainstStore(db, store, vopts);
  const int64_t end = NowMicros();
  if (spans != nullptr)
    spans->Record("verify", "ledger", start, end, spans->NewId(), 0, 0);
  if (!report.ok()) {
    result->Fail(std::string(what) + ": " + report.status().ToString());
  } else if (!report->ok()) {
    result->Fail(std::string(what) + ": " + report->Summary());
  }
  return Seconds(end - start);
}

void TamperCanary(sqlledger::LedgerDatabase* db,
                  const sqlledger::DigestStore& store,
                  const std::string& table, size_t column, uint64_t seed,
                  RunResult* result) {
  sqlledger::TableStore* ts = db->GetStoreForTesting(table);
  if (ts == nullptr || ts->row_count() == 0) {
    result->Fail("tamper canary: table " + table + " empty or missing");
    return;
  }
  sqlledger::Random rng(seed ^ 0x7A3BULL);
  uint64_t target = rng.Uniform(ts->row_count());
  auto it = ts->Scan();
  for (uint64_t i = 0; i < target && it.Valid(); i++) it.Next();
  if (!it.Valid()) {
    result->Fail("tamper canary: scan ended early");
    return;
  }
  sqlledger::KeyTuple key = ts->KeyOf(it.value());
  sqlledger::Row* row = ts->mutable_clustered()->MutableGet(key);
  if (row == nullptr || (*row)[column].type() != sqlledger::DataType::kBigInt) {
    result->Fail("tamper canary: column is not a BIGINT");
    return;
  }
  (*row)[column] = sqlledger::Value::BigInt((*row)[column].AsInt64() ^ 1);

  sqlledger::VerificationOptions vopts;
  vopts.parallelism = 4;
  auto report = sqlledger::VerifyLedgerAgainstStore(db, store, vopts);
  bool caught = false;
  if (report.ok()) {
    for (const sqlledger::Violation& v : report->violations)
      caught = caught || v.invariant == 4;
  }
  result->Check(caught, "tamper canary: flipped row " +
                            std::to_string(target) + " of " + table +
                            " was not reported as an invariant-4 violation");
  result->details.Set("tamper_row", sqlledger::JsonValue::Int(
                                        static_cast<int64_t>(target)));
}

// ---- Environment record ----

namespace {

std::string FilesystemName(const std::string& dir) {
  struct statfs fs{};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

/// p50/p90 microseconds of 4 KiB write + fdatasync, the cost floor of a
/// durable commit on this device.
void FsyncProbe(const std::string& dir, JsonValue* env) {
  const std::string path = dir + "/fsync_probe.bin";
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return;
  std::vector<char> block(4096, 'f');
  std::vector<double> us;
  for (int i = 0; i < 200; i++) {
    const int64_t start = NowMicros();
    ssize_t n = ::pwrite(fd, block.data(), block.size(),
                         static_cast<off_t>(i) * 4096);
    int rc = ::fdatasync(fd);
    if (n != static_cast<ssize_t>(block.size()) || rc != 0) break;
    us.push_back(static_cast<double>(NowMicros() - start));
  }
  ::close(fd);
  ::unlink(path.c_str());
  env->Set("fsync_4k_samples", JsonValue::Int(static_cast<int64_t>(us.size())));
  env->Set("fsync_4k_p50_us", JsonValue::Double(Percentile(us, 50)));
  env->Set("fsync_4k_p90_us", JsonValue::Double(Percentile(us, 90)));
}

}  // namespace

JsonValue EnvironmentRecord(const BenchOptions& options,
                            const std::string& data_dir) {
  JsonValue env = JsonValue::Object();
  env.Set("git_sha", JsonValue::Str(options.git_sha));
  env.Set("nproc", JsonValue::Int(std::thread::hardware_concurrency()));
  env.Set("sha256_kernel", JsonValue::Str(sqlledger::Sha256::KernelName()));
  env.Set("build_type", JsonValue::Str(LEDGER_BENCH_BUILD_TYPE));
  env.Set("data_dir_fs", JsonValue::Str(FilesystemName(data_dir)));
  env.Set("seed", JsonValue::Int(static_cast<int64_t>(options.seed)));
  env.Set("smoke", JsonValue::Bool(options.smoke));
  FsyncProbe(data_dir, &env);
  return env;
}

// ---- Crypto probe ----

namespace {

template <typename Fn>
double MedianMicros(int reps, Fn fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; i++) {
    const int64_t start = NowMicros();
    fn();
    us.push_back(static_cast<double>(NowMicros() - start));
  }
  return Median(std::move(us));
}

}  // namespace

sqlledger::Schema AuditSchema() {
  using sqlledger::DataType;
  sqlledger::Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 244);
  s.SetPrimaryKey({0});
  return s;
}

void RunCryptoProbe(uint64_t seed, RunResult* result) {
  using namespace sqlledger;
  Random rng(seed ^ 0xC0FFEEULL);

  // SHA-256 bulk throughput over 1 MiB.
  std::vector<uint8_t> buf(1 << 20);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  Hash256 sink;
  const int kHashesPerRep = 16;
  double us = MedianMicros(7, [&] {
    for (int i = 0; i < kHashesPerRep; i++) {
      buf[0] = static_cast<uint8_t>(buf[0] + sink.bytes[0]);
      sink = Sha256::Digest(Slice(buf.data(), buf.size()));
    }
  });
  result->Set("crypto.sha256_mbps",
              kHashesPerRep * static_cast<double>(buf.size()) / us);

  // Batched leaf hashing of real audit-shape row versions: load a small
  // ephemeral ledger table and hash its physical rows.
  LedgerDatabaseOptions options;
  options.database_id = "crypto-probe";
  auto opened = LedgerDatabase::Open(options);
  if (!opened.ok()) {
    result->Fail("crypto probe open: " + opened.status().ToString());
    return;
  }
  std::unique_ptr<LedgerDatabase> db = std::move(*opened);
  Status st = db->CreateTable("t", AuditSchema(), TableKind::kUpdateable);
  const int kRows = 4096;
  auto txn = db->Begin("probe");
  if (st.ok() && txn.ok()) {
    for (int i = 0; i < kRows && st.ok(); i++) {
      st = db->Insert(*txn, "t",
                      {Value::BigInt(i), Value::BigInt(rng.UniformRange(0, 4)),
                       Value::Varchar(rng.AlphaString(244))});
    }
    if (st.ok()) st = db->Commit(*txn);
  }
  if (!st.ok() || !txn.ok()) {
    result->Fail("crypto probe load failed");
    return;
  }
  TableStore* store = db->GetStoreForTesting("t");
  std::vector<Row> rows;
  for (auto it = store->Scan(); it.Valid(); it.Next()) rows.push_back(it.value());
  std::vector<RowVersionHashJob> jobs(rows.size());
  for (size_t i = 0; i < rows.size(); i++) {
    jobs[i].schema = &store->schema();
    jobs[i].row = &rows[i];
    jobs[i].table_id = store->table_id();
    jobs[i].txn_id = 1;
    jobs[i].sequence = i;
  }
  std::vector<Hash256> leaves(jobs.size());
  double leaf_us = MedianMicros(15, [&] {
    RowVersionLeafHashMany(jobs.data(), jobs.size(), leaves.data());
  });
  result->Set("crypto.leaf_hash_ns",
              leaf_us * 1000.0 / static_cast<double>(jobs.size()));

  std::vector<Hash256> first_k(leaves.begin(), leaves.begin() + 1000);
  double root_us = MedianMicros(101, [&] {
    MerkleTree tree(first_k);
    sink = tree.Root();
  });
  result->Set("crypto.merkle_root_1k_us", root_us);
  // Publishing the last root keeps the timed hashing observable.
  result->details.Set("crypto_probe_root", JsonValue::Str(sink.ToHex()));
}

// ---- Filesystem ----

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double DirSizeMb(const std::string& path) {
  std::error_code ec;
  uintmax_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

}  // namespace ledger_bench

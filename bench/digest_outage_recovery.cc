// Digest-store outage recovery benchmark (DESIGN.md §9): how far behind
// does digest protection fall during a scripted store outage, and how fast
// does the pipeline catch back up once the store returns?
//
//   phase 1  healthy cadence — inserts + digests, store reachable;
//   phase 2  scripted outage (default 10 s, --outage-ms=N) — the workload
//            keeps committing and submitting digests, every upload fails,
//            the durable outbox absorbs the backlog and the breaker opens;
//   phase 3  recovery — the store returns; measure wall time until the
//            backlog drains and staleness returns to zero.
//
// Writes machine-readable BENCH_digest_outage.json (peak staleness, catch-up
// time, retry/breaker counters) so CI can compare runs without scraping
// stdout. Self-contained main(), no google-benchmark: the interesting
// number is one wall-clock measurement, not a steady-state throughput.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "ledger/digest_pipeline.h"
#include "ledger/digest_store.h"
#include "ledger/faulty_digest_store.h"
#include "ledger/ledger_database.h"
#include "util/json.h"

using namespace sqlledger;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Schema BenchSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 64);
  s.SetPrimaryKey({0});
  return s;
}

struct Workload {
  LedgerDatabase* db;
  int64_t next_id = 1;

  void Commit(int rows) {
    const std::string payload(64, 'x');
    auto txn = db->Begin("bench");
    if (!txn.ok()) std::exit(1);
    for (int r = 0; r < rows; r++) {
      if (!db->Insert(*txn, "t",
                      {Value::BigInt(next_id++), Value::Varchar(payload)})
               .ok())
        std::exit(1);
    }
    if (!db->Commit(*txn).ok()) std::exit(1);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_digest_outage.json";
  int outage_ms = 10000;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--outage-ms=", 12) == 0)
      outage_ms = std::atoi(argv[i] + 12);
  }

  std::filesystem::path work =
      std::filesystem::temp_directory_path() /
      ("sqlledger_outage_bench_" + std::to_string(::getpid()));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  LedgerDatabaseOptions options;
  options.block_size = 64;
  options.database_id = "bench-outage";
  auto opened = LedgerDatabase::Open(std::move(options));
  if (!opened.ok()) std::exit(1);
  auto db = std::move(*opened);
  if (!db->CreateTable("t", BenchSchema(), TableKind::kUpdateable).ok())
    std::exit(1);

  auto blob_store =
      ImmutableBlobDigestStore::Open((work / "digests").string());
  if (!blob_store.ok()) std::exit(1);
  FaultyDigestStore store(blob_store->get());

  DigestPipelineOptions popts;
  popts.outbox_dir = (work / "outbox").string();
  popts.outbox_capacity = 256;
  popts.initial_backoff_micros = 50 * 1000;  // 50 ms
  // The cap is the retry cadence once the breaker is open (from the 4th
  // consecutive failure): 4 retries/s.
  popts.max_backoff_micros = 250 * 1000;
  Status started = db->StartDigestProtection(&store, popts);
  if (!started.ok()) {
    std::fprintf(stderr, "StartDigestProtection: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  DigestUploadPipeline* p = db->digest_pipeline();

  Workload load{db.get()};
  const int kDigestEveryMs = 100;  // the paper's "every few seconds", scaled

  std::printf("=== Digest outage recovery benchmark ===\n");
  std::printf("  outage length          : %d ms\n", outage_ms);

  // ---- Phase 1: healthy warm-up ----
  for (int i = 0; i < 10; i++) {
    load.Commit(8);
    if (!p->GenerateAndSubmit().ok()) std::exit(1);
    if (p->DrainFully().ok() == false) std::exit(1);
  }
  if (!p->status().fully_protected()) std::exit(1);
  uint64_t healthy_uploads =
      db->MetricsSnapshot().counters["digest.uploads_total"];
  std::printf("  healthy warm-up        : %llu digests uploaded\n",
              static_cast<unsigned long long>(healthy_uploads));

  // ---- Phase 2: scripted outage ----
  store.SetOutage(true);
  uint64_t peak_blocks_behind = 0;
  uint64_t peak_pending = 0;
  uint64_t submitted_during_outage = 0;
  uint64_t rejected_during_outage = 0;
  bool breaker_opened = false;
  double outage_start = NowSeconds();
  while ((NowSeconds() - outage_start) * 1000.0 < outage_ms) {
    load.Commit(8);
    Status st = p->GenerateAndSubmit();
    if (st.ok())
      submitted_during_outage++;
    else if (st.code() == StatusCode::kBusy)
      rejected_during_outage++;
    else
      std::exit(1);
    (void)p->Pump();  // fails against the dead store; drives the breaker
    DigestProtectionStatus s = p->status();
    peak_blocks_behind = std::max(peak_blocks_behind, s.blocks_behind);
    peak_pending = std::max(peak_pending, s.outbox_pending);
    if (s.breaker == DigestBreakerState::kOpen) breaker_opened = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(kDigestEveryMs));
  }
  DigestProtectionStatus during = p->status();
  std::printf("  during outage          : %llu digests queued, peak %llu "
              "blocks behind, breaker=%s\n",
              static_cast<unsigned long long>(submitted_during_outage),
              static_cast<unsigned long long>(peak_blocks_behind),
              DigestBreakerStateName(during.breaker));

  // ---- Phase 3: recovery ----
  store.SetOutage(false);
  double recover_start = NowSeconds();
  double catchup_seconds = -1;
  for (int spin = 0; spin < 60000; spin++) {
    (void)p->Pump();
    DigestProtectionStatus s = p->status();
    if (!s.fatal.ok()) std::exit(1);
    if (s.outbox_pending == 0 && s.fully_protected()) {
      catchup_seconds = NowSeconds() - recover_start;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (catchup_seconds < 0) {
    std::fprintf(stderr, "pipeline never caught up: %s\n",
                 p->status().ToString().c_str());
    std::exit(1);
  }
  // Counters come from the registry (digest.*; DESIGN.md §13).
  MetricsSnapshot snap = db->MetricsSnapshot();
  uint64_t uploads = snap.counters["digest.uploads_total"];
  uint64_t retries = snap.counters["digest.retries_total"];
  uint64_t transient_errors = snap.counters["digest.transient_errors_total"];
  std::printf("  catch-up               : %.3f s  (%llu uploads, %llu "
              "retries, %llu transient errors)\n",
              catchup_seconds, static_cast<unsigned long long>(uploads),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(transient_errors));

  // End-to-end cross-check: the blob store's digests verify the ledger.
  auto report = VerifyLedgerAgainstStore(db.get(), **blob_store);
  if (!report.ok() || !report->ok()) {
    std::fprintf(stderr, "post-recovery verification failed\n");
    std::exit(1);
  }
  std::printf("  post-recovery verify   : OK (%llu blocks)\n",
              static_cast<unsigned long long>(report->blocks_checked));

  JsonValue doc = JsonValue::Object();
  doc.Set("outage_ms", JsonValue::Int(outage_ms));
  doc.Set("digest_interval_ms", JsonValue::Int(kDigestEveryMs));
  doc.Set("healthy_uploads", JsonValue::Int(static_cast<int64_t>(
                                 healthy_uploads)));
  doc.Set("submitted_during_outage",
          JsonValue::Int(static_cast<int64_t>(submitted_during_outage)));
  doc.Set("rejected_during_outage",
          JsonValue::Int(static_cast<int64_t>(rejected_during_outage)));
  doc.Set("peak_blocks_behind",
          JsonValue::Int(static_cast<int64_t>(peak_blocks_behind)));
  doc.Set("peak_outbox_pending",
          JsonValue::Int(static_cast<int64_t>(peak_pending)));
  doc.Set("breaker_opened", JsonValue::Bool(breaker_opened));
  doc.Set("catchup_seconds", JsonValue::Double(catchup_seconds));
  doc.Set("uploads_ok", JsonValue::Int(static_cast<int64_t>(uploads)));
  doc.Set("retries", JsonValue::Int(static_cast<int64_t>(retries)));
  doc.Set("transient_errors",
          JsonValue::Int(static_cast<int64_t>(transient_errors)));
  doc.Set("blocks_verified",
          JsonValue::Int(static_cast<int64_t>(report->blocks_checked)));
  doc.Set("breaker_transitions",
          JsonValue::Int(static_cast<int64_t>(
              snap.counters["digest.breaker_transitions_total"])));
  const HistogramSnapshot& upload = snap.histograms["digest.upload_micros"];
  doc.Set("upload_p50_micros", JsonValue::Double(upload.Percentile(50)));
  doc.Set("upload_p99_micros", JsonValue::Double(upload.Percentile(99)));
  doc.Set("final_outbox_depth",
          JsonValue::Int(snap.gauges["digest.outbox_depth"]));

  std::ofstream out(out_path);
  out << doc.DumpPretty() << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  db->StopDigestProtection();
  db.reset();
  // Blob files are write-once read-only; restore permissions to clean up.
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(
           work, std::filesystem::directory_options::skip_permission_denied,
           ec);
       it != std::filesystem::recursive_directory_iterator(); ++it) {
    std::filesystem::permissions(it->path(), std::filesystem::perms::owner_all,
                                 std::filesystem::perm_options::add, ec);
  }
  std::filesystem::remove_all(work, ec);
  return 0;
}

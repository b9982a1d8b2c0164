// Fault-tolerant digest upload pipeline (DESIGN.md §9). The paper's trust
// model hangs on digests reaching trusted external storage "every few
// seconds" (§2.4, §3.6); that store is remote and unreliable, so the
// pipeline must survive timeouts, outages, lost acks and crashes without
// losing the digest cadence or reordering the chain:
//
//   submit ──► chain check ──► durable outbox ──► retry loop ──► store
//                 (fork?)        (Env, CRC'd)     (backoff +
//                                                  breaker)
//
//   - Every submitted digest is chained against the previous submission
//     (VerifyDigestChain) and appended to a DigestOutbox BEFORE the first
//     upload attempt; an outage plus a crash replays the outbox in order.
//   - An error classifier splits retryable failures (timeout, unavailable,
//     throttled) from fatal ones (fork detected, corruption); only fatal
//     errors latch and stop the pipeline.
//   - Each retryable failure waits one step of exponential backoff with
//     seeded jitter, up to a cap: the one retry timer. The circuit
//     breaker is a reading of the consecutive failures: healthy at 0,
//     degraded at 1-3, open at 4 or more (retrying at the capped
//     backoff), healthy again on the first upload that lands.
//   - Ambiguous outcomes ("stored but the ack was lost") are recovered
//     idempotently: the retry re-uploads identical bytes and the store
//     answers OK; mismatched content for an already-stored block raises
//     the fork alarm instead (see DigestStore::Upload).
//
// The synchronous core (SubmitDigest / GenerateAndSubmit / Pump) is what
// the deterministic simulator and tests drive; Start() wraps it in the
// background cadence thread, the only periodic digest uploader.
// All time comes from the database's injectable clock, so backoff and
// breaker transitions replay deterministically under the simulator.
// Digests come from LedgerDatabase::GenerateDigest, the one issuer; with a
// lagging geo replica it refuses with a retryable Busy (paper §3.6), and
// the cadence simply tries again at its next interval.

#ifndef SQLLEDGER_LEDGER_DIGEST_PIPELINE_H_
#define SQLLEDGER_LEDGER_DIGEST_PIPELINE_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "ledger/digest.h"
#include "storage/digest_outbox.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace sqlledger {

class DigestStore;
class LedgerDatabase;
class Tracer;

/// Retryable errors are the store misbehaving (network weather); fatal
/// errors mean the *ledger* or the *stored digests* are wrong and retrying
/// would paper over an attack.
enum class DigestErrorClass { kRetryable, kFatal };
DigestErrorClass ClassifyDigestUploadError(const Status& status);

enum class DigestBreakerState { kHealthy, kDegraded, kOpen };
const char* DigestBreakerStateName(DigestBreakerState state);

struct DigestPipelineOptions {
  /// Directory for the durable outbox (required).
  std::string outbox_dir;
  /// Env for outbox I/O. nullptr = Env::Default(). Not owned.
  Env* env = nullptr;
  /// Maximum digests queued while the store is unreachable; submissions
  /// beyond it are rejected (and counted) — the next successful digest
  /// covers the whole chain anyway, so cadence resumes at recovery.
  size_t outbox_capacity = 64;

  // Exponential backoff between retry rounds (micros of database time):
  // the k-th consecutive failure waits min(initial * 2^(k-1), max), so an
  // open breaker retries at the cap.
  int64_t initial_backoff_micros = 200 * 1000;
  int64_t max_backoff_micros = 1000 * 1000;
  /// Jitter fraction: each backoff is scaled by a seeded uniform draw from
  /// [1 - jitter, 1 + jitter] to avoid retry convoys.
  double jitter = 0.2;

  /// Seed for the jitter PRNG (deterministic under the simulator).
  uint64_t seed = 42;
};

/// Graceful-degradation surface: how far behind trusted storage the ledger
/// currently is. Callers assert protection staleness instead of discovering
/// a gap at verification time. State only: the pipeline's counters
/// (uploads, attempts, retries, ...) live in the registry as digest.*.
struct DigestProtectionStatus {
  DigestBreakerState breaker = DigestBreakerState::kHealthy;
  /// Closed blocks not yet covered by a digest the store acknowledged.
  uint64_t blocks_behind = 0;
  /// Database-clock seconds since the last durable digest; -1 = never.
  double seconds_since_last_durable = -1;
  uint64_t outbox_pending = 0;
  int consecutive_failures = 0;

  /// Latched fatal error (fork / corruption); OK while the pipeline lives.
  Status fatal;

  /// Every closed block is covered by trusted storage and no alarm fired.
  bool fully_protected() const { return blocks_behind == 0 && fatal.ok(); }
  std::string ToString() const;
};

class DigestUploadPipeline {
 public:
  /// Opens the durable outbox (replaying any digests a previous process
  /// left pending, in order) and builds the pipeline. The chain check's
  /// first anchor is the outbox's tail or, with nothing queued, the store's
  /// newest digest of this incarnation; a failed store read leaves it
  /// unanchored (DESIGN.md §9). `db` and `store` are not owned and must
  /// outlive it.
  static Result<std::unique_ptr<DigestUploadPipeline>> Open(
      LedgerDatabase* db, DigestStore* store, DigestPipelineOptions options);
  ~DigestUploadPipeline();

  DigestUploadPipeline(const DigestUploadPipeline&) = delete;
  DigestUploadPipeline& operator=(const DigestUploadPipeline&) = delete;

  // ---- Synchronous core ----

  /// Chain-checks `digest` against the previous submission and durably
  /// queues it. Does NOT attempt the upload (call Pump). Fails with Busy
  /// when the outbox is full and with the latched error once fatal.
  Status SubmitDigest(const DatabaseDigest& digest);
  /// GenerateDigest() + SubmitDigest().
  Status GenerateAndSubmit();
  /// Attempts pending uploads, oldest first, once the backoff has elapsed
  /// on the database clock. Stops at the first failure of the round.
  /// Returns the number of digests the store acknowledged.
  size_t Pump();
  /// Pump until the outbox drains, a fatal error latches, or a round makes
  /// no progress while backoff blocks further attempts. For tests and
  /// benches with real or fast-ticking clocks.
  Status DrainFully();

  // ---- Background cadence ----

  /// Starts the background thread: every `interval`, GenerateAndSubmit +
  /// Pump. No-op if already started.
  void Start(std::chrono::milliseconds interval);
  void Stop();

  DigestProtectionStatus status() const;

  /// The durable queue, for auditing/replay inspection (thread-safe).
  DigestOutbox* outbox() { return outbox_.get(); }

 private:
  DigestUploadPipeline(LedgerDatabase* db, DigestStore* store,
                       DigestPipelineOptions options,
                       std::unique_ptr<DigestOutbox> outbox);

  void Loop(std::chrono::milliseconds interval);
  size_t PumpLocked(int64_t now) REQUIRES(mu_);
  void OnRetryableFailureLocked(int64_t now) REQUIRES(mu_);
  /// Sets consecutive_failures_. When that moves the breaker reading,
  /// counts the transition and emits a trace instant.
  void SetFailuresLocked(int failures) REQUIRES(mu_);

  LedgerDatabase* const db_;
  DigestStore* const store_;
  const DigestPipelineOptions options_;
  std::unique_ptr<DigestOutbox> outbox_;

  mutable Mutex mu_;
  Random rng_ GUARDED_BY(mu_);
  Status fatal_ GUARDED_BY(mu_);
  /// Chain anchor: the digest most recently accepted by SubmitDigest, or
  /// the one Open found (outbox tail, else the store's newest).
  bool have_last_submitted_ GUARDED_BY(mu_) = false;
  DatabaseDigest last_submitted_ GUARDED_BY(mu_);
  /// The digest most recently acknowledged by the store.
  bool have_last_durable_ GUARDED_BY(mu_) = false;
  DatabaseDigest last_durable_ GUARDED_BY(mu_);
  int64_t last_durable_at_micros_ GUARDED_BY(mu_) = 0;
  /// Backoff: no upload attempt before this database time.
  int64_t next_attempt_micros_ GUARDED_BY(mu_) = 0;
  /// Retryable failures since the last upload that landed; the breaker is
  /// a reading of it.
  int consecutive_failures_ GUARDED_BY(mu_) = 0;
  /// Attempts already spent on the digest at the head of the outbox.
  uint64_t head_attempts_ GUARDED_BY(mu_) = 0;

  // Counters, gauges and latencies live in the database's metric registry
  // (digest.*; DESIGN.md §13), read through MetricsSnapshot(). Pointers are
  // resolved once in Open; recording is lock-free and adds no lock-order
  // edge under mu_. Trace instants under mu_ use the Tracer's leaf mutex
  // (edge declared in scripts/lock_hierarchy.txt).
  Counter* m_uploads_ok_ = nullptr;        // digest.uploads_total
  Counter* m_attempts_ = nullptr;          // digest.attempts_total
  Counter* m_retries_ = nullptr;           // digest.retries_total
  Counter* m_transient_errors_ = nullptr;  // digest.transient_errors_total
  Counter* m_recoveries_ = nullptr;        // digest.recoveries_total
  Counter* m_rejected_ = nullptr;          // digest.rejected_total
  Counter* m_breaker_transitions_ = nullptr;
  // ^ digest.breaker_transitions_total
  Gauge* m_outbox_depth_ = nullptr;        // digest.outbox_depth
  Gauge* m_breaker_state_ = nullptr;       // digest.breaker_state
  Histogram* m_upload_micros_ = nullptr;   // digest.upload_micros
  Tracer* tracer_ = nullptr;

  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_DIGEST_PIPELINE_H_

#include "ledger/digest_pipeline.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "ledger/digest_store.h"
#include "ledger/ledger_database.h"
#include "util/trace.h"

namespace sqlledger {

namespace {

// Circuit breaker thresholds (consecutive retryable failures) and the
// growth factor of the retry backoff.
constexpr int kDegradedAfterFailures = 1;
constexpr int kOpenAfterFailures = 4;
constexpr double kBackoffMultiplier = 2.0;

DigestBreakerState BreakerReading(int consecutive_failures) {
  if (consecutive_failures >= kOpenAfterFailures)
    return DigestBreakerState::kOpen;
  if (consecutive_failures >= kDegradedAfterFailures)
    return DigestBreakerState::kDegraded;
  return DigestBreakerState::kHealthy;
}

}  // namespace

DigestErrorClass ClassifyDigestUploadError(const Status& status) {
  switch (status.code()) {
    // The ledger or the stored digests are wrong — retrying would paper
    // over a fork, tampering or a misconfiguration. Alert and stop.
    case StatusCode::kIntegrityViolation:
    case StatusCode::kCorruption:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotSupported:
    case StatusCode::kPermissionDenied:
      return DigestErrorClass::kFatal;
    // Network weather: timeouts, throttling, partitions, races. Retry.
    default:
      return DigestErrorClass::kRetryable;
  }
}

const char* DigestBreakerStateName(DigestBreakerState state) {
  switch (state) {
    case DigestBreakerState::kHealthy: return "healthy";
    case DigestBreakerState::kDegraded: return "degraded";
    case DigestBreakerState::kOpen: return "open";
  }
  return "unknown";
}

std::string DigestProtectionStatus::ToString() const {
  std::ostringstream os;
  os << "breaker=" << DigestBreakerStateName(breaker)
     << " blocks_behind=" << blocks_behind
     << " stale_s=" << seconds_since_last_durable
     << " pending=" << outbox_pending;
  if (!fatal.ok()) os << " FATAL=" << fatal.ToString();
  return os.str();
}

DigestUploadPipeline::DigestUploadPipeline(
    LedgerDatabase* db, DigestStore* store, DigestPipelineOptions options,
    std::unique_ptr<DigestOutbox> outbox)
    : db_(db),
      store_(store),
      options_(std::move(options)),
      outbox_(std::move(outbox)),
      rng_(options_.seed) {}

Result<std::unique_ptr<DigestUploadPipeline>> DigestUploadPipeline::Open(
    LedgerDatabase* db, DigestStore* store, DigestPipelineOptions options) {
  DigestOutboxOptions obox;
  obox.dir = options.outbox_dir;
  obox.env = options.env;
  obox.capacity = options.outbox_capacity;
  auto outbox = DigestOutbox::Open(std::move(obox));
  if (!outbox.ok()) return outbox.status();

  std::unique_ptr<DigestUploadPipeline> pipeline(new DigestUploadPipeline(
      db, store, std::move(options), std::move(*outbox)));

  // Resolve the pipeline's metrics from the database registry (DESIGN.md
  // §13). Open runs before the pipeline sees any concurrency.
  MetricRegistry* metrics = db->metrics();
  pipeline->m_uploads_ok_ = metrics->GetCounter("digest.uploads_total");
  pipeline->m_attempts_ = metrics->GetCounter("digest.attempts_total");
  pipeline->m_retries_ = metrics->GetCounter("digest.retries_total");
  pipeline->m_transient_errors_ =
      metrics->GetCounter("digest.transient_errors_total");
  pipeline->m_recoveries_ = metrics->GetCounter("digest.recoveries_total");
  pipeline->m_rejected_ = metrics->GetCounter("digest.rejected_total");
  pipeline->m_breaker_transitions_ =
      metrics->GetCounter("digest.breaker_transitions_total");
  pipeline->m_outbox_depth_ = metrics->GetGauge("digest.outbox_depth");
  pipeline->m_breaker_state_ = metrics->GetGauge("digest.breaker_state");
  pipeline->m_upload_micros_ = metrics->GetHistogram("digest.upload_micros");
  pipeline->tracer_ = db->tracer();
  pipeline->m_outbox_depth_->Set(
      static_cast<int64_t>(pipeline->outbox_->pending_count()));

  // A previous process may have left digests queued (outage, crash). The
  // newest becomes the chain anchor so this incarnation's next submission
  // chains onto the replayed tail, preserving upload order end to end.
  // With nothing queued, the anchor is the newest digest the store holds
  // for this incarnation, so a database rolled back and rewritten after an
  // upload fails the chain check at its next digest (paper §3.3.1). A store
  // that cannot answer leaves the pipeline unanchored rather than stopping
  // protection at start (DESIGN.md §9).
  std::vector<std::string> pending = pipeline->outbox_->Pending();
  std::optional<DatabaseDigest> anchor;
  if (!pending.empty()) {
    auto tail = DatabaseDigest::FromJson(pending.back());
    if (!tail.ok())
      return Status::Corruption("outbox replay: undecodable digest: " +
                                tail.status().message());
    anchor = std::move(*tail);
  } else if (auto latest = store->Latest(db->create_time()); latest.ok()) {
    anchor = std::move(*latest);
  }
  if (anchor.has_value()) {
    MutexLock lock(&pipeline->mu_);
    pipeline->have_last_submitted_ = true;
    pipeline->last_submitted_ = std::move(*anchor);
  }
  return pipeline;
}

DigestUploadPipeline::~DigestUploadPipeline() { Stop(); }

Status DigestUploadPipeline::SubmitDigest(const DatabaseDigest& digest) {
  MutexLock lock(&mu_);
  if (!fatal_.ok()) return fatal_;

  // Fork check against the previous submission (paper §3.3.1 requirement
  // 3) — performed even while the store is unreachable, so a fork cannot
  // hide inside an outage window. Skipped when the anchor's block was
  // legitimately truncated away or belongs to another incarnation.
  if (have_last_submitted_ &&
      last_submitted_.database_create_time == digest.database_create_time &&
      db_->database_ledger()->FindBlock(last_submitted_.block_id).ok()) {
    auto derivable =
        db_->database_ledger()->VerifyDigestChain(last_submitted_, digest);
    if (!derivable.ok()) return derivable.status();
    if (!*derivable) {
      fatal_ = Status::IntegrityViolation(
          "fork detected: digest for block " + std::to_string(digest.block_id) +
          " is not derivable from the previous digest (block " +
          std::to_string(last_submitted_.block_id) + ")");
      return fatal_;
    }
  }

  Status st = outbox_->Append(digest.ToJson());
  if (!st.ok()) {
    if (st.code() == StatusCode::kBusy) m_rejected_->Add();
    return st;
  }
  m_outbox_depth_->Set(static_cast<int64_t>(outbox_->pending_count()));
  have_last_submitted_ = true;
  last_submitted_ = digest;
  return Status::OK();
}

Status DigestUploadPipeline::GenerateAndSubmit() {
  auto digest = db_->GenerateDigest();
  if (!digest.ok()) {
    if (ClassifyDigestUploadError(digest.status()) == DigestErrorClass::kFatal) {
      MutexLock lock(&mu_);
      if (fatal_.ok()) fatal_ = digest.status();
    }
    return digest.status();
  }
  return SubmitDigest(*digest);
}

void DigestUploadPipeline::SetFailuresLocked(int failures) {
  const DigestBreakerState from = BreakerReading(consecutive_failures_);
  const DigestBreakerState next = BreakerReading(failures);
  consecutive_failures_ = failures;
  if (next == from) return;
  m_breaker_transitions_->Add();
  m_breaker_state_->Set(static_cast<int64_t>(next));
  tracer_->RecordInstant("digest.breaker", "digest",
                         DigestBreakerStateName(from),
                         DigestBreakerStateName(next));
}

void DigestUploadPipeline::OnRetryableFailureLocked(int64_t now) {
  m_transient_errors_->Add();
  SetFailuresLocked(consecutive_failures_ + 1);

  // Exponential backoff with seeded jitter, the one retry timer: an open
  // breaker retries at the cap. The exponent saturates at the cap rather
  // than overflowing for long outages.
  double backoff = static_cast<double>(options_.initial_backoff_micros);
  for (int i = 1; i < consecutive_failures_ &&
                  backoff < static_cast<double>(options_.max_backoff_micros);
       i++)
    backoff *= kBackoffMultiplier;
  backoff = std::min(backoff, static_cast<double>(options_.max_backoff_micros));
  double factor = 1.0 + options_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  next_attempt_micros_ = now + static_cast<int64_t>(backoff * factor);
}

size_t DigestUploadPipeline::PumpLocked(int64_t now) {
  if (!fatal_.ok() || now < next_attempt_micros_) return 0;

  size_t uploaded = 0;
  while (true) {
    std::vector<std::string> pending = outbox_->Pending();
    if (pending.empty()) break;
    auto digest = DatabaseDigest::FromJson(pending.front());
    if (!digest.ok()) {
      fatal_ = Status::Corruption("outbox head undecodable: " +
                                  digest.status().message());
      break;
    }

    head_attempts_++;
    m_attempts_->Add();
    if (head_attempts_ > 1) m_retries_->Add();
    const int64_t upload_start = db_->metrics()->NowMicros();
    Status st = store_->Upload(*digest);
    m_upload_micros_->Record(static_cast<uint64_t>(
        std::max<int64_t>(0, db_->metrics()->NowMicros() - upload_start)));
    now = db_->NowMicros();
    if (st.ok()) {
      // The first upload that lands closes the circuit, and the drain
      // continues below.
      m_uploads_ok_->Add();
      uploaded++;
      if (head_attempts_ > 1) m_recoveries_->Add();
      head_attempts_ = 0;
      SetFailuresLocked(0);
      next_attempt_micros_ = 0;
      have_last_durable_ = true;
      last_durable_ = *digest;
      last_durable_at_micros_ = now;
      // A durably stored digest is the natural anchor for incremental
      // verification to refresh its watermark from (DESIGN.md §11).
      db_->NoteDurableDigest(*digest);
      Status ack = outbox_->Ack(1);
      m_outbox_depth_->Set(static_cast<int64_t>(outbox_->pending_count()));
      if (!ack.ok()) {
        // Local disk trouble persisting the cursor. The digest IS durable
        // at the store; the un-acked head will simply be re-uploaded later
        // and absorbed idempotently. Stop this round.
        m_transient_errors_->Add();
        break;
      }
      continue;
    }

    if (ClassifyDigestUploadError(st) == DigestErrorClass::kFatal) {
      fatal_ = st;  // latch: fork/corruption must alert, never be retried
      break;
    }
    OnRetryableFailureLocked(now);
    break;
  }
  return uploaded;
}

size_t DigestUploadPipeline::Pump() {
  MutexLock lock(&mu_);
  return PumpLocked(db_->NowMicros());
}

Status DigestUploadPipeline::DrainFully() {
  while (true) {
    {
      MutexLock lock(&mu_);
      if (!fatal_.ok()) return fatal_;
    }
    if (outbox_->pending_count() == 0) return Status::OK();
    if (Pump() == 0) {
      MutexLock lock(&mu_);
      if (!fatal_.ok()) return fatal_;
      return Status::Busy("digest uploads blocked (backoff); " +
                          std::to_string(outbox_->pending_count()) +
                          " pending");
    }
  }
}

void DigestUploadPipeline::Start(std::chrono::milliseconds interval) {
  MutexLock lock(&mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread([this, interval] { Loop(interval); });
}

void DigestUploadPipeline::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.SignalAll();
  if (thread_.joinable()) thread_.join();
  MutexLock lock(&mu_);
  running_ = false;
}

void DigestUploadPipeline::Loop(std::chrono::milliseconds interval) {
  mu_.Lock();
  while (!stop_) {
    // Sleep out the interval, waking early only for Stop: a timeout with
    // stop_ still false means the interval elapsed and it is time to work.
    auto deadline = std::chrono::steady_clock::now() + interval;
    while (!stop_) {
      if (!cv_.WaitUntil(&mu_, deadline)) break;
    }
    if (stop_) break;
    bool fatal = !fatal_.ok();
    mu_.Unlock();
    if (fatal) {
      mu_.Lock();
      break;  // latched: alert-and-stop, mirroring the paper's behaviour
    }
    // Transient submit failures (outbox full, disk hiccup) are counted in
    // the registry (digest.*); the cadence itself keeps going.
    (void)GenerateAndSubmit();  // fatal errors latch into status().fatal
    (void)Pump();               // progress: digest.uploads_total
    mu_.Lock();
  }
  mu_.Unlock();
}

DigestProtectionStatus DigestUploadPipeline::status() const {
  MutexLock lock(&mu_);
  DigestProtectionStatus s;
  s.breaker = BreakerReading(consecutive_failures_);
  s.fatal = fatal_;
  s.outbox_pending = outbox_->pending_count();
  s.consecutive_failures = consecutive_failures_;

  DatabaseLedger* ledger = db_->database_ledger();
  uint64_t open_id = ledger != nullptr ? ledger->open_block_id() : 0;
  if (open_id == 0 || (have_last_durable_ &&
                       last_durable_.block_id + 1 >= open_id)) {
    s.blocks_behind = 0;
  } else if (!have_last_durable_) {
    s.blocks_behind = open_id;  // every closed block is unprotected
  } else {
    s.blocks_behind = open_id - 1 - last_durable_.block_id;
  }
  if (have_last_durable_) {
    int64_t now = db_->NowMicros();
    s.seconds_since_last_durable =
        now > last_durable_at_micros_
            ? static_cast<double>(now - last_durable_at_micros_) / 1e6
            : 0.0;
  }
  return s;
}

}  // namespace sqlledger

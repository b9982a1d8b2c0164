// Bounded in-memory trace-event ring buffer (DESIGN.md §13), exported as
// Chrome trace-event JSON (load chrome://tracing or https://ui.perfetto.dev).
//
// Two event shapes:
//   - complete spans (ph "X"): name + category + start ts + duration,
//     emitted by Tracer::RecordComplete;
//   - instant events (ph "i"): point-in-time markers (breaker transitions,
//     verification fallbacks) with one optional string argument.
//
// Names, categories and argument names are static strings (literals or
// other strings that live for the whole program): an event keeps only
// their pointers. An instant event's argument, rare, is kept beside the
// ring by slot, with a copy of its value, so a slot stays 32 bytes.
//
// Determinism: timestamps come from the owning MetricRegistry's injectable
// clock, and thread ids are small logical ids handed out in first-use order
// by a process-wide counter — never OS thread ids — so a single-threaded
// deterministic-simulator run serializes byte-identically across reruns.
//
// Tracer::mu_ is a LEAF in the lock hierarchy: Record* takes only this
// mutex and calls nothing that locks. Call sites may hold commit_mu_ or
// DigestUploadPipeline::mu_ while recording (the edges are declared in
// scripts/lock_hierarchy.txt); nothing may be acquired under Tracer::mu_.

#ifndef SQLLEDGER_UTIL_TRACE_H_
#define SQLLEDGER_UTIL_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace sqlledger {

/// One ring slot. An instant event's argument is not in it (Tracer keeps
/// it beside the ring), so the ring's reserved capacity stays small.
struct TraceEvent {
  const char* name = "";  // static strings (see the file comment)
  const char* category = "";
  int64_t ts_micros = 0;
  uint32_t dur_micros = 0;  // spans only, saturating at 2^32 - 1 (71 min)
  uint16_t tid = 0;         // logical thread id, first-use order, mod 2^16
  char phase = 'X';         // 'X' = complete span, 'i' = instant
};

static_assert(sizeof(TraceEvent) <= 32,
              "a database's ring reserves capacity events up front");

/// Fixed-capacity ring of trace events. When full, the oldest event is
/// overwritten and dropped_count() grows; export order is always
/// oldest-to-newest. Recording takes the tracer's leaf mutex — cheap (a
/// vector slot assignment), but not for per-row hot loops; instrument
/// phase-level operations (group commit, upload attempt, verify pass).
class Tracer {
 public:
  explicit Tracer(const MetricRegistry* registry, size_t capacity = 4096);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a completed span [start_micros, start_micros+dur_micros).
  /// `name` and `category` are static strings.
  void RecordComplete(const char* name, const char* category,
                      int64_t start_micros, int64_t dur_micros) EXCLUDES(mu_);

  /// Records an instant event stamped with the registry clock's current
  /// time, with an optional single argument. `name`, `category` and
  /// `arg_name` are static strings; `arg_value` is copied.
  void RecordInstant(const char* name, const char* category,
                     const char* arg_name = "",
                     std::string arg_value = "") EXCLUDES(mu_);

  /// Events currently buffered, oldest first, without their arguments
  /// (ToChromeJson has them).
  std::vector<TraceEvent> Events() const EXCLUDES(mu_);
  /// Events evicted to make room since construction.
  uint64_t dropped_count() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  /// Chrome trace-event JSON: {"traceEvents":[...], "displayTimeUnit":"ms",
  /// "otherData":{"dropped_events":N}}. Deterministic given deterministic
  /// events (insertion-ordered objects, integer timestamps).
  JsonValue ToChromeJson() const EXCLUDES(mu_);

  /// Reads the owning registry's clock.
  int64_t NowMicros() const { return registry_->NowMicros(); }

  /// Logical id of the calling thread, assigned on first use (1, 2, ...).
  static uint32_t CurrentTid();

 private:
  struct Arg {
    const char* name;
    std::string value;
  };

  const MetricRegistry* registry_;
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  /// The argument of each instant event in the ring that has one, by slot.
  std::map<size_t, Arg> args_ GUARDED_BY(mu_);
  size_t next_ GUARDED_BY(mu_) = 0;  // ring slot for the next event
  uint64_t dropped_ GUARDED_BY(mu_) = 0;

  /// Stores `ev` and, unless `arg_name` is "", its argument.
  void Push(const TraceEvent& ev, const char* arg_name = "",
            std::string arg_value = "") EXCLUDES(mu_);
  /// The ring's slots, oldest event first.
  std::vector<size_t> SlotsLocked() const REQUIRES(mu_);
};

}  // namespace sqlledger

#endif  // SQLLEDGER_UTIL_TRACE_H_

#include "util/trace.h"

#include <atomic>
#include <utility>

namespace sqlledger {

namespace {
std::atomic<uint32_t> g_next_tid{1};
}  // namespace

uint32_t Tracer::CurrentTid() {
  thread_local uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

Tracer::Tracer(const MetricRegistry* registry, size_t capacity)
    : registry_(registry), capacity_(capacity == 0 ? 1 : capacity) {
  MutexLock lock(&mu_);
  ring_.reserve(capacity_);
}

void Tracer::Push(TraceEvent ev) {
  MutexLock lock(&mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[next_] = std::move(ev);
    ++dropped_;
  }
  next_ = (next_ + 1) % capacity_;
}

void Tracer::RecordComplete(const char* name, const char* category,
                            int64_t start_micros, int64_t dur_micros) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'X';
  ev.ts_micros = start_micros;
  ev.dur_micros = dur_micros < 0 ? 0 : dur_micros;
  ev.tid = CurrentTid();
  Push(std::move(ev));
}

void Tracer::RecordInstant(const char* name, const char* category,
                           const char* arg_name, std::string arg_value) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'i';
  ev.ts_micros = registry_->NowMicros();
  ev.tid = CurrentTid();
  ev.arg_name = arg_name;
  ev.arg_value = std::move(arg_value);
  Push(std::move(ev));
}

std::vector<TraceEvent> Tracer::Events() const {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Full ring: next_ points at the oldest event.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

uint64_t Tracer::dropped_count() const {
  MutexLock lock(&mu_);
  return dropped_;
}

JsonValue Tracer::ToChromeJson() const {
  std::vector<TraceEvent> events = Events();
  uint64_t dropped = dropped_count();
  JsonValue doc = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  for (const TraceEvent& ev : events) {
    JsonValue obj = JsonValue::Object();
    obj.Set("name", JsonValue::Str(ev.name));
    obj.Set("cat", JsonValue::Str(ev.category));
    obj.Set("ph", JsonValue::Str(std::string(1, ev.phase)));
    obj.Set("ts", JsonValue::Int(ev.ts_micros));
    if (ev.phase == 'X') {
      obj.Set("dur", JsonValue::Int(ev.dur_micros));
    } else {
      // Chrome instant events need a scope; "t" = thread.
      obj.Set("s", JsonValue::Str("t"));
    }
    obj.Set("pid", JsonValue::Int(1));
    obj.Set("tid", JsonValue::Int(static_cast<int64_t>(ev.tid)));
    if (ev.arg_name[0] != '\0') {
      JsonValue args = JsonValue::Object();
      args.Set(ev.arg_name, JsonValue::Str(ev.arg_value));
      obj.Set("args", std::move(args));
    }
    arr.Append(std::move(obj));
  }
  doc.Set("traceEvents", std::move(arr));
  doc.Set("displayTimeUnit", JsonValue::Str("ms"));
  JsonValue other = JsonValue::Object();
  other.Set("dropped_events", JsonValue::Int(static_cast<int64_t>(dropped)));
  doc.Set("otherData", std::move(other));
  return doc;
}

}  // namespace sqlledger

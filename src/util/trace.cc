#include "util/trace.h"

#include <algorithm>
#include <atomic>
#include <limits>
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

void Tracer::Push(const TraceEvent& ev, const char* arg_name,
                  std::string arg_value) {
  MutexLock lock(&mu_);
  const size_t slot = next_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[slot] = ev;
    args_.erase(slot);
    ++dropped_;
  }
  if (arg_name[0] != '\0') args_[slot] = Arg{arg_name, std::move(arg_value)};
  next_ = (next_ + 1) % capacity_;
}

void Tracer::RecordComplete(const char* name, const char* category,
                            int64_t start_micros, int64_t dur_micros) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'X';
  ev.ts_micros = start_micros;
  ev.dur_micros = static_cast<uint32_t>(
      std::clamp<int64_t>(dur_micros, 0, std::numeric_limits<uint32_t>::max()));
  ev.tid = static_cast<uint16_t>(CurrentTid());
  Push(ev);
}

void Tracer::RecordInstant(const char* name, const char* category,
                           const char* arg_name, std::string arg_value) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'i';
  ev.ts_micros = registry_->NowMicros();
  ev.tid = static_cast<uint16_t>(CurrentTid());
  Push(ev, arg_name, std::move(arg_value));
}

std::vector<size_t> Tracer::SlotsLocked() const {
  // A full ring's oldest event is at next_.
  const size_t first = ring_.size() < capacity_ ? 0 : next_;
  std::vector<size_t> slots(ring_.size());
  for (size_t i = 0; i < slots.size(); ++i)
    slots[i] = (first + i) % capacity_;
  return slots;
}

std::vector<TraceEvent> Tracer::Events() const {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t slot : SlotsLocked()) out.push_back(ring_[slot]);
  return out;
}

uint64_t Tracer::dropped_count() const {
  MutexLock lock(&mu_);
  return dropped_;
}

JsonValue Tracer::ToChromeJson() const {
  std::vector<TraceEvent> events;
  std::map<size_t, Arg> args;  // by index into `events`
  uint64_t dropped;
  {
    MutexLock lock(&mu_);
    dropped = dropped_;
    for (size_t slot : SlotsLocked()) {
      auto it = args_.find(slot);
      if (it != args_.end()) args.emplace(events.size(), it->second);
      events.push_back(ring_[slot]);
    }
  }
  JsonValue doc = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
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
    obj.Set("tid", JsonValue::Int(ev.tid));
    auto arg = args.find(i);
    if (arg != args.end()) {
      JsonValue value = JsonValue::Object();
      value.Set(arg->second.name, JsonValue::Str(arg->second.value));
      obj.Set("args", std::move(value));
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

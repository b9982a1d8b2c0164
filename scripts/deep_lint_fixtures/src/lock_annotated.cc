// Seeded violations hidden behind member declarations the parser must
// still record: a PT_GUARDED_BY pointer member and a member whose type
// closes with `>>`.  Calling through either one while holding mu_ takes
// an edge that lock_hierarchy.txt does not declare.
#include <memory>

#include "fixture_mutex.h"

namespace fx {

class Store {
 public:
  void Insert() { MutexLock l(&latch_); }

 private:
  Mutex latch_;
};

template <typename T>
class Sink {
 public:
  void Put() { MutexLock l(&mu_); }

 private:
  Mutex mu_;
};

class Ann {
 public:
  void Drain() {
    MutexLock l(&mu_);
    store_->Insert();  // edge Ann::mu_ -> Store::latch_: never declared
  }

  void Flush() {
    MutexLock l(&mu_);
    sink_->Put();  // edge Ann::mu_ -> Sink::mu_: never declared
  }

 private:
  Mutex mu_;
  Store* const store_ PT_GUARDED_BY(mu_);
  std::unique_ptr<Sink<int>> sink_;
};

}  // namespace fx

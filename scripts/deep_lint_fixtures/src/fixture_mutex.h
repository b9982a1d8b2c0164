// Minimal stand-ins for util/thread_annotations.h so fixtures read as
// ordinary C++ without pulling in the real repo headers.
#ifndef FIXTURE_MUTEX_H_
#define FIXTURE_MUTEX_H_

#define PT_GUARDED_BY(x)

struct Mutex {
  void Lock() {}
  void Unlock() {}
};

struct MutexLock {
  explicit MutexLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() { mu_->Unlock(); }
  Mutex* mu_;
};

#endif  // FIXTURE_MUTEX_H_

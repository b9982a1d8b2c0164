// Clang Thread Safety Analysis annotations plus annotation-aware mutex
// wrappers, modeled on Abseil's thread_annotations.h and LevelDB's port
// layer. Under Clang with -Wthread-safety (CMake option
// SQLLEDGER_THREAD_SAFETY_ANALYSIS, -Werror=thread-safety in CI) the
// compiler statically checks that every GUARDED_BY member is only touched
// with its mutex held and that REQUIRES contracts hold at every call site.
// Under other compilers the annotations expand to nothing and the wrappers
// are zero-cost veneers over the <mutex>/<shared_mutex> primitives.
//
// Repo rule (enforced by scripts/lint.py): library code under src/ uses
// these wrappers — never raw std::mutex / std::shared_mutex /
// std::condition_variable — so the lock protocol stays visible to the
// analysis everywhere.

#ifndef SQLLEDGER_UTIL_THREAD_ANNOTATIONS_H_
#define SQLLEDGER_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__)
#define SL_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define SL_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Documents that a data member is protected by the given capability
/// (mutex). Reads require the capability held shared; writes exclusive.
#define GUARDED_BY(x) SL_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Like GUARDED_BY, but protects the data *pointed to* by a pointer member
/// rather than the pointer itself.
#define PT_GUARDED_BY(x) SL_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Declares a class to be a capability (lockable) type.
#define CAPABILITY(x) SL_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SCOPED_CAPABILITY SL_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// The annotated function must be called with the listed capabilities held
/// exclusively (and does not release them).
#define REQUIRES(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// As REQUIRES, but shared (reader) access suffices.
#define REQUIRES_SHARED(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// The annotated function acquires the capability exclusively.
#define ACQUIRE(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The annotated function acquires the capability shared.
#define ACQUIRE_SHARED(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))

/// The annotated function releases the capability (exclusive or shared).
#define RELEASE(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The annotated function releases a shared hold of the capability.
#define RELEASE_SHARED(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))

/// The annotated function tries to acquire the capability; the first
/// argument is the return value meaning success.
#define TRY_ACQUIRE(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// The annotated function must NOT be called with the capability held
/// (deadlock prevention for self-locking public entry points).
#define EXCLUDES(...) SL_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Asserts (at analysis time) that the calling thread holds the capability.
#define ASSERT_CAPABILITY(x) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

/// The annotated function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) SL_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Documents a required acquisition order between capabilities.
#define ACQUIRED_AFTER(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))
#define ACQUIRED_BEFORE(...) \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))

/// Escape hatch: disables analysis for one function. Every use MUST carry a
/// comment explaining why the protocol cannot be expressed (see DESIGN.md
/// §8); scripts/lint.py rejects bare uses.
#define NO_THREAD_SAFETY_ANALYSIS \
  SL_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace sqlledger {

class CondVar;

/// Annotation-aware exclusive mutex (std::mutex underneath).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  /// Analysis-only assertion that the current thread holds this mutex; used
  /// in helpers reached only from locked regions the analysis cannot see.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotation-aware reader/writer mutex (std::shared_mutex underneath).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over Mutex (std::lock_guard equivalent).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable bound to Mutex at each wait call, so waits carry a
/// REQUIRES(mu) contract the analysis checks. Use explicit predicate loops
///   while (!cond) cv.Wait(&mu);
/// rather than predicate lambdas: the loop body is analyzed in the locked
/// enclosing scope, a lambda would not be.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning. Spurious wakeups possible; always wait in a loop.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu->mu_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();  // the caller's scope still owns the lock
  }

  /// As Wait, but returns false when `deadline` passes without a notify.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex* mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu->mu_, std::adopt_lock);
    bool notified = cv_.wait_until(inner, deadline) == std::cv_status::no_timeout;
    inner.release();
    return notified;
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_UTIL_THREAD_ANNOTATIONS_H_

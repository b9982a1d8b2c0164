// Minimal fixed-size thread pool used to parallelize ledger verification,
// splitting the work within tables as well as across them (the paper leans
// on SQL Server's parallel query execution for the same purpose, §3.4.2).

#ifndef SQLLEDGER_UTIL_THREADPOOL_H_
#define SQLLEDGER_UTIL_THREADPOOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace sqlledger {

class ThreadPool {
 public:
  /// Starts `threads` workers (minimum 1).
  explicit ThreadPool(size_t threads) {
    if (threads == 0) threads = 1;
    for (size_t i = 0; i < threads; i++) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(&mu_);
      stop_ = true;
    }
    cv_.SignalAll();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> fn) {
    {
      MutexLock lock(&mu_);
      queue_.push_back(std::move(fn));
    }
    cv_.Signal();
  }

  size_t worker_count() const { return workers_.size(); }

 private:
  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        MutexLock lock(&mu_);
        while (!stop_ && queue_.empty()) cv_.Wait(&mu_);
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only in the constructor
};

/// Runs fn(begin, end) over contiguous chunks of [0, n), distributed across
/// the pool, and blocks until every chunk has finished, counting them down
/// on its own latch so several ParallelFor phases can share one pool.
/// `pool == nullptr` — or a range too small to be worth splitting
/// (< 2 * min_chunk) — runs inline on the caller. Must be called from
/// outside the pool's workers (the caller blocks).
inline void ParallelFor(ThreadPool* pool, size_t n,
                        const std::function<void(size_t, size_t)>& fn,
                        size_t min_chunk = 1) {
  if (n == 0) return;
  if (pool == nullptr || pool->worker_count() <= 1 || n < 2 * min_chunk) {
    fn(0, n);
    return;
  }
  // A few chunks per worker so uneven chunk costs still balance.
  size_t chunks = pool->worker_count() * 4;
  if (chunks > n / min_chunk) chunks = n / min_chunk;
  if (chunks < 2) {
    fn(0, n);
    return;
  }
  size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t begin = 0; begin < n; begin += chunk_size)
    ranges.emplace_back(begin,
                        begin + chunk_size < n ? begin + chunk_size : n);

  struct Latch {
    explicit Latch(size_t n) : remaining(n) {}
    Mutex mu;
    CondVar cv;
    size_t remaining GUARDED_BY(mu);
  } latch(ranges.size());

  for (const auto& [begin, end] : ranges) {
    pool->Submit([&fn, &latch, begin = begin, end = end] {
      fn(begin, end);
      MutexLock lock(&latch.mu);
      if (--latch.remaining == 0) latch.cv.SignalAll();
    });
  }
  MutexLock lock(&latch.mu);
  while (latch.remaining != 0) latch.cv.Wait(&latch.mu);
}

}  // namespace sqlledger

#endif  // SQLLEDGER_UTIL_THREADPOOL_H_

// Hierarchical two-phase locking with intention modes, in the classic
// System R style:
//   - table-level locks: IS, IX, S, X
//   - row-level locks:   S, X   (under an intention lock on the table)
// Readers take IS + row S; writers take IX + row X; scans take table S;
// DDL/maintenance takes table X. Locks are held until commit/abort (strict
// 2PL). Deadlocks are resolved by timeout: a request that cannot be granted
// within the budget aborts its transaction, which the caller retries.
//
// Physical consistency of the underlying B+-trees is the table stores' own
// short-duration latching; these locks provide transaction isolation.

#ifndef SQLLEDGER_TXN_LOCK_MANAGER_H_
#define SQLLEDGER_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>

#include "catalog/row.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlledger {

enum class LockMode : uint8_t {
  kIntentionShared = 0,     // IS
  kIntentionExclusive = 1,  // IX
  kShared = 2,              // S
  kExclusive = 3,           // X
};

/// True when a holder in `held` permits another transaction to acquire
/// `requested` on the same resource.
bool LockModesCompatible(LockMode held, LockMode requested);

class LockManager {
 public:
  explicit LockManager(std::chrono::milliseconds timeout =
                           std::chrono::milliseconds(1000))
      : timeout_(timeout) {}

  /// Acquires (or strengthens to) `mode` on the table. Reentrant; a holder
  /// never blocks itself. Returns Aborted on timeout.
  Status AcquireTable(uint64_t txn_id, uint32_t table_id, LockMode mode);

  /// Acquires a row lock (kShared/kExclusive only). The caller must already
  /// hold a table-level intention (or stronger) lock.
  Status AcquireRow(uint64_t txn_id, uint32_t table_id, const KeyTuple& key,
                    LockMode mode);

  /// Releases every table and row lock held by `txn_id`.
  void ReleaseAll(uint64_t txn_id);

  /// Attaches a lock.wait_micros histogram + lock.timeouts_total /
  /// lock.deadlocks_total counters resolved from `registry` (DESIGN.md §13).
  /// Call once before the manager sees concurrency; nullptr detaches. Only
  /// CONTENDED acquisitions are recorded: the uncontended fast path never
  /// reads the metrics clock, so single-threaded deterministic-simulator
  /// runs make zero lock-metric clock calls.
  void SetMetrics(MetricRegistry* registry);

 private:
  struct Entry {
    // txn -> strongest mode held. Usually tiny.
    std::map<uint64_t, LockMode> holders;
    // Transactions blocked in AcquireLocked hold a pointer to this entry
    // across cv_ waits; ReleaseAll must not erase it while waiters > 0.
    int waiters = 0;
  };

  bool CanGrant(const Entry& e, uint64_t txn_id, LockMode mode) const
      REQUIRES(mu_);
  Status AcquireLocked(Entry* entry, uint64_t txn_id, LockMode mode,
                       const char* what) REQUIRES(mu_);
  bool WouldDeadlock(uint64_t txn_id) const REQUIRES(mu_);

  std::chrono::milliseconds timeout_;
  Mutex mu_;
  CondVar cv_;
  std::map<uint32_t, Entry> tables_ GUARDED_BY(mu_);
  std::map<uint32_t, std::map<KeyTuple, Entry, KeyTupleLess>> rows_
      GUARDED_BY(mu_);
  // Waits-for graph over currently blocked transactions: txn -> the holders
  // it is waiting on. A blocked acquire that closes a cycle here is a
  // deadlock and aborts immediately instead of stalling until the timeout
  // (the timeout remains as a backstop for edges this graph cannot see).
  std::map<uint64_t, std::set<uint64_t>> waits_for_ GUARDED_BY(mu_);
  // Optional instrumentation (SetMetrics); null when detached. Recording is
  // lock-free, so doing it under mu_ adds no lock-order edge.
  MetricRegistry* metrics_ = nullptr;
  Histogram* m_wait_micros_ = nullptr;   // lock.wait_micros
  Counter* m_timeouts_ = nullptr;        // lock.timeouts_total
  Counter* m_deadlocks_ = nullptr;       // lock.deadlocks_total
};

}  // namespace sqlledger

#endif  // SQLLEDGER_TXN_LOCK_MANAGER_H_

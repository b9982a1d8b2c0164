// A simulated geographic secondary (paper §3.6). Replication to geographic
// secondaries is asynchronous, so a digest must never reference data that
// could be lost in a failover: SQL Ledger "will only issue Database Digests
// for data that has been replicated to geographic secondaries", and if
// replication falls far behind it raises an alert and eventually stops
// accepting digest requests.
//
// The replica itself is simulated (a commit-timestamp high-water mark that
// tests advance); the gate is real. It sits in LedgerDatabase::
// GenerateDigest, the one digest issuer, when LedgerDatabaseOptions::
// geo_replica points at a replica (DESIGN.md §9).

#ifndef SQLLEDGER_LEDGER_GEO_REPLICATION_H_
#define SQLLEDGER_LEDGER_GEO_REPLICATION_H_

#include <atomic>
#include <cstdint>

namespace sqlledger {

/// Tracks the commit timestamp through which the secondary has applied the
/// primary's log. Thread-safe.
class SimulatedGeoReplica {
 public:
  /// Marks everything committed at or before `commit_ts_micros` replicated.
  void AdvanceTo(int64_t commit_ts_micros) {
    int64_t current = replicated_through_.load();
    while (commit_ts_micros > current &&
           !replicated_through_.compare_exchange_weak(current,
                                                      commit_ts_micros)) {
    }
  }

  int64_t replicated_through() const { return replicated_through_.load(); }

 private:
  std::atomic<int64_t> replicated_through_{0};
};

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_GEO_REPLICATION_H_

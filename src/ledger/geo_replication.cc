#include "ledger/geo_replication.h"

namespace sqlledger {

Result<GeoGatedDigest> GenerateGeoGatedDigest(
    LedgerDatabase* db, const SimulatedGeoReplica& replica,
    const GeoDigestOptions& options) {
  DatabaseLedger* ledger = db->database_ledger();
  if (ledger == nullptr)
    return Status::NotSupported("ledger is disabled for this database");

  // Compare the newest commit timestamp against the replica's high-water
  // mark. The digest covers every commit so far, including those in blocks
  // already closed, so the newest one bounds the exposure.
  const int64_t last_commit = ledger->last_commit_ts();

  int64_t lag = last_commit - replica.replicated_through();
  if (lag < 0) lag = 0;
  if (last_commit != 0 && lag > options.max_lag_micros) {
    return Status::Busy(
        "geo replication lag " + std::to_string(lag) +
        "us exceeds the digest gating threshold; digests are deferred until "
        "the secondary catches up");
  }

  auto digest = db->GenerateDigest();
  if (!digest.ok()) return digest.status();

  GeoGatedDigest out;
  out.digest = *digest;
  out.lag_micros = lag;
  out.alert = lag > options.alert_lag_micros;
  return out;
}

}  // namespace sqlledger

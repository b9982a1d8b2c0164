// Ledger verification (paper §2.3, §3.4). Given externally-stored Database
// Digests, recompute every hash in the Database Ledger from the *current*
// state of the database and report all inconsistencies. The five invariants
// (§3.4.1):
//
//   1. each digest's block hash matches the recomputed hash of that block;
//   2. each block's recorded previous-block hash matches the recomputed
//      hash of its predecessor (block 0's is all-zero);
//   3. each block's recorded transactions Merkle root matches the root
//      recomputed over its transaction entries, and every entry belongs to
//      an existing block;
//   4. each transaction entry's per-table Merkle root matches the root
//      recomputed over the row versions it updated (ordered by sequence
//      number), and no row references an unrecorded transaction;
//   5. every non-clustered index is equivalent to its base table.
//
// Plus the ledger-view definition check from §3.4.2. References to
// transactions removed by a recorded ledger truncation (§5.2) are not
// violations.
//
// Data in blocks newer than the highest input digest is verified for
// internal consistency only, exactly as the paper describes.

#ifndef SQLLEDGER_LEDGER_VERIFIER_H_
#define SQLLEDGER_LEDGER_VERIFIER_H_

#include <string>
#include <vector>

#include "ledger/digest.h"
#include "ledger/ledger_database.h"
#include "util/result.h"

namespace sqlledger {

struct VerificationOptions {
  /// Restrict invariants 4/5 to these tables (current names). Empty = all
  /// ledger tables, including logically dropped and system tables
  /// (the paper's subset-verification option, §2.3).
  std::vector<std::string> tables;
  /// Worker threads for hash recomputation. 1 = inline. Parallelism applies
  /// *within* a table, not just across tables: store scans, row-version leaf
  /// hashing, per-transaction Merkle roots and per-block transaction roots
  /// all partition into chunks over one shared pool — the counterpart of the
  /// paper's reliance on parallel query execution for the verification
  /// queries (§3.4.2), effective even for a single large table.
  unsigned parallelism = 1;
};

struct Violation {
  int invariant = 0;  // 1..5, 6 = view definition, 0 = input problem
  std::string message;
};

struct VerificationReport {
  std::vector<Violation> violations;
  uint64_t blocks_checked = 0;
  uint64_t transactions_checked = 0;
  uint64_t row_versions_checked = 0;
  /// Highest block covered by an input digest; data in later blocks was
  /// only checked for internal consistency.
  uint64_t highest_digest_block = 0;
  bool has_digest_coverage = false;

  // ---- Incremental verification (DESIGN.md §11) ----
  /// True when produced by VerifyLedgerIncremental (even if it fell back).
  bool incremental = false;
  /// The run started from a watermark but failed to re-anchor (or found a
  /// prefix inconsistency) and reran as a full verification; `violations`
  /// then holds the full run's findings verbatim.
  bool fell_back_to_full = false;
  std::string fallback_reason;
  /// Watermark the run resumed from (0 when verifying from scratch).
  uint64_t watermark_block = 0;
  /// Blocks whose transaction-tree and row-version hashing was skipped
  /// (id <= watermark) vs redone. Block headers are always re-hashed — that
  /// linear pass is what re-anchors the chain cheaply.
  uint64_t blocks_skipped = 0;
  uint64_t blocks_reverified = 0;
  /// Transactions / row versions whose Merkle leaf hashing was skipped.
  /// row_versions_checked counts only the versions actually hashed, so
  /// checked + skipped equals the full run's row_versions_checked.
  uint64_t transactions_skipped = 0;
  uint64_t row_versions_skipped = 0;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Runs full verification. The database is quiesced for the duration.
/// Returns the report; an error Status only for operational failures
/// (ledger disabled, storage errors) — tampering is reported via
/// report.violations, not via Status.
Result<VerificationReport> VerifyLedger(
    LedgerDatabase* db, const std::vector<DatabaseDigest>& digests,
    const VerificationOptions& options = {});

/// Incremental verification (DESIGN.md §11): resumes from the database's
/// persisted VerificationState watermark and skips re-hashing the
/// transaction trees and row versions of blocks already verified (block id
/// <= watermark). Invariants 1-2 (digests, block chain) are always
/// re-checked in full — that linear block-header pass re-anchors the
/// watermark and commits to every stored per-block transactions root — and
/// the verified prefix is re-checked via compact accumulators: a
/// count+fingerprint over the prefix's transaction entries (full content)
/// plus per-table count+fingerprint accumulators over its row-version
/// structure. Any re-anchor failure, prefix inconsistency or accumulator
/// mismatch falls back to a full verification under the same quiesce, so
/// the returned violation set is identical to VerifyLedger's for every such
/// case. The database's latest durable digest (from the upload pipeline) is
/// unioned into `digests` as an anchor. On a clean, unfiltered run the
/// refreshed watermark is persisted (best-effort) and stats counters are
/// updated.
Result<VerificationReport> VerifyLedgerIncremental(
    LedgerDatabase* db, const std::vector<DatabaseDigest>& digests,
    const VerificationOptions& options = {});

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_VERIFIER_H_

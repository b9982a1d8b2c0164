// Durable verifier watermark state (incremental verification, §2.3 /
// DESIGN.md §11). A VerificationState records how far a previous successful
// verification got — the last verified block, its recomputed hash, the digest
// the run was anchored to, and a compact per-table accumulator over the row
// versions of already-verified transactions. VerifyLedgerIncremental uses it
// to re-anchor and skip re-hashing the verified prefix; anything that fails
// to re-anchor falls back to a full verification.
//
// The file is written with the same crash discipline as checkpoints:
// temp file + Sync before Rename + parent-directory sync, and the payload
// carries a magic tag, format version and CRC32C so a torn or tampered file
// is never trusted — a bad state file simply means "verify from scratch".

#ifndef SQLLEDGER_LEDGER_VERIFICATION_STATE_H_
#define SQLLEDGER_LEDGER_VERIFICATION_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "ledger/digest.h"
#include "ledger/types.h"
#include "storage/env.h"
#include "util/result.h"

namespace sqlledger {

/// Order-independent structural fingerprint of one table's verified prefix:
/// the number of row versions belonging to verified transactions and an
/// XOR-accumulated mix of their (transaction, sequence, operation) tuples.
/// Any insert, delete or re-stamping of a prefix row version changes it;
/// flipping cell *contents* without touching version structure does not
/// (see DESIGN.md §11 for the fallback matrix and trust argument).
struct TableAccumulator {
  uint64_t table_id = 0;
  uint64_t prefix_versions = 0;
  uint64_t fingerprint = 0;

  bool operator==(const TableAccumulator& o) const {
    return table_id == o.table_id && prefix_versions == o.prefix_versions &&
           fingerprint == o.fingerprint;
  }
};

/// Mixes one row version into a TableAccumulator fingerprint. op is the
/// stored operation code (insert/delete) for the version.
uint64_t MixVersionFingerprint(uint64_t txn_id, uint64_t sequence, int op);

/// Content fingerprint of one ledger transaction entry: every field that
/// feeds the entry's canonical serialization (id, block, ordinal, commit
/// time, user, per-table Merkle roots) runs through a fast non-cryptographic
/// mix. XOR-combined across the verified prefix, it lets incremental
/// verification skip re-hashing trusted blocks' transaction trees: any edit
/// to a prefix entry flips the accumulator and forces the full fallback.
uint64_t MixEntryFingerprint(const TransactionEntry& entry);

struct VerificationState {
  /// Identity of the database the watermark belongs to; a state file for a
  /// different database or incarnation is ignored.
  std::string database_id;
  std::string database_create_time;

  /// Last block fully verified (all invariants held up to and including it).
  uint64_t last_verified_block = 0;
  /// Recomputed hash of that block at verification time; re-anchoring
  /// recomputes it from current storage and compares.
  Hash256 block_hash;

  /// The digest the verification run was anchored to (highest input digest).
  DatabaseDigest anchor;

  /// Per-table accumulators over row versions of verified transactions,
  /// sorted by table_id.
  std::vector<TableAccumulator> tables;

  /// Accumulator over the transaction entries of blocks <= the watermark:
  /// their count and the XOR of their MixEntryFingerprint values. Lets the
  /// incremental pass skip re-hashing trusted blocks' transaction Merkle
  /// trees while still forcing a full fallback on any prefix entry edit.
  uint64_t entry_count = 0;
  uint64_t entry_fingerprint = 0;

  bool operator==(const VerificationState& o) const {
    return database_id == o.database_id &&
           database_create_time == o.database_create_time &&
           last_verified_block == o.last_verified_block &&
           block_hash == o.block_hash && anchor == o.anchor &&
           tables == o.tables && entry_count == o.entry_count &&
           entry_fingerprint == o.entry_fingerprint;
  }

  /// Binary serialization: magic + format version + payload + CRC32C.
  std::string Encode() const;
  /// Decode; Corruption for bad magic/version/CRC/truncation.
  static Result<VerificationState> Decode(const std::string& data);

  /// Atomically persist to `path` (temp file + Sync + Rename + SyncDir).
  Status Save(Env* env, const std::string& path) const;
  /// Load and decode. NotFound if the file does not exist; Corruption if it
  /// exists but cannot be trusted. Callers treat both as "no watermark".
  static Result<VerificationState> Load(Env* env, const std::string& path);
  /// Remove the state file; missing file is not an error.
  static Status Remove(Env* env, const std::string& path);
};

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_VERIFICATION_STATE_H_

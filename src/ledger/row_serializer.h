// Canonical row-version serialization for ledger hashing (paper §3.2,
// Figure 4). The format deliberately covers column *metadata* — stable
// column ids, type ids and value lengths — so that an attacker who swaps a
// column's declared type (the paper's INT/SMALLINT example) or tampers with
// NULL bookkeeping (§3.5.1) changes the recomputed hash even when the raw
// value bytes are untouched.
//
// NULL values are skipped entirely, which is what makes adding a nullable
// column a metadata-only operation: old rows hash identically before and
// after the schema change. Non-NULL columns carry their explicit column id,
// preventing NULL-map reinterpretation attacks.
//
// Hidden ledger system columns are not serialized as columns; the version's
// identity (transaction id, sequence number) and the operation kind are part
// of the header instead.

#ifndef SQLLEDGER_LEDGER_ROW_SERIALIZER_H_
#define SQLLEDGER_LEDGER_ROW_SERIALIZER_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "crypto/sha256.h"

namespace sqlledger {

/// The operation that produced (or retired) a row version. Part of the
/// hashed header, so an INSERT leaf can never be replayed as a DELETE leaf.
enum class RowOp : uint8_t {
  kInsert = 1,
  kDelete = 2,
};

/// Serializes one row version into the canonical ledger format.
/// `row` is a full physical row matching `schema`; hidden columns are
/// skipped (their information content is the header), dropped columns are
/// serialized when non-NULL so historical versions keep verifying after a
/// logical drop (paper §3.5.2).
std::vector<uint8_t> SerializeRowVersion(const Schema& schema, const Row& row,
                                         RowOp op, uint32_t table_id,
                                         uint64_t txn_id, uint64_t sequence);

/// Merkle leaf hash of the serialized version — what DML appends to the
/// transaction's per-table streaming Merkle tree and what verification
/// recomputes.
Hash256 RowVersionLeafHash(const Schema& schema, const Row& row, RowOp op,
                           uint32_t table_id, uint64_t txn_id,
                           uint64_t sequence);

/// One row version in a RowVersionLeafHashMany request. The referenced
/// schema and row must stay alive until the call returns.
struct RowVersionHashJob {
  const Schema* schema = nullptr;
  const Row* row = nullptr;
  RowOp op = RowOp::kInsert;
  uint32_t table_id = 0;
  uint64_t txn_id = 0;
  uint64_t sequence = 0;
};

/// out[i] = RowVersionLeafHash(jobs[i]...), bit for bit: each job is
/// serialized into one reused scratch buffer and leaf-hashed before the
/// next. The verifier's leaf recomputation — the dominant verification cost
/// (paper §4.2) — runs through this, one chunk of jobs per worker.
void RowVersionLeafHashMany(const RowVersionHashJob* jobs, size_t n,
                            Hash256* out);

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_ROW_SERIALIZER_H_

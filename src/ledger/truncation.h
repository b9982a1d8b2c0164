// Ledger truncation (paper §5.2): bounded retention of historical ledger
// data. The procedure:
//   1. verify the ledger against trusted digests (refuse to truncate an
//      inconsistent database);
//   2. dummy-update every live ledger-table row whose digest still lives in
//      a block about to be truncated, moving its protection into fresh
//      transactions and blocks;
//   3. generate a digest (closes the block holding the dummy updates);
//   4. record the truncation in the append-only sys_ledger_truncations
//      table so the operation is itself audited, and so the verifier can
//      distinguish truncated references from tampering. That row, synced
//      even with sync_wal off, is the only durability point: no checkpoint
//      is taken, so the space comes back at the next one;
//   5. LedgerDatabase::ApplyTruncation, which recovery also runs, deletes
//      the history rows retired by truncated transactions, then the blocks
//      and transaction entries, and clears the verifier watermark.
//
// Digests older than the truncation point stop being verifiable — callers
// must keep (at least) digests at or after the cutoff.

#ifndef SQLLEDGER_LEDGER_TRUNCATION_H_
#define SQLLEDGER_LEDGER_TRUNCATION_H_

#include <vector>

#include "ledger/digest.h"
#include "ledger/ledger_database.h"
#include "util/status.h"

namespace sqlledger {

/// Truncates all ledger data in blocks below `below_block`. `digests` are
/// the trusted digests used for the pre-truncation verification; they must
/// cover the database state (verification must pass). Fails with
/// NotSupported if an append-only ledger table still holds rows anchored in
/// the truncated range (they cannot be dummy-updated).
Status TruncateLedger(LedgerDatabase* db, uint64_t below_block,
                      const std::vector<DatabaseDigest>& digests);

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_TRUNCATION_H_

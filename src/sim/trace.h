// Simulator operation traces. A trace is the unit of reproduction: the
// generator derives one deterministically from (seed, config), the driver
// replays it against both the real system and the reference model, and on
// divergence the minimizer shrinks it to the smallest op subsequence that
// still reproduces. Ops carry only generation-time decisions — everything
// resolved at execution time (keys that turn out missing, crash points that
// never fire) is handled by deterministic no-op rules in the driver, which
// is what makes arbitrary subsequences of a trace safe to replay.

#ifndef SQLLEDGER_SIM_TRACE_H_
#define SQLLEDGER_SIM_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sqlledger {
namespace sim {

enum class SimOpKind : uint8_t {
  kBegin = 0,        // start a user transaction
  kCommit,           // commit the open transaction
  kAbort,            // abort the open transaction
  kInsert,           // table, key, str=payload
  kUpdate,           // table, key, str=payload
  kDelete,           // table, key
  kGet,              // table, key
  kScan,             // table
  kSavepoint,        // str=name
  kRollbackToSave,   // str=name
  kCreateTable,      // str=name, arg=TableKind
  kAddColumn,        // table, str=column name, arg=0 INT/1 VARCHAR/2 DOUBLE
  kDropColumn,       // table, str=column name
  kCreateIndex,      // table, str=index name
  kLedgerView,       // table
  kOpsView,          // table-operations audit view
  kDigest,           // generate + trust a database digest
  kReceipt,          // arg picks a committed txn in a closed block
  kVerify,           // full VerifyLedger cross-check
  kCheckpoint,       // durability checkpoint
  kCrash,            // immediate simulated crash + recover
  kArmCrash,         // arg = sync-countdown until crash fires
  kTamper,           // arg=mutation kind selector, key=target selector
  kTruncate,         // arg selects the cutoff below the newest closed block
  kStoreOutageBegin, // the remote digest store becomes unreachable
  kStoreOutageEnd,   // the outage lifts; queued digests catch up
  kIncrementalVerify,// VerifyLedgerIncremental diffed against full verify
};

const char* SimOpKindName(SimOpKind kind);

struct SimOp {
  SimOpKind kind = SimOpKind::kBegin;
  uint32_t table = 0;  // index into the driver's table registry
  int64_t key = 0;
  uint64_t arg = 0;
  std::string str;

  std::string ToString() const;
};

/// One op per line, prefixed with its index in the trace.
std::string FormatTrace(const std::vector<SimOp>& ops);

}  // namespace sim
}  // namespace sqlledger

#endif  // SQLLEDGER_SIM_TRACE_H_

#include "sim/generator.h"

#include "util/random.h"

namespace sqlledger {
namespace sim {

namespace {

/// Weighted pick over op kinds. Weights are integers so the selection is
/// exact (no floating-point platform drift).
struct WeightedKind {
  SimOpKind kind;
  uint32_t weight;
};

SimOpKind Pick(Random* rng, const std::vector<WeightedKind>& table) {
  uint64_t total = 0;
  for (const auto& wk : table) total += wk.weight;
  uint64_t roll = rng->Uniform(total);
  for (const auto& wk : table) {
    if (roll < wk.weight) return wk.kind;
    roll -= wk.weight;
  }
  return table.back().kind;
}

}  // namespace

std::vector<SimOp> GenerateTrace(uint64_t seed, const GeneratorOptions& opts) {
  Random rng(seed);
  std::vector<SimOp> trace;
  trace.reserve(opts.ops);

  bool txn_open = false;       // generator's belief, not execution feedback
  bool outage_open = false;    // generator's belief about the digest store
  uint32_t num_tables = opts.base_tables;
  uint32_t created_tables = 0;
  uint32_t added_columns = 0;

  // Inside a transaction: DML-heavy with savepoint structure; COMMIT is the
  // most likely exit so transactions average a handful of statements.
  const std::vector<WeightedKind> in_txn = {
      {SimOpKind::kInsert, 30},        {SimOpKind::kUpdate, 18},
      {SimOpKind::kDelete, 10},        {SimOpKind::kGet, 8},
      {SimOpKind::kScan, 3},           {SimOpKind::kSavepoint, 6},
      {SimOpKind::kRollbackToSave, 5}, {SimOpKind::kCommit, 16},
      {SimOpKind::kAbort, 4},
  };
  // Between transactions: mostly start the next one, with structural and
  // adversarial events mixed in.
  std::vector<WeightedKind> between = {
      {SimOpKind::kBegin, 55},   {SimOpKind::kDigest, 8},
      {SimOpKind::kVerify, 4},   {SimOpKind::kReceipt, 4},
      {SimOpKind::kLedgerView, 4}, {SimOpKind::kOpsView, 2},
      {SimOpKind::kCheckpoint, 4}, {SimOpKind::kIncrementalVerify, 3},
  };
  if (opts.enable_ddl) {
    between.push_back({SimOpKind::kCreateTable, 2});
    between.push_back({SimOpKind::kAddColumn, 2});
    between.push_back({SimOpKind::kDropColumn, 1});
    between.push_back({SimOpKind::kCreateIndex, 1});
  }
  if (opts.enable_crash) {
    between.push_back({SimOpKind::kCrash, 2});
    between.push_back({SimOpKind::kArmCrash, 2});
  }
  if (opts.enable_tamper) between.push_back({SimOpKind::kTamper, 2});
  if (opts.enable_truncate) between.push_back({SimOpKind::kTruncate, 1});
  if (opts.enable_store_outage) {
    // End is weighted above begin so outage windows skew short — digests
    // still pile into the outbox, but most traces also exercise recovery.
    between.push_back({SimOpKind::kStoreOutageBegin, 2});
    between.push_back({SimOpKind::kStoreOutageEnd, 3});
  }

  while (trace.size() < opts.ops) {
    SimOp op;
    op.kind = Pick(&rng, txn_open ? in_txn : between);
    switch (op.kind) {
      case SimOpKind::kBegin:
        txn_open = true;
        break;
      case SimOpKind::kCommit:
      case SimOpKind::kAbort:
        txn_open = false;
        break;
      case SimOpKind::kInsert:
      case SimOpKind::kUpdate:
        op.table = static_cast<uint32_t>(rng.Uniform(num_tables));
        op.key = rng.UniformRange(0, opts.key_space - 1);
        op.arg = rng.Next() % 1000;
        op.str = rng.AlphaString(8);
        break;
      case SimOpKind::kDelete:
      case SimOpKind::kGet:
        op.table = static_cast<uint32_t>(rng.Uniform(num_tables));
        op.key = rng.UniformRange(0, opts.key_space - 1);
        break;
      case SimOpKind::kScan:
      case SimOpKind::kLedgerView:
        op.table = static_cast<uint32_t>(rng.Uniform(num_tables));
        break;
      case SimOpKind::kSavepoint:
      case SimOpKind::kRollbackToSave:
        op.str = "sp" + std::to_string(rng.Uniform(4));
        break;
      case SimOpKind::kCreateTable:
        if (created_tables >= opts.max_created_tables) continue;
        op.str = "gen" + std::to_string(created_tables++);
        // kAppendOnly=1 / kUpdateable=2, biased toward updateable.
        op.arg = rng.Bernoulli(0.3) ? 1 : 2;
        num_tables++;
        break;
      case SimOpKind::kAddColumn:
        if (added_columns >= opts.max_added_columns) continue;
        op.table = static_cast<uint32_t>(rng.Uniform(num_tables));
        op.str = "extra" + std::to_string(added_columns++);
        op.arg = rng.Uniform(3);  // 0 = int, 1 = varchar, 2 = double
        break;
      case SimOpKind::kDropColumn:
        // Targets a previously added column by name; the driver no-ops (and
        // both sides agree on NotFound) when it does not exist.
        if (added_columns == 0) continue;
        op.table = static_cast<uint32_t>(rng.Uniform(num_tables));
        op.str = "extra" + std::to_string(rng.Uniform(added_columns));
        break;
      case SimOpKind::kCreateIndex:
        op.table = static_cast<uint32_t>(rng.Uniform(num_tables));
        op.str = "ix" + std::to_string(rng.Uniform(3));
        break;
      case SimOpKind::kOpsView:
      case SimOpKind::kDigest:
      case SimOpKind::kVerify:
      case SimOpKind::kIncrementalVerify:
      case SimOpKind::kCheckpoint:
      case SimOpKind::kCrash:
        break;
      case SimOpKind::kArmCrash:
        op.arg = 1 + rng.Uniform(12);  // sync countdown until the crash
        break;
      case SimOpKind::kReceipt:
      case SimOpKind::kTruncate:
        op.arg = rng.Next();  // selector, reduced by the driver
        break;
      case SimOpKind::kTamper:
        op.arg = rng.Next();          // mutation-kind selector
        op.key = static_cast<int64_t>(rng.Next() >> 1);  // target selector
        break;
      case SimOpKind::kStoreOutageBegin:
        if (outage_open) continue;  // one outage at a time
        outage_open = true;
        break;
      case SimOpKind::kStoreOutageEnd:
        if (!outage_open) continue;
        outage_open = false;
        break;
    }
    trace.push_back(std::move(op));
  }
  return trace;
}

}  // namespace sim
}  // namespace sqlledger

#include "ledger/verifier.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>


#include "catalog/row.h"
#include "crypto/merkle.h"
#include "ledger/ledger_view.h"
#include "ledger/row_serializer.h"
#include "util/threadpool.h"

namespace sqlledger {

namespace {

struct VersionLeaf {
  uint64_t sequence = 0;
  Hash256 leaf;
};

/// One row version discovered by the collection scans. Rows are borrowed
/// from the B-trees — stable for the whole verification because the
/// database is quiesced — so the scan itself stays cheap and the expensive
/// leaf hashing is deferred to the parallel hashing phase.
struct VersionItem {
  const Row* row = nullptr;
  RowOp op = RowOp::kInsert;
  uint64_t txn = 0;
  uint64_t seq = 0;
};

/// Collects the row versions contributed by one physical store of a ledger
/// table: the main store yields one INSERT version per row; the history
/// store yields the original INSERT plus the retiring DELETE per row — the
/// equivalent of the paper's LEDGERHASH + MERKLETREEAGG GROUP BY
/// Transaction ID query (§3.4.2), split per store so scans partition
/// across the thread pool.
void CollectStoreVersions(const LedgerTableRef& table, bool from_history,
                          std::vector<VersionItem>* out) {
  out->reserve(out->size() + (from_history ? 2 * table.history->row_count()
                                           : table.main->row_count()));
  auto add = [&](const Row& row, bool as_delete) {
    int txn_ord = as_delete ? table.end_txn_ord : table.start_txn_ord;
    int seq_ord = as_delete ? table.end_seq_ord : table.start_seq_ord;
    const Value& txn_val = row[txn_ord];
    if (txn_val.is_null()) return;
    out->push_back(VersionItem{
        &row, as_delete ? RowOp::kDelete : RowOp::kInsert,
        static_cast<uint64_t>(txn_val.AsInt64()),
        static_cast<uint64_t>(row[seq_ord].AsInt64())});
  };
  if (from_history) {
    for (BTree::Iterator it = table.history->Scan(); it.Valid(); it.Next()) {
      add(it.value(), /*as_delete=*/false);
      add(it.value(), /*as_delete=*/true);
    }
  } else {
    for (BTree::Iterator it = table.main->Scan(); it.Valid(); it.Next())
      add(it.value(), /*as_delete=*/false);
  }
}

Hash256 RootOfLeaves(std::vector<VersionLeaf>* leaves) {
  std::sort(leaves->begin(), leaves->end(),
            [](const VersionLeaf& a, const VersionLeaf& b) {
              return a.sequence < b.sequence;
            });
  MerkleBuilder builder;
  for (const VersionLeaf& l : *leaves) builder.AddLeafHash(l.leaf);
  return builder.Root();
}

bool InTruncatedRange(const std::vector<TruncationRecord>& truncations,
                      uint64_t txn_id) {
  for (const TruncationRecord& t : truncations) {
    if (txn_id >= t.min_txn_id && txn_id <= t.max_txn_id) return true;
  }
  return false;
}

/// Streams the Merkle leaf of one encoded key tuple into `tree` (invariant
/// 5), reusing `scratch` for the encoding.
void AddTupleLeaf(const KeyTuple& tuple, std::vector<uint8_t>* scratch,
                  MerkleBuilder* tree) {
  scratch->clear();
  EncodeRow(tuple, scratch);
  tree->AddLeaf(Slice(*scratch));
}

void CheckIndexes(const TableStore& store, VerificationReport* report) {
  std::vector<uint8_t> scratch;
  for (const auto& idx : store.indexes()) {
    // Base side: project (index columns + primary key) from each base row,
    // order by the projected tuple.
    std::vector<KeyTuple> base_tuples;
    base_tuples.reserve(store.row_count());
    for (BTree::Iterator it = store.Scan(); it.Valid(); it.Next()) {
      KeyTuple tuple = Schema::ExtractColumns(it.value(), idx->ordinals);
      KeyTuple pk = store.schema().ExtractKey(it.value());
      tuple.insert(tuple.end(), pk.begin(), pk.end());
      base_tuples.push_back(std::move(tuple));
    }
    std::sort(base_tuples.begin(), base_tuples.end(),
              [](const KeyTuple& a, const KeyTuple& b) {
                return CompareKeys(a, b) < 0;
              });
    MerkleBuilder base_tree;
    for (const KeyTuple& t : base_tuples) AddTupleLeaf(t, &scratch, &base_tree);

    // Index side: the stored keys, already in order.
    MerkleBuilder index_tree;
    for (BTree::Iterator it = idx->tree.Begin(); it.Valid(); it.Next())
      AddTupleLeaf(it.key(), &scratch, &index_tree);

    if (index_tree.leaf_count() != base_tree.leaf_count() ||
        base_tree.Root() != index_tree.Root()) {
      report->violations.push_back(
          {5, "non-clustered index '" + idx->name + "' on table '" +
                  store.name() + "' is not equivalent to the base table"});
    }
  }
}

}  // namespace

std::string VerificationReport::Summary() const {
  std::string out = ok() ? "VERIFICATION PASSED" : "VERIFICATION FAILED";
  out += " (blocks=" + std::to_string(blocks_checked) +
         ", transactions=" + std::to_string(transactions_checked) +
         ", row_versions=" + std::to_string(row_versions_checked);
  if (has_digest_coverage)
    out += ", covered_through_block=" + std::to_string(highest_digest_block);
  if (incremental) {
    out += fell_back_to_full
               ? ", incremental: FELL BACK TO FULL (" + fallback_reason + ")"
               : ", incremental: watermark=" + std::to_string(watermark_block) +
                     ", blocks_skipped=" + std::to_string(blocks_skipped) +
                     ", row_versions_skipped=" +
                     std::to_string(row_versions_skipped);
  }
  out += ")";
  for (const Violation& v : violations) {
    out += "\n  [invariant " + std::to_string(v.invariant) + "] " + v.message;
  }
  return out;
}

namespace {

/// The verification body. Runs under the caller's QuiesceGuard with the
/// ledger queue already drained (QuiesceGuard is not re-entrant, and the
/// incremental path may need two passes under ONE quiesce).
///
/// `state` != nullptr requests an incremental run: transaction entries and
/// row versions belonging to blocks <= state->last_verified_block are not
/// re-hashed; the prefix is covered by the re-anchor check, the always-full
/// invariants 1-2, and the entry/per-table accumulators. When any of those
/// fail, the core returns early with report.fallback_reason set and the
/// caller re-runs with state == nullptr.
///
/// `out_state` != nullptr asks for a refreshed watermark: filled (marked by
/// a non-empty database_id) only when the run is clean and digest-covered.
Result<VerificationReport> VerifyLedgerCore(
    LedgerDatabase* db, const std::vector<DatabaseDigest>& digests,
    const VerificationOptions& options, const VerificationState* state,
    VerificationState* out_state) {
  DatabaseLedger* ledger = db->database_ledger();
  if (ledger == nullptr)
    return Status::NotSupported("ledger is disabled for this database");

  VerificationReport report;
  std::vector<TruncationRecord> truncations = db->GetTruncationRecords();

  // Phase timers (DESIGN.md §13): re-anchor (snapshot + block hashing +
  // watermark check), tree hashing (row-version collection through group
  // roots), view check (reverse/index/view pass + merge). Only the
  // coordinator thread reads the metrics clock — ParallelFor workers never
  // touch it, keeping clock call counts deterministic under the simulator.
  // Early fallback returns skip the remaining phase records.
  MetricRegistry* metrics = db->metrics();
  Histogram* reanchor_hist = metrics->GetHistogram("verify.reanchor_micros");
  Histogram* tree_hist = metrics->GetHistogram("verify.tree_hash_micros");
  Histogram* view_hist = metrics->GetHistogram("verify.view_check_micros");
  int64_t phase_start = metrics->NowMicros();
  auto end_phase = [&](Histogram* hist) {
    const int64_t now = metrics->NowMicros();
    hist->Record(static_cast<uint64_t>(std::max<int64_t>(0, now - phase_start)));
    phase_start = now;
  };

  // All hash recomputation below partitions across this pool: blocks and
  // transaction groups in chunks, tables per task — the counterpart of the
  // paper's reliance on SQL Server parallel query execution (§3.4.2),
  // except the partitioning also splits *within* a single large table.
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  if (options.parallelism > 1) {
    pool_storage.emplace(options.parallelism);
    pool = &*pool_storage;
  }

  // Load both system tables and the open-block id in ONE critical section
  // (tampering may have removed arbitrary rows; gaps are reported by the
  // invariant 2/3 checks below). The atomicity matters: digest generation
  // keeps closing blocks while verification runs, and a close sliding
  // between separate blocks/entries scans would make the freshest
  // transactions reference a block the blocks scan never saw.
  // Each block's hash is computed exactly once here and shared by
  // invariants 1 and 2.
  DatabaseLedger::LedgerSnapshot snapshot = ledger->Snapshot();
  std::vector<BlockRecord> blocks = std::move(snapshot.blocks);
  std::vector<Hash256> block_hashes;
  block_hashes.reserve(blocks.size());
  for (const BlockRecord& b : blocks) block_hashes.push_back(b.ComputeHash());
  auto find_block = [&](uint64_t id) -> size_t {
    auto it = std::lower_bound(
        blocks.begin(), blocks.end(), id,
        [](const BlockRecord& b, uint64_t v) { return b.block_id < v; });
    if (it == blocks.end() || it->block_id != id) return blocks.size();
    return static_cast<size_t>(it - blocks.begin());
  };

  // ---- Incremental re-anchoring (DESIGN.md §11). The watermark block must
  // still exist and its freshly recomputed hash must equal the hash stored
  // when it was last verified; through the chained previous-block hashes
  // this commits to the entire prefix. Truncation removes the watermark
  // block (or its predecessors) and so lands here too. ----
  uint64_t watermark = 0;
  bool trusted_active = false;
  if (state != nullptr) {
    size_t widx = find_block(state->last_verified_block);
    if (widx == blocks.size()) {
      report.fallback_reason =
          "watermark block " + std::to_string(state->last_verified_block) +
          " is not present in the ledger (truncated or tampered)";
      return report;
    }
    if (!ConstantTimeEqual(block_hashes[widx], state->block_hash)) {
      report.fallback_reason =
          "recomputed hash of watermark block " +
          std::to_string(state->last_verified_block) +
          " does not match the stored watermark";
      return report;
    }
    watermark = state->last_verified_block;
    trusted_active = true;
    report.watermark_block = watermark;
  }
  end_phase(reanchor_hist);

  // Index the snapshot's transaction entries without copying them. The
  // by-block index keeps every physical row (a tampered duplicate txn id
  // must still distort its block's recomputed root); the by-txn index
  // dedupes, keeping the last occurrence — the overwrite semantics the
  // previous std::map<txn_id, entry> index had. The snapshot scan is keyed
  // by txn id, so the sort below is a no-op on untampered data.
  const std::vector<TransactionEntry> entries = std::move(snapshot.entries);
  std::map<uint64_t, std::vector<const TransactionEntry*>> entries_by_block;
  for (const TransactionEntry& e : entries)
    entries_by_block[e.block_id].push_back(&e);
  std::vector<const TransactionEntry*> txn_index;
  txn_index.reserve(entries.size());
  for (const TransactionEntry& e : entries) txn_index.push_back(&e);
  std::stable_sort(txn_index.begin(), txn_index.end(),
                   [](const TransactionEntry* a, const TransactionEntry* b) {
                     return a->txn_id < b->txn_id;
                   });
  {
    size_t w = 0;
    for (size_t r = 0; r < txn_index.size(); r++) {
      if (r + 1 < txn_index.size() &&
          txn_index[r + 1]->txn_id == txn_index[r]->txn_id)
        continue;
      txn_index[w++] = txn_index[r];
    }
    txn_index.resize(w);
  }
  auto find_entry = [&](uint64_t txn_id) -> const TransactionEntry* {
    auto it = std::lower_bound(
        txn_index.begin(), txn_index.end(), txn_id,
        [](const TransactionEntry* e, uint64_t v) { return e->txn_id < v; });
    if (it == txn_index.end() || (*it)->txn_id != txn_id) return nullptr;
    return *it;
  };
  report.transactions_checked = txn_index.size();

  // ---- Invariant 1: digests vs recomputed block hashes. ----
  for (const DatabaseDigest& digest : digests) {
    if (digest.database_id != db->options().database_id) {
      report.violations.push_back(
          {0, "digest for database '" + digest.database_id +
                  "' does not match this database"});
      continue;
    }
    size_t idx = find_block(digest.block_id);
    if (idx == blocks.size()) {
      report.violations.push_back(
          {1, "digest references block " + std::to_string(digest.block_id) +
                  " which is not present in the ledger"});
      continue;
    }
    if (!ConstantTimeEqual(block_hashes[idx], digest.block_hash)) {
      report.violations.push_back(
          {1, "hash mismatch for block " + std::to_string(digest.block_id) +
                  ": the block does not match the trusted digest"});
    }
    if (!report.has_digest_coverage ||
        digest.block_id > report.highest_digest_block) {
      report.highest_digest_block = digest.block_id;
      report.has_digest_coverage = true;
    }
  }

  // ---- Invariant 2: the block chain (hashes from the shared cache). ----
  for (size_t i = 0; i < blocks.size(); i++) {
    const BlockRecord& block = blocks[i];
    report.blocks_checked++;
    if (i == 0) {
      // First retained block: only block 0 can assert a null predecessor.
      if (block.block_id == 0 && !block.previous_block_hash.IsZero()) {
        report.violations.push_back(
            {2, "block 0 records a non-null previous-block hash"});
      }
    } else if (block.block_id == blocks[i - 1].block_id + 1) {
      if (!ConstantTimeEqual(block.previous_block_hash, block_hashes[i - 1])) {
        report.violations.push_back(
            {2, "block " + std::to_string(block.block_id) +
                    " records a previous-block hash that does not match "
                    "block " +
                    std::to_string(blocks[i - 1].block_id)});
      }
    } else {
      report.violations.push_back(
          {2, "gap in the block chain: block " +
                  std::to_string(blocks[i - 1].block_id) +
                  " is followed by block " + std::to_string(block.block_id)});
    }
  }

  // ---- Invariant 3: per-block transaction Merkle roots. ----
  // Entries in blocks <= the watermark skip leaf hashing and root
  // recomputation entirely: the re-anchored watermark hash chains over every
  // prefix block header (committing to each stored transactions_root), and
  // the entry accumulator below covers the entries' *content* — any edit a
  // root recomputation would catch flips the fingerprint and forces the full
  // fallback. Fresh blocks hash exactly as in a full run.
  const uint64_t new_watermark =
      report.has_digest_coverage ? report.highest_digest_block : 0;
  uint64_t trusted_entry_count = 0, trusted_entry_fp = 0;
  uint64_t refreshed_entry_count = 0, refreshed_entry_fp = 0;
  // Duplicate txn ids (impossible without tampering — the system table is
  // keyed by txn id) disable the trusted skip outright: the accumulator
  // then cannot match a state recorded over unique entries, so the run
  // falls back and the full pass attributes the damage.
  const bool entries_unique = entries.size() == txn_index.size();
  std::vector<const TransactionEntry*> flat_entries;
  flat_entries.reserve(txn_index.size());
  for (const TransactionEntry* e : txn_index) {
    const bool trusted_entry =
        trusted_active && entries_unique && e->block_id <= watermark;
    const bool refresh_entry = out_state != nullptr &&
                               report.has_digest_coverage &&
                               e->block_id <= new_watermark;
    if (trusted_entry || refresh_entry) {
      uint64_t fp = MixEntryFingerprint(*e);
      if (refresh_entry) {
        refreshed_entry_count++;
        refreshed_entry_fp ^= fp;
      }
      if (trusted_entry) {
        trusted_entry_count++;
        trusted_entry_fp ^= fp;
        continue;  // no leaf hash needed: its block's root check is skipped
      }
    }
    flat_entries.push_back(e);
  }
  if (trusted_active && (trusted_entry_count != state->entry_count ||
                         trusted_entry_fp != state->entry_fingerprint)) {
    report.fallback_reason =
        "transaction-entry accumulator mismatch for the verified prefix";
    return report;
  }
  std::vector<Hash256> flat_entry_leaves(flat_entries.size());
  ParallelFor(
      pool, flat_entries.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; i++)
          flat_entry_leaves[i] = flat_entries[i]->LeafHash();
      },
      /*min_chunk=*/128);
  std::unordered_map<uint64_t, const Hash256*> entry_leaf_by_txn;
  entry_leaf_by_txn.reserve(flat_entries.size());
  for (size_t i = 0; i < flat_entries.size(); i++)
    entry_leaf_by_txn[flat_entries[i]->txn_id] = &flat_entry_leaves[i];

  std::vector<std::optional<Violation>> block_root_violations(blocks.size());
  ParallelFor(pool, blocks.size(), [&](size_t begin, size_t end) {
    for (size_t bi = begin; bi < end; bi++) {
      const BlockRecord& block = blocks[bi];
      // Trusted prefix: covered by the re-anchor + entry accumulator above
      // (whose skip is disabled alongside this one when txn ids collide).
      if (trusted_active && entries_unique && block.block_id <= watermark)
        continue;
      auto it = entries_by_block.find(block.block_id);
      std::vector<const TransactionEntry*> block_entries =
          it == entries_by_block.end()
              ? std::vector<const TransactionEntry*>{}
              : it->second;
      std::sort(block_entries.begin(), block_entries.end(),
                [](const TransactionEntry* a, const TransactionEntry* b) {
                  return a->block_ordinal < b->block_ordinal;
                });
      bool ordinals_ok = block_entries.size() == block.transaction_count;
      for (size_t i = 0; ordinals_ok && i < block_entries.size(); i++) {
        if (block_entries[i]->block_ordinal != i) ordinals_ok = false;
      }
      MerkleBuilder tree;
      for (const TransactionEntry* e : block_entries)
        tree.AddLeafHash(*entry_leaf_by_txn.at(e->txn_id));
      if (!ordinals_ok ||
          !ConstantTimeEqual(tree.Root(), block.transactions_root)) {
        block_root_violations[bi] =
            Violation{3, "transactions Merkle root mismatch for block " +
                             std::to_string(block.block_id)};
      }
    }
  });
  for (auto& v : block_root_violations)
    if (v.has_value()) report.violations.push_back(std::move(*v));
  // Entries must belong to a block that exists (pending blocks excluded).
  // Compare against the snapshot's open-block id, not the live one: blocks
  // closed after the snapshot must not un-exempt entries it captured.
  for (const auto& [block_id, block_entries] : entries_by_block) {
    if (block_id >= snapshot.open_block_id) continue;  // not yet closed
    if (find_block(block_id) != blocks.size()) continue;
    report.violations.push_back(
        {3, std::to_string(block_entries.size()) +
                " transaction(s) reference block " + std::to_string(block_id) +
                " which is not present in the ledger"});
  }

  // An incremental run only skips work when everything checked so far —
  // digests, the full block chain, fresh blocks' transaction trees and the
  // prefix entry accumulator — is perfectly clean: any violation could
  // implicate the verified prefix, so fall back and let the full pass
  // attribute it. (Violations confined to fresh blocks re-derive identically
  // in the full pass — the fallback costs time, never fidelity.)
  if (trusted_active && !report.violations.empty()) {
    report.fallback_reason =
        "inconsistency in digest/block-chain/transaction-entry invariants";
    return report;
  }
  if (trusted_active) {
    for (const BlockRecord& b : blocks) {
      if (b.block_id <= watermark) {
        report.blocks_skipped++;
      } else {
        report.blocks_reverified++;
      }
    }
    for (const TransactionEntry* e : txn_index) {
      if (e->block_id <= watermark) report.transactions_skipped++;
    }
  } else {
    report.blocks_reverified = report.blocks_checked;
  }

  // ---- Invariants 4 & 5 per ledger table. All state read below is
  // immutable while the database is quiesced, so the phases fan out freely:
  // store scans per task, leaf hashing in chunks, per-transaction root
  // recomputation per group, index/view checks per table. ----
  std::set<std::string> table_filter(options.tables.begin(),
                                     options.tables.end());
  std::vector<CatalogEntry*> tables_to_check;
  for (CatalogEntry* entry : db->AllTables()) {
    if (entry->kind == TableKind::kRegular) continue;
    if (!table_filter.empty() && !table_filter.count(entry->name)) continue;
    tables_to_check.push_back(entry);
  }

  // Phase 1: collection scans, one task per physical store.
  struct ScanTask {
    size_t table_idx = 0;
    bool history = false;
  };
  std::vector<ScanTask> scan_tasks;
  for (size_t i = 0; i < tables_to_check.size(); i++) {
    scan_tasks.push_back({i, false});
    if (tables_to_check[i]->ref.history != nullptr)
      scan_tasks.push_back({i, true});
  }
  std::vector<std::vector<VersionItem>> scan_results(scan_tasks.size());
  ParallelFor(pool, scan_tasks.size(), [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; t++) {
      CollectStoreVersions(tables_to_check[scan_tasks[t].table_idx]->ref,
                           scan_tasks[t].history, &scan_results[t]);
    }
  });

  // Phase 2: leaf-hash the discovered row versions in parallel chunks.
  // In an incremental run, versions belonging to trusted transactions
  // (their entry's block <= watermark) skip the hashing entirely and
  // instead feed the per-table structural accumulators, which are checked
  // against the stored state below. This skip is where the O(delta) win
  // comes from: row-version leaf hashing dominates full verification.
  struct ItemRef {
    size_t table_idx = 0;
    uint64_t txn = 0;
    uint64_t seq = 0;
  };
  struct TableAccValue {
    uint64_t count = 0;
    uint64_t fingerprint = 0;
  };
  std::unordered_map<uint64_t, uint64_t> entry_block_by_txn;
  if (trusted_active || out_state != nullptr) {
    entry_block_by_txn.reserve(txn_index.size());
    for (const TransactionEntry* e : txn_index)
      entry_block_by_txn[e->txn_id] = e->block_id;
  }
  std::vector<RowVersionHashJob> jobs;
  std::vector<ItemRef> refs;
  std::vector<uint64_t> versions_per_table(tables_to_check.size(), 0);
  std::vector<TableAccValue> trusted_acc(tables_to_check.size());
  std::vector<TableAccValue> refreshed_acc(tables_to_check.size());
  for (size_t t = 0; t < scan_tasks.size(); t++) {
    size_t table_idx = scan_tasks[t].table_idx;
    const LedgerTableRef& ref = tables_to_check[table_idx]->ref;
    const Schema* schema = &ref.main->schema();
    for (const VersionItem& item : scan_results[t]) {
      uint64_t entry_block = UINT64_MAX;  // no recorded transaction entry
      if (trusted_active || out_state != nullptr) {
        auto it = entry_block_by_txn.find(item.txn);
        if (it != entry_block_by_txn.end()) entry_block = it->second;
      }
      if (out_state != nullptr && report.has_digest_coverage &&
          entry_block <= new_watermark) {
        TableAccValue& acc = refreshed_acc[table_idx];
        acc.count++;
        acc.fingerprint ^= MixVersionFingerprint(item.txn, item.seq,
                                                 static_cast<int>(item.op));
      }
      if (trusted_active && entry_block <= watermark) {
        TableAccValue& acc = trusted_acc[table_idx];
        acc.count++;
        acc.fingerprint ^= MixVersionFingerprint(item.txn, item.seq,
                                                 static_cast<int>(item.op));
        report.row_versions_skipped++;
        continue;
      }
      jobs.push_back(RowVersionHashJob{schema, item.row, item.op,
                                       ref.table_id, item.txn, item.seq});
      refs.push_back(ItemRef{table_idx, item.txn, item.seq});
      versions_per_table[table_idx]++;
    }
  }

  // Accumulator re-check: the verified prefix's row-version *structure*
  // must match what the watermark recorded — any inserted, deleted or
  // re-stamped trusted version lands here and forces the full pass.
  // (Content-only tampering of a trusted version's non-structural cells is
  // outside the accumulator's reach; DESIGN.md §11 gives the fallback
  // matrix and the trust argument.)
  if (trusted_active) {
    std::map<uint64_t, TableAccumulator> stored;
    for (const TableAccumulator& acc : state->tables)
      stored[acc.table_id] = acc;
    for (size_t i = 0; i < tables_to_check.size(); i++) {
      TableAccumulator expect;  // zero for tables unknown to the state
      auto it = stored.find(tables_to_check[i]->table_id);
      if (it != stored.end()) {
        expect = it->second;
        stored.erase(it);
      }
      if (trusted_acc[i].count != expect.prefix_versions ||
          trusted_acc[i].fingerprint != expect.fingerprint) {
        report.fallback_reason = "row-version accumulator mismatch for table '" +
                                 tables_to_check[i]->name + "'";
        return report;
      }
    }
    // Without a table filter every stored accumulator must have found its
    // table: tables are never physically removed from the catalog (drops
    // only mark them), so a leftover means catalog-level tampering.
    if (table_filter.empty() && !stored.empty()) {
      report.fallback_reason = "verification state references table id " +
                               std::to_string(stored.begin()->first) +
                               " which is not in the catalog";
      return report;
    }
  }
  std::vector<Hash256> leaf_hashes(jobs.size());
  ParallelFor(
      pool, jobs.size(),
      [&](size_t begin, size_t end) {
        RowVersionLeafHashMany(jobs.data() + begin, end - begin,
                               leaf_hashes.data() + begin);
      },
      /*min_chunk=*/256);

  // Phase 3: group leaves by (table, transaction) and recompute each
  // transaction's per-table Merkle root, one group per task.
  std::vector<std::map<uint64_t, std::vector<VersionLeaf>>> by_txn(
      tables_to_check.size());
  for (size_t i = 0; i < refs.size(); i++) {
    by_txn[refs[i].table_idx][refs[i].txn].push_back(
        VersionLeaf{refs[i].seq, leaf_hashes[i]});
  }

  struct GroupCheck {
    size_t table_idx = 0;
    uint64_t txn = 0;
    std::vector<VersionLeaf>* leaves;
  };
  std::vector<GroupCheck> groups;
  for (size_t i = 0; i < tables_to_check.size(); i++)
    for (auto& [txn_id, leaves] : by_txn[i])
      groups.push_back(GroupCheck{i, txn_id, &leaves});
  std::vector<std::optional<Violation>> group_violations(groups.size());
  ParallelFor(
      pool, groups.size(),
      [&](size_t begin, size_t end) {
        for (size_t g = begin; g < end; g++) {
          const GroupCheck& group = groups[g];
          const std::string& table_name =
              tables_to_check[group.table_idx]->name;
          const TransactionEntry* e = find_entry(group.txn);
          if (e == nullptr) {
            if (InTruncatedRange(truncations, group.txn)) continue;
            group_violations[g] = Violation{
                4, "table '" + table_name + "' has row versions referencing "
                       "transaction " +
                       std::to_string(group.txn) +
                       " which is not recorded in the ledger"};
            continue;
          }
          const Hash256* recorded = nullptr;
          for (const auto& [table_id, root] : e->table_roots) {
            if (table_id == tables_to_check[group.table_idx]->table_id) {
              recorded = &root;
              break;
            }
          }
          Hash256 computed = RootOfLeaves(group.leaves);
          if (recorded == nullptr || *recorded != computed) {
            group_violations[g] = Violation{
                4, "Merkle root mismatch for transaction " +
                       std::to_string(group.txn) + " on table '" +
                       table_name +
                       "': current rows do not match what the transaction "
                       "recorded"};
          }
        }
      },
      /*min_chunk=*/16);

  end_phase(tree_hist);

  // Phase 4: reverse root check plus index/view checks, one table per task.
  struct TableCheckResult {
    VerificationReport partial;  // only violations used
  };
  std::vector<TableCheckResult> results(tables_to_check.size());
  ParallelFor(pool, tables_to_check.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; i++) {
      CatalogEntry* entry = tables_to_check[i];
      VerificationReport& out = results[i].partial;

      // Recorded roots -> rows (detects wholesale row deletion). Trusted
      // transactions are exempt: the watermark was only saved after a clean
      // reverse check, and deleting a trusted transaction's row versions
      // afterwards changes the per-table accumulator count, which already
      // forced the full fallback before this phase ran.
      for (const TransactionEntry* e : txn_index) {
        if (trusted_active && e->block_id <= watermark) continue;
        for (const auto& [table_id, root] : e->table_roots) {
          if (table_id != entry->table_id) continue;
          if (!by_txn[i].count(e->txn_id)) {
            out.violations.push_back(
                {4, "transaction " + std::to_string(e->txn_id) +
                        " recorded updates on table '" + entry->name +
                        "' but no matching row versions exist"});
          }
        }
      }

      CheckIndexes(*entry->main, &out);
      if (entry->history != nullptr) CheckIndexes(*entry->history, &out);

      // Ledger view definition check (§3.4.2): the generated view must
      // expose exactly one INSERT per version plus one DELETE per retired
      // version.
      uint64_t expected = entry->main->row_count();
      if (entry->history != nullptr)
        expected += 2 * entry->history->row_count();
      if (trusted_active) {
        // Count without materializing: BuildLedgerView emits one view row
        // per non-null start/end transaction stamp — exactly the predicate
        // CollectStoreVersions used in phase 1 — so the view's size equals
        // the number of versions collected for the table (trusted or not).
        uint64_t view_rows = trusted_acc[i].count + versions_per_table[i];
        if (view_rows != expected) {
          out.violations.push_back(
              {6, "ledger view for '" + entry->name +
                      "' does not reflect the underlying row versions"});
        }
      } else {
        auto view = BuildLedgerView(entry->ref);
        if (!view.ok()) {
          out.violations.push_back(
              {6, "ledger view for '" + entry->name +
                      "' failed to build: " + view.status().ToString()});
        } else if (view->size() != expected) {
          out.violations.push_back(
              {6, "ledger view for '" + entry->name +
                      "' does not reflect the underlying row versions"});
        }
      }
    }
  });

  // Merge in catalog order — group (invariant 4 forward) violations in
  // transaction order first, then each table's reverse/index/view results —
  // so the report is deterministic regardless of parallelism.
  size_t group_pos = 0;
  for (size_t i = 0; i < tables_to_check.size(); i++) {
    report.row_versions_checked += versions_per_table[i];
    while (group_pos < groups.size() && groups[group_pos].table_idx == i) {
      if (group_violations[group_pos].has_value())
        report.violations.push_back(std::move(*group_violations[group_pos]));
      group_pos++;
    }
    for (Violation& v : results[i].partial.violations)
      report.violations.push_back(std::move(v));
  }

  // Refreshed watermark for the caller: only when the run is clean and a
  // digest actually vouches for the new watermark block. The anchor is the
  // input digest covering that block (guaranteed present: coverage is only
  // recorded for digests whose block was found and whose hash matched).
  if (out_state != nullptr && report.ok() && report.has_digest_coverage) {
    size_t idx = find_block(new_watermark);
    if (idx != blocks.size()) {
      out_state->database_id = db->options().database_id;
      out_state->database_create_time = db->create_time();
      out_state->last_verified_block = new_watermark;
      out_state->block_hash = block_hashes[idx];
      for (const DatabaseDigest& d : digests) {
        if (d.database_id == db->options().database_id &&
            d.block_id == new_watermark) {
          out_state->anchor = d;
          break;
        }
      }
      out_state->tables.clear();
      for (size_t i = 0; i < tables_to_check.size(); i++) {
        if (refreshed_acc[i].count == 0) continue;
        out_state->tables.push_back(TableAccumulator{
            tables_to_check[i]->table_id, refreshed_acc[i].count,
            refreshed_acc[i].fingerprint});
      }
      std::sort(out_state->tables.begin(), out_state->tables.end(),
                [](const TableAccumulator& a, const TableAccumulator& b) {
                  return a.table_id < b.table_id;
                });
      out_state->entry_count = refreshed_entry_count;
      out_state->entry_fingerprint = refreshed_entry_fp;
    }
  }

  end_phase(view_hist);
  return report;
}

}  // namespace

Result<VerificationReport> VerifyLedger(
    LedgerDatabase* db, const std::vector<DatabaseDigest>& digests,
    const VerificationOptions& options) {
  DatabaseLedger* ledger = db->database_ledger();
  if (ledger == nullptr)
    return Status::NotSupported("ledger is disabled for this database");

  const int64_t start = db->metrics()->NowMicros();
  Result<VerificationReport> report = [&]() -> Result<VerificationReport> {
    LedgerDatabase::QuiesceGuard guard(db);
    // Persist pending entries so the system table holds every transaction
    // (the checkpoint-time drain of §3.3.2, run eagerly for verification).
    SL_RETURN_IF_ERROR(ledger->DrainQueue());
    return VerifyLedgerCore(db, digests, options, /*state=*/nullptr,
                            /*out_state=*/nullptr);
  }();
  const int64_t end = db->metrics()->NowMicros();
  db->metrics()->GetHistogram("verify.full_micros")
      ->Record(static_cast<uint64_t>(std::max<int64_t>(0, end - start)));
  db->tracer()->RecordComplete("verify.full", "verify", start, end - start);
  return report;
}

Result<VerificationReport> VerifyLedgerIncremental(
    LedgerDatabase* db, const std::vector<DatabaseDigest>& digests,
    const VerificationOptions& options) {
  DatabaseLedger* ledger = db->database_ledger();
  if (ledger == nullptr)
    return Status::NotSupported("ledger is disabled for this database");

  const int64_t inc_start = db->metrics()->NowMicros();

  // ONE quiesce covers the incremental pass and, if re-anchoring fails,
  // the full fallback pass — QuiesceGuard is not re-entrant and the two
  // passes must see identical data for the fallback report to be exact.
  LedgerDatabase::QuiesceGuard guard(db);
  SL_RETURN_IF_ERROR(ledger->DrainQueue());

  // Union in the anchors this database already trusts: the digest the
  // watermark was anchored to, and the latest digest known durable in the
  // external store (the pipeline's ack is the natural watermark refresher).
  // Anchors are opportunistic hardening on top of the caller's digests, so
  // one whose block no longer exists — removed by a recorded truncation or
  // lost with an unsynced WAL tail in a crash — is dropped rather than
  // allowed to manufacture a violation the caller's digest set would not
  // produce. (Genuine tampering with a still-present anchored block is
  // caught: the anchor stays in the set and invariant 1 fires.)
  std::vector<DatabaseDigest> all_digests = digests;
  auto add_anchor = [&](const DatabaseDigest& d) {
    if (d.database_id != db->options().database_id) return;
    if (!ledger->FindBlock(d.block_id).ok()) return;
    for (const DatabaseDigest& e : all_digests)
      if (e == d) return;
    all_digests.push_back(d);
  };
  std::optional<VerificationState> state = db->GetVerificationState();
  if (state.has_value()) add_anchor(state->anchor);
  std::optional<DatabaseDigest> durable = db->latest_durable_digest();
  if (durable.has_value()) add_anchor(*durable);

  VerificationState refreshed;
  auto report =
      VerifyLedgerCore(db, all_digests, options,
                       state.has_value() ? &*state : nullptr, &refreshed);
  if (!report.ok()) return report.status();
  report->incremental = true;
  if (state.has_value()) {
    report->watermark_block = state->last_verified_block;
    if (!report->fallback_reason.empty()) {
      // Re-anchoring failed (or a prefix inconsistency surfaced): discard
      // the partial pass and run the full verification under the same
      // quiesce, so the violation set is exactly VerifyLedger's.
      std::string reason = report->fallback_reason;
      db->tracer()->RecordInstant("verify.fallback", "verify", "reason",
                                  reason);
      refreshed = VerificationState{};
      auto full = VerifyLedgerCore(db, all_digests, options,
                                   /*state=*/nullptr, &refreshed);
      if (!full.ok()) return full.status();
      *report = std::move(*full);
      report->incremental = true;
      report->fell_back_to_full = true;
      report->fallback_reason = reason;
      report->watermark_block = state->last_verified_block;
    }
  }

  // Persist the refreshed watermark — only for clean, unfiltered runs
  // (a table-filtered pass attests nothing about the other tables). The
  // save is best-effort: losing it merely costs a future full verify, and
  // verification must not fail because a state fsync did.
  if (report->ok() && options.tables.empty() &&
      !refreshed.database_id.empty()) {
    refreshed.anchor_durable =
        durable.has_value() && refreshed.anchor == *durable;
    (void)db->StoreVerificationState(refreshed);  // best-effort, see above
  }
  db->RecordIncrementalVerification(report->fell_back_to_full,
                                    report->blocks_reverified,
                                    report->blocks_skipped,
                                    report->row_versions_skipped);
  const int64_t inc_end = db->metrics()->NowMicros();
  db->metrics()->GetHistogram("verify.incremental_micros")
      ->Record(
          static_cast<uint64_t>(std::max<int64_t>(0, inc_end - inc_start)));
  db->tracer()->RecordComplete("verify.incremental", "verify", inc_start,
                               inc_end - inc_start);
  return report;
}

}  // namespace sqlledger

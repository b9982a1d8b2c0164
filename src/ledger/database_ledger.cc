#include "ledger/database_ledger.h"

#include <chrono>
#include <cstring>

#include "util/coding.h"

namespace sqlledger {

Schema MakeLedgerTransactionsSchema() {
  Schema s;
  s.AddColumn("transaction_id", DataType::kBigInt, /*nullable=*/false);
  s.AddColumn("block_id", DataType::kBigInt, false);
  s.AddColumn("block_ordinal", DataType::kBigInt, false);
  s.AddColumn("commit_ts", DataType::kTimestamp, false);
  s.AddColumn("user_name", DataType::kVarchar, false);
  s.AddColumn("table_roots", DataType::kVarbinary, false);
  s.SetPrimaryKey({0});
  return s;
}

Schema MakeLedgerBlocksSchema() {
  Schema s;
  s.AddColumn("block_id", DataType::kBigInt, false);
  s.AddColumn("previous_block_hash", DataType::kVarbinary, false);
  s.AddColumn("transactions_root", DataType::kVarbinary, false);
  s.AddColumn("transaction_count", DataType::kBigInt, false);
  s.AddColumn("closed_ts", DataType::kTimestamp, false);
  s.SetPrimaryKey({0});
  return s;
}

namespace {
std::vector<uint8_t> EncodeTableRoots(
    const std::vector<std::pair<uint32_t, Hash256>>& roots) {
  std::vector<uint8_t> out;
  PutVarint32(&out, static_cast<uint32_t>(roots.size()));
  for (const auto& [table_id, root] : roots) {
    PutFixed32(&out, table_id);
    out.insert(out.end(), root.bytes.begin(), root.bytes.end());
  }
  return out;
}

Result<std::vector<std::pair<uint32_t, Hash256>>> DecodeTableRoots(
    Slice bytes) {
  Decoder dec(bytes);
  auto count = dec.GetVarint32();
  if (!count.ok()) return count.status();
  std::vector<std::pair<uint32_t, Hash256>> roots;
  roots.reserve(*count);
  for (uint32_t i = 0; i < *count; i++) {
    auto table_id = dec.GetFixed32();
    if (!table_id.ok()) return table_id.status();
    auto hash_bytes = dec.GetBytes(32);
    if (!hash_bytes.ok()) return hash_bytes.status();
    Hash256 root;
    std::memcpy(root.bytes.data(), hash_bytes->data(), 32);
    roots.emplace_back(*table_id, root);
  }
  if (!dec.done()) return Status::Corruption("trailing bytes in table roots");
  return roots;
}

Value HashValue(const Hash256& h) {
  return Value::Varbinary(std::vector<uint8_t>(h.bytes.begin(), h.bytes.end()));
}

Result<Hash256> ValueToHash(const Value& v) {
  if (v.is_null() || v.type() != DataType::kVarbinary ||
      v.string_value().size() != 32)
    return Status::Corruption("malformed hash value in system table");
  Hash256 h;
  std::memcpy(h.bytes.data(), v.string_value().data(), 32);
  return h;
}
}  // namespace

Row TransactionEntryToRow(const TransactionEntry& entry) {
  Row row;
  row.push_back(Value::BigInt(static_cast<int64_t>(entry.txn_id)));
  row.push_back(Value::BigInt(static_cast<int64_t>(entry.block_id)));
  row.push_back(Value::BigInt(static_cast<int64_t>(entry.block_ordinal)));
  row.push_back(Value::Timestamp(entry.commit_ts_micros));
  row.push_back(Value::Varchar(entry.user_name));
  row.push_back(Value::Varbinary(EncodeTableRoots(entry.table_roots)));
  return row;
}

Result<TransactionEntry> RowToTransactionEntry(const Row& row) {
  if (row.size() != 6)
    return Status::Corruption("bad arity in ledger transactions row");
  TransactionEntry entry;
  entry.txn_id = static_cast<uint64_t>(row[0].AsInt64());
  entry.block_id = static_cast<uint64_t>(row[1].AsInt64());
  entry.block_ordinal = static_cast<uint64_t>(row[2].AsInt64());
  entry.commit_ts_micros = row[3].AsInt64();
  entry.user_name = row[4].string_value();
  auto roots = DecodeTableRoots(row[5].binary_value());
  if (!roots.ok()) return roots.status();
  entry.table_roots = std::move(*roots);
  return entry;
}

Row BlockRecordToRow(const BlockRecord& block) {
  Row row;
  row.push_back(Value::BigInt(static_cast<int64_t>(block.block_id)));
  row.push_back(HashValue(block.previous_block_hash));
  row.push_back(HashValue(block.transactions_root));
  row.push_back(Value::BigInt(static_cast<int64_t>(block.transaction_count)));
  row.push_back(Value::Timestamp(block.closed_ts_micros));
  return row;
}

Result<BlockRecord> RowToBlockRecord(const Row& row) {
  if (row.size() != 5)
    return Status::Corruption("bad arity in ledger blocks row");
  BlockRecord block;
  block.block_id = static_cast<uint64_t>(row[0].AsInt64());
  auto prev = ValueToHash(row[1]);
  if (!prev.ok()) return prev.status();
  block.previous_block_hash = *prev;
  auto root = ValueToHash(row[2]);
  if (!root.ok()) return root.status();
  block.transactions_root = *root;
  block.transaction_count = static_cast<uint64_t>(row[3].AsInt64());
  block.closed_ts_micros = row[4].AsInt64();
  return block;
}

DatabaseLedger::DatabaseLedger(TableStore* transactions_table,
                               TableStore* blocks_table,
                               DatabaseLedgerOptions options)
    : transactions_table_(transactions_table), blocks_table_(blocks_table),
      options_(std::move(options)) {
  if (!options_.clock) {
    options_.clock = [] {
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
          .count();
    };
  }
  if (options_.block_size == 0) options_.block_size = 1;
}

uint64_t DatabaseLedger::open_block_id() const {
  MutexLock lock(&mu_);
  return open_block_id_;
}

uint64_t DatabaseLedger::open_block_entry_count() const {
  MutexLock lock(&mu_);
  return open_entries_.size();
}

uint64_t DatabaseLedger::closed_block_count() const {
  MutexLock lock(&mu_);
  return blocks_table_->row_count();
}

uint64_t DatabaseLedger::queue_depth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

uint64_t DatabaseLedger::total_entries() const {
  MutexLock lock(&mu_);
  return total_entries_;
}

std::vector<std::pair<uint64_t, uint64_t>> DatabaseLedger::AssignSlots(
    size_t n) {
  MutexLock lock(&mu_);
  std::vector<std::pair<uint64_t, uint64_t>> slots;
  slots.reserve(n);
  for (size_t i = 0; i < n; i++) {
    slots.emplace_back(assign_block_id_, assign_ordinal_++);
    if (assign_ordinal_ >= options_.block_size) {
      assign_block_id_++;
      assign_ordinal_ = 0;
    }
  }
  return slots;
}

void DatabaseLedger::ReleaseSlots(size_t n) {
  MutexLock lock(&mu_);
  for (size_t i = 0; i < n; i++) {
    if (assign_ordinal_ == 0) {
      assign_block_id_--;
      assign_ordinal_ = options_.block_size;
    }
    assign_ordinal_--;
  }
}

Status DatabaseLedger::Append(TransactionEntry entry) {
  MutexLock lock(&mu_);
  if (entry.block_id != open_block_id_)
    return Status::Internal("entry assigned to non-open block");
  last_commit_ts_ = entry.commit_ts_micros;
  if (append_log_enabled_) append_log_.push_back(entry);
  open_entries_.push_back(entry);
  queue_.push_back(std::move(entry));
  total_entries_++;
  if (open_entries_.size() >= options_.block_size)
    return CloseOpenBlockLocked();
  return Status::OK();
}

Status DatabaseLedger::CloseOpenBlockLocked() {
  // Merkle root over the entries in ordinal order; AssignSlots/Append keep
  // open_entries_ ordinal-ordered by construction.
  MerkleBuilder tree;
  for (const TransactionEntry& e : open_entries_)
    tree.AddLeafHash(e.LeafHash());

  BlockRecord block;
  block.block_id = open_block_id_;
  block.previous_block_hash = last_block_hash_;
  block.transactions_root = tree.Root();
  block.transaction_count = open_entries_.size();
  // Deterministic close timestamp (last entry's commit time, 0 for an
  // empty block) so a crash-recovery replay reproduces the identical block
  // hash that escaped in digests.
  block.closed_ts_micros =
      open_entries_.empty() ? 0 : open_entries_.back().commit_ts_micros;

  SL_RETURN_IF_ERROR(blocks_table_->Insert(BlockRecordToRow(block)));
  last_block_hash_ = block.ComputeHash();
  open_block_id_++;
  open_entries_.clear();
  // A digest-driven close of a partially filled block abandons the rest of
  // the block's ordinals: pull the assign position forward to the new open
  // block. A close driven by appends catching up with a batch assignment
  // leaves the assign position alone — it already points at (or past) the
  // new block, and rewinding it would double-assign in-flight slots.
  if (assign_block_id_ < open_block_id_) {
    assign_block_id_ = open_block_id_;
    assign_ordinal_ = 0;
  }
  return Status::OK();
}

Result<DatabaseDigest> DatabaseLedger::GenerateDigest(
    const std::string& database_id, const std::string& create_time) {
  MutexLock lock(&mu_);
  // Close the open block so the digest covers the most recent transactions;
  // a pristine database materializes an initial empty block.
  if (!open_entries_.empty() || blocks_table_->row_count() == 0) {
    SL_RETURN_IF_ERROR(CloseOpenBlockLocked());
  }
  DatabaseDigest digest;
  digest.database_id = database_id;
  digest.database_create_time = create_time;
  digest.block_id = open_block_id_ - 1;
  digest.block_hash = last_block_hash_;
  digest.generated_at_micros = Now();
  digest.last_commit_ts_micros = last_commit_ts_;
  return digest;
}

Result<bool> DatabaseLedger::VerifyDigestChain(
    const DatabaseDigest& older, const DatabaseDigest& newer) const {
  if (older.block_id > newer.block_id) return false;
  MutexLock lock(&mu_);  // the scan must not race a concurrent block close
  // One ordered scan over [older, newer] instead of per-block point lookups;
  // each block's hash is computed exactly once and carried forward.
  KeyTuple start_key{Value::BigInt(static_cast<int64_t>(older.block_id))};
  BTree::Iterator it = blocks_table_->Seek(start_key);
  uint64_t expected = older.block_id;
  Hash256 running;
  for (; it.Valid(); it.Next()) {
    auto block = RowToBlockRecord(it.value());
    if (!block.ok()) return false;
    if (block->block_id != expected) return false;  // gap in the chain
    if (expected == older.block_id) {
      running = block->ComputeHash();
      if (!ConstantTimeEqual(running, older.block_hash)) return false;
    } else {
      if (!ConstantTimeEqual(block->previous_block_hash, running)) return false;
      running = block->ComputeHash();
    }
    if (block->block_id == newer.block_id)
      return ConstantTimeEqual(running, newer.block_hash);
    expected++;
  }
  return false;  // ran off the end before reaching `newer`
}

Status DatabaseLedger::DrainQueue() {
  MutexLock lock(&mu_);
  while (!queue_.empty()) {
    const TransactionEntry& entry = queue_.front();
    Status st = transactions_table_->Insert(TransactionEntryToRow(entry));
    if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
    queue_.pop_front();
  }
  return Status::OK();
}

Status DatabaseLedger::RecoverEntry(const TransactionEntry& entry) {
  MutexLock lock(&mu_);
  KeyTuple key{Value::BigInt(static_cast<int64_t>(entry.txn_id))};
  bool persisted = transactions_table_->Get(key) != nullptr;
  bool in_open_block = false;
  for (const TransactionEntry& e : open_entries_) {
    if (e.txn_id == entry.txn_id) {
      in_open_block = true;
      break;
    }
  }
  if (persisted || in_open_block) return Status::OK();  // idempotent replay

  // An entry addressed past the open block means the open block was closed
  // (by reaching block_size or by digest generation) before this commit;
  // re-close deterministically.
  while (entry.block_id > open_block_id_) {
    SL_RETURN_IF_ERROR(CloseOpenBlockLocked());
  }

  if (entry.block_id == open_block_id_) {
    // During recovery no group is in flight, so the assign position tracks
    // the append position exactly; advance both in lockstep.
    if (entry.block_ordinal != assign_ordinal_)
      return Status::Corruption("WAL replay: ordinal gap in open block");
    last_commit_ts_ = entry.commit_ts_micros;
    if (append_log_enabled_) append_log_.push_back(entry);
    open_entries_.push_back(entry);
    queue_.push_back(entry);
    total_entries_++;
    assign_ordinal_++;
    if (assign_ordinal_ >= options_.block_size) {
      assign_block_id_++;
      assign_ordinal_ = 0;
    }
    if (open_entries_.size() >= options_.block_size)
      return CloseOpenBlockLocked();
    return Status::OK();
  }
  return Status::Corruption("WAL replay: entry for unexpected block " +
                            std::to_string(entry.block_id));
}

Status DatabaseLedger::RecoverBlockClose(uint64_t block_id) {
  MutexLock lock(&mu_);
  if (block_id < open_block_id_) return Status::OK();  // already closed
  if (block_id != open_block_id_)
    return Status::Corruption("block-close marker skips blocks");
  return CloseOpenBlockLocked();
}

Status DatabaseLedger::LoadFromTables() {
  MutexLock lock(&mu_);
  // The open block is one past the newest closed block.
  uint64_t max_closed = 0;
  bool any_block = false;
  BlockRecord last_block;
  for (BTree::Iterator it = blocks_table_->Scan(); it.Valid(); it.Next()) {
    auto block = RowToBlockRecord(it.value());
    if (!block.ok()) return block.status();
    any_block = true;
    if (block->block_id >= max_closed) {
      max_closed = block->block_id;
      last_block = *block;
    }
  }
  open_block_id_ = any_block ? max_closed + 1 : 0;
  last_block_hash_ = any_block ? last_block.ComputeHash() : Hash256{};

  // Entries already persisted that belong to the open block.
  open_entries_.clear();
  total_entries_ = 0;
  std::vector<TransactionEntry> open;
  for (BTree::Iterator it = transactions_table_->Scan(); it.Valid();
       it.Next()) {
    auto entry = RowToTransactionEntry(it.value());
    if (!entry.ok()) return entry.status();
    total_entries_++;
    if (entry->commit_ts_micros > last_commit_ts_)
      last_commit_ts_ = entry->commit_ts_micros;
    if (entry->block_id == open_block_id_) open.push_back(std::move(*entry));
  }
  std::sort(open.begin(), open.end(),
            [](const TransactionEntry& a, const TransactionEntry& b) {
              return a.block_ordinal < b.block_ordinal;
            });
  open_entries_ = std::move(open);
  assign_block_id_ = open_block_id_;
  assign_ordinal_ = open_entries_.size();
  queue_.clear();
  return Status::OK();
}

std::vector<TransactionEntry> DatabaseLedger::PendingEntries() const {
  MutexLock lock(&mu_);
  std::vector<TransactionEntry> out = open_entries_;
  for (const TransactionEntry& e : queue_) {
    bool seen = false;
    for (const TransactionEntry& o : out) {
      if (o.txn_id == e.txn_id) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(e);
  }
  return out;
}

std::vector<TransactionEntry> DatabaseLedger::AllEntriesLocked() const {
  std::vector<TransactionEntry> out;
  out.reserve(transactions_table_->row_count());
  for (BTree::Iterator it = transactions_table_->Scan(); it.Valid();
       it.Next()) {
    auto entry = RowToTransactionEntry(it.value());
    if (entry.ok()) out.push_back(std::move(*entry));
  }
  return out;
}

std::vector<TransactionEntry> DatabaseLedger::AllEntries() const {
  MutexLock lock(&mu_);
  return AllEntriesLocked();
}

DatabaseLedger::LedgerSnapshot DatabaseLedger::Snapshot() const {
  MutexLock lock(&mu_);
  LedgerSnapshot snap;
  snap.entries = AllEntriesLocked();
  snap.blocks = AllBlocksLocked();
  snap.open_block_id = open_block_id_;
  return snap;
}

Result<DatabaseLedger::TxnRange> DatabaseLedger::CollectTxnsBelow(
    uint64_t below_block) const {
  MutexLock lock(&mu_);
  TxnRange range;
  bool first = true;
  for (BTree::Iterator it = transactions_table_->Scan(); it.Valid();
       it.Next()) {
    auto entry = RowToTransactionEntry(it.value());
    if (!entry.ok()) return entry.status();
    if (entry->block_id >= below_block) continue;
    range.txn_ids.push_back(entry->txn_id);
    if (first || entry->txn_id < range.min_txn_id)
      range.min_txn_id = entry->txn_id;
    if (first || entry->txn_id > range.max_txn_id)
      range.max_txn_id = entry->txn_id;
    first = false;
  }
  return range;
}

Status DatabaseLedger::TruncateBelow(uint64_t below_block) {
  MutexLock lock(&mu_);
  if (below_block >= open_block_id_)
    return Status::InvalidArgument(
        "cannot truncate the open block or beyond");
  std::vector<KeyTuple> txn_keys;
  for (BTree::Iterator it = transactions_table_->Scan(); it.Valid();
       it.Next()) {
    auto entry = RowToTransactionEntry(it.value());
    if (!entry.ok()) return entry.status();
    if (entry->block_id < below_block) txn_keys.push_back(it.key());
  }
  for (const KeyTuple& key : txn_keys)
    SL_RETURN_IF_ERROR(transactions_table_->Delete(key));

  std::vector<KeyTuple> block_keys;
  for (BTree::Iterator it = blocks_table_->Scan(); it.Valid(); it.Next()) {
    auto block = RowToBlockRecord(it.value());
    if (!block.ok()) return block.status();
    if (block->block_id < below_block) block_keys.push_back(it.key());
  }
  for (const KeyTuple& key : block_keys)
    SL_RETURN_IF_ERROR(blocks_table_->Delete(key));
  return Status::OK();
}

Result<TransactionEntry> DatabaseLedger::FindEntryLocked(
    uint64_t txn_id) const {
  for (const TransactionEntry& e : open_entries_) {
    if (e.txn_id == txn_id) return e;
  }
  for (const TransactionEntry& e : queue_) {
    if (e.txn_id == txn_id) return e;
  }
  KeyTuple key{Value::BigInt(static_cast<int64_t>(txn_id))};
  const Row* row = transactions_table_->Get(key);
  if (row == nullptr)
    return Status::NotFound("transaction " + std::to_string(txn_id) +
                            " not in ledger");
  return RowToTransactionEntry(*row);
}

Result<TransactionEntry> DatabaseLedger::FindEntry(uint64_t txn_id) const {
  MutexLock lock(&mu_);
  return FindEntryLocked(txn_id);
}

std::vector<BlockRecord> DatabaseLedger::AllBlocksLocked() const {
  std::vector<BlockRecord> out;
  out.reserve(blocks_table_->row_count());
  for (BTree::Iterator it = blocks_table_->Scan(); it.Valid(); it.Next()) {
    auto block = RowToBlockRecord(it.value());
    // Unparsable rows are omitted, like a missing row; the verifier reports
    // the resulting chain gap via invariants 2/3.
    if (block.ok()) out.push_back(std::move(*block));
  }
  return out;
}

std::vector<BlockRecord> DatabaseLedger::AllBlocks() const {
  MutexLock lock(&mu_);
  return AllBlocksLocked();
}

Result<BlockRecord> DatabaseLedger::FindBlock(uint64_t block_id) const {
  MutexLock lock(&mu_);
  KeyTuple key{Value::BigInt(static_cast<int64_t>(block_id))};
  const Row* row = blocks_table_->Get(key);
  if (row == nullptr)
    return Status::NotFound("block " + std::to_string(block_id) +
                            " not in ledger");
  return RowToBlockRecord(*row);
}

void DatabaseLedger::EnableAppendLog() {
  MutexLock lock(&mu_);
  append_log_enabled_ = true;
}

std::vector<TransactionEntry> DatabaseLedger::AppendLogSince(
    size_t start) const {
  MutexLock lock(&mu_);
  if (start >= append_log_.size()) return {};
  return std::vector<TransactionEntry>(append_log_.begin() + start,
                                       append_log_.end());
}

size_t DatabaseLedger::append_log_size() const {
  MutexLock lock(&mu_);
  return append_log_.size();
}

Hash256 DatabaseLedger::last_block_hash() const {
  MutexLock lock(&mu_);
  return last_block_hash_;
}

Result<MerkleProof> DatabaseLedger::ProveTransaction(uint64_t txn_id) const {
  // One critical section for the whole proof: the lookup, the system-table
  // scan, and the queue sweep must all see the same chain state (a block
  // close between them would split the entry set across blocks).
  MutexLock lock(&mu_);
  auto entry = FindEntryLocked(txn_id);
  if (!entry.ok()) return entry.status();
  if (entry->block_id >= open_block_id_)
    return Status::Busy("transaction's block is not closed yet; generate a "
                        "digest to close it");
  // Gather the block's entries in ordinal order. They may live in the
  // system table and/or the undrained queue.
  std::vector<TransactionEntry> block_entries;
  for (BTree::Iterator it = transactions_table_->Scan(); it.Valid();
       it.Next()) {
    auto e = RowToTransactionEntry(it.value());
    if (!e.ok()) return e.status();
    if (e->block_id == entry->block_id) block_entries.push_back(std::move(*e));
  }
  for (const TransactionEntry& e : queue_) {
    if (e.block_id != entry->block_id) continue;
    bool seen = false;
    for (const TransactionEntry& b : block_entries) {
      if (b.txn_id == e.txn_id) {
        seen = true;
        break;
      }
    }
    if (!seen) block_entries.push_back(e);
  }
  std::sort(block_entries.begin(), block_entries.end(),
            [](const TransactionEntry& a, const TransactionEntry& b) {
              return a.block_ordinal < b.block_ordinal;
            });
  std::vector<Hash256> leaves;
  leaves.reserve(block_entries.size());
  for (const TransactionEntry& e : block_entries)
    leaves.push_back(e.LeafHash());
  return MerkleTree(std::move(leaves)).Prove(entry->block_ordinal);
}

}  // namespace sqlledger

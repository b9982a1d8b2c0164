#include "ledger/database_ledger.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <tuple>

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
// The table_roots cell: a varint count, then each root's varint table id
// and 32 bytes. The leaf hash covers TransactionEntry::CanonicalBytes, not
// these bytes.
std::vector<uint8_t> EncodeTableRoots(
    const std::vector<std::pair<uint32_t, Hash256>>& roots) {
  std::vector<uint8_t> out;
  PutVarint32(&out, static_cast<uint32_t>(roots.size()));
  for (const auto& [table_id, root] : roots) {
    PutVarint32(&out, table_id);
    out.insert(out.end(), root.bytes.begin(), root.bytes.end());
  }
  return out;
}

Result<std::vector<std::pair<uint32_t, Hash256>>> DecodeTableRoots(
    Slice bytes) {
  Decoder dec(bytes);
  auto count = dec.GetVarint32();
  if (!count.ok()) return count.status();
  // Each root takes at least 33 bytes (a varint table id and the hash); a
  // tampered count must not drive the reservation.
  if (*count > dec.remaining() / 33)
    return Status::Corruption("table root count exceeds its bytes");
  std::vector<std::pair<uint32_t, Hash256>> roots;
  roots.reserve(*count);
  for (uint32_t i = 0; i < *count; i++) {
    auto table_id = dec.GetVarint32();
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

Result<Hash256> ValueToHash(const Cell& v) {
  if (v.is_null() || v.type() != DataType::kVarbinary ||
      v.string_value().size() != 32)
    return Status::Corruption("malformed hash value in system table");
  Hash256 h;
  std::memcpy(h.bytes.data(), v.string_value().data(), 32);
  return h;
}
}  // namespace

Row TransactionEntryToRow(const TransactionEntry& entry) {
  return {Value::BigInt(static_cast<int64_t>(entry.txn_id)),
          Value::BigInt(static_cast<int64_t>(entry.block_id)),
          Value::BigInt(static_cast<int64_t>(entry.block_ordinal)),
          Value::Timestamp(entry.commit_ts_micros),
          Value::Varchar(entry.user_name),
          Value::Varbinary(EncodeTableRoots(entry.table_roots))};
}

Result<TransactionEntry> RowToTransactionEntry(const Row& row) {
  if (row.size() != 6)
    return Status::Corruption("bad arity in ledger transactions row");
  TransactionEntry entry;
  Row::Cursor cells(row);
  entry.txn_id = static_cast<uint64_t>(cells[0].AsInt64());
  entry.block_id = static_cast<uint64_t>(cells[1].AsInt64());
  entry.block_ordinal = static_cast<uint64_t>(cells[2].AsInt64());
  entry.commit_ts_micros = cells[3].AsInt64();
  entry.user_name = cells[4].string_value();
  auto roots = DecodeTableRoots(cells[5].binary_value());
  if (!roots.ok()) return roots.status();
  entry.table_roots = std::move(*roots);
  return entry;
}

Row BlockRecordToRow(const BlockRecord& block) {
  return {Value::BigInt(static_cast<int64_t>(block.block_id)),
          HashValue(block.previous_block_hash),
          HashValue(block.transactions_root),
          Value::BigInt(static_cast<int64_t>(block.transaction_count)),
          Value::Timestamp(block.closed_ts_micros)};
}

Result<BlockRecord> RowToBlockRecord(const Row& row) {
  if (row.size() != 5)
    return Status::Corruption("bad arity in ledger blocks row");
  BlockRecord block;
  Row::Cursor cells(row);
  block.block_id = static_cast<uint64_t>(cells[0].AsInt64());
  auto prev = ValueToHash(cells[1]);
  if (!prev.ok()) return prev.status();
  block.previous_block_hash = *prev;
  auto root = ValueToHash(cells[2]);
  if (!root.ok()) return root.status();
  block.transactions_root = *root;
  block.transaction_count = static_cast<uint64_t>(cells[3].AsInt64());
  block.closed_ts_micros = cells[4].AsInt64();
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
  return open_tree_.leaf_count();
}

uint64_t DatabaseLedger::closed_block_count() const {
  MutexLock lock(&mu_);
  return blocks_table_->row_count();
}

int64_t DatabaseLedger::last_commit_ts() const {
  MutexLock lock(&mu_);
  return last_commit_ts_;
}

uint64_t DatabaseLedger::total_entries() const {
  MutexLock lock(&mu_);
  return transactions_table_->row_count();
}

std::vector<std::pair<uint64_t, uint64_t>> DatabaseLedger::NextSlots(
    size_t n) const {
  MutexLock lock(&mu_);
  uint64_t block_id = open_block_id_;
  uint64_t ordinal = open_tree_.leaf_count();
  std::vector<std::pair<uint64_t, uint64_t>> slots;
  slots.reserve(n);
  for (size_t i = 0; i < n; i++) {
    slots.emplace_back(block_id, ordinal++);
    if (ordinal >= options_.block_size) {
      block_id++;
      ordinal = 0;
    }
  }
  return slots;
}

Status DatabaseLedger::Append(TransactionEntry entry) {
  MutexLock lock(&mu_);
  // An entry addressed one block past the open block means digest
  // generation closed the open block before this commit (a full block
  // closes when its last entry arrives), so close it first. A digest never
  // closes an empty block after block 0, so consecutive entries are at most
  // one block apart: re-closing up to a larger jump would fabricate empty
  // blocks.
  const bool closes_open_block = entry.block_id == open_block_id_ + 1;
  if (entry.block_id != open_block_id_ && !closes_open_block)
    return Status::Corruption(
        "ledger entry for block " + std::to_string(entry.block_id) +
        (entry.block_id > open_block_id_ ? " skips blocks past"
                                         : " precedes") +
        " open block " + std::to_string(open_block_id_));
  const uint64_t next_ordinal =
      closes_open_block ? 0 : open_tree_.leaf_count();
  if (entry.block_ordinal != next_ordinal)
    return Status::Corruption("ledger entry for txn " +
                              std::to_string(entry.txn_id) +
                              " leaves an ordinal gap in block " +
                              std::to_string(entry.block_id));
  Status st = transactions_table_->Insert(TransactionEntryToRow(entry));
  if (st.code() == StatusCode::kAlreadyExists)
    return Status::Corruption("duplicate ledger entry for txn " +
                              std::to_string(entry.txn_id));
  SL_RETURN_IF_ERROR(st);
  if (closes_open_block) SL_RETURN_IF_ERROR(CloseOpenBlockLocked());
  // The leaf is hashed from the entry as committed, never re-read from the
  // table, so a row edited while its block is open cannot move the root.
  open_tree_.AddLeafHash(entry.LeafHash());
  open_close_ts_ = entry.commit_ts_micros;
  last_commit_ts_ = std::max(last_commit_ts_, entry.commit_ts_micros);
  if (open_tree_.leaf_count() >= options_.block_size)
    return CloseOpenBlockLocked();
  return Status::OK();
}

Status DatabaseLedger::CloseOpenBlockLocked() {
  BlockRecord block;
  block.block_id = open_block_id_;
  block.previous_block_hash = last_block_hash_;
  block.transactions_root = open_tree_.Root();
  block.transaction_count = open_tree_.leaf_count();
  // Deterministic close timestamp (highest-ordinal entry's commit time, 0
  // for an empty block) so a crash-recovery replay reproduces the
  // identical block hash that escaped in digests.
  block.closed_ts_micros = open_close_ts_;

  SL_RETURN_IF_ERROR(blocks_table_->Insert(BlockRecordToRow(block)));
  last_block_hash_ = block.ComputeHash();
  open_block_id_++;
  open_tree_.Reset();
  open_close_ts_ = 0;
  return Status::OK();
}

Result<DatabaseDigest> DatabaseLedger::GenerateDigest(
    const std::string& database_id, const std::string& create_time) {
  MutexLock lock(&mu_);
  // Close the open block so the digest covers the most recent transactions;
  // a pristine database materializes an initial empty block.
  if (!open_tree_.empty() || blocks_table_->row_count() == 0) {
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

Status DatabaseLedger::RecoverBlockClose(uint64_t block_id) {
  MutexLock lock(&mu_);
  if (block_id < open_block_id_) return Status::OK();  // already closed
  if (block_id != open_block_id_)
    return Status::Corruption("block-close marker skips blocks");
  return CloseOpenBlockLocked();
}

Status DatabaseLedger::LoadFromTables() {
  MutexLock lock(&mu_);
  // The open block is one past the newest closed block, the last in the
  // table's (block id) order.
  std::optional<BlockRecord> last_block;
  for (BTree::Iterator it = blocks_table_->Scan(); it.Valid(); it.Next()) {
    auto block = RowToBlockRecord(it.value());
    if (!block.ok()) return block.status();
    last_block = std::move(*block);
  }
  open_block_id_ = last_block ? last_block->block_id + 1 : 0;
  last_block_hash_ = last_block ? last_block->ComputeHash() : Hash256{};

  // Entries already persisted that belong to the open block.
  auto open = BlockEntriesLocked(open_block_id_, open_block_id_ + 1,
                                 &last_commit_ts_);
  if (!open.ok()) return open.status();
  open_tree_.Reset();
  for (const TransactionEntry& e : *open) open_tree_.AddLeafHash(e.LeafHash());
  open_close_ts_ = open->empty() ? 0 : open->back().commit_ts_micros;
  return Status::OK();
}

DatabaseLedger::LedgerSnapshot DatabaseLedger::Snapshot() const {
  MutexLock lock(&mu_);
  LedgerSnapshot snap;
  snap.entries.reserve(transactions_table_->row_count());
  for (BTree::Iterator it = transactions_table_->Scan(); it.Valid();
       it.Next()) {
    auto entry = RowToTransactionEntry(it.value());
    if (entry.ok()) snap.entries.push_back(std::move(*entry));
  }
  snap.blocks.reserve(blocks_table_->row_count());
  for (BTree::Iterator it = blocks_table_->Scan(); it.Valid(); it.Next()) {
    auto block = RowToBlockRecord(it.value());
    // Unparsable rows are omitted, like a missing row; the verifier reports
    // the resulting chain gap via invariants 2/3.
    if (block.ok()) snap.blocks.push_back(std::move(*block));
  }
  snap.open_block_id = open_block_id_;
  return snap;
}

Result<DatabaseLedger::TxnRange> DatabaseLedger::CollectTxnsBelow(
    uint64_t below_block) const {
  MutexLock lock(&mu_);
  auto entries = BlockEntriesLocked(0, below_block);
  if (!entries.ok()) return entries.status();
  TxnRange range;
  for (const TransactionEntry& e : *entries) range.txn_ids.push_back(e.txn_id);
  if (range.txn_ids.empty()) return range;
  auto [lo, hi] =
      std::minmax_element(range.txn_ids.begin(), range.txn_ids.end());
  range.min_txn_id = *lo;
  range.max_txn_id = *hi;
  return range;
}

Status DatabaseLedger::TruncateBelow(uint64_t below_block) {
  MutexLock lock(&mu_);
  if (below_block >= open_block_id_)
    return Status::InvalidArgument(
        "cannot truncate the open block or beyond");
  auto entries = BlockEntriesLocked(0, below_block);
  if (!entries.ok()) return entries.status();
  for (const TransactionEntry& e : *entries)
    SL_RETURN_IF_ERROR(transactions_table_->Delete(
        KeyTuple{Value::BigInt(static_cast<int64_t>(e.txn_id))}));

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

Result<BlockRecord> DatabaseLedger::FindBlock(uint64_t block_id) const {
  MutexLock lock(&mu_);
  KeyTuple key{Value::BigInt(static_cast<int64_t>(block_id))};
  const Row* row = blocks_table_->Get(key);
  if (row == nullptr)
    return Status::NotFound("block " + std::to_string(block_id) +
                            " not in ledger");
  return RowToBlockRecord(*row);
}

Result<std::vector<TransactionEntry>> DatabaseLedger::BlockEntriesLocked(
    uint64_t first_block, uint64_t end_block, int64_t* max_commit_ts) const {
  std::vector<TransactionEntry> entries;
  for (BTree::Iterator it = transactions_table_->Scan(); it.Valid();
       it.Next()) {
    auto entry = RowToTransactionEntry(it.value());
    if (!entry.ok()) return entry.status();
    if (max_commit_ts != nullptr)
      *max_commit_ts = std::max(*max_commit_ts, entry->commit_ts_micros);
    if (entry->block_id >= first_block && entry->block_id < end_block)
      entries.push_back(std::move(*entry));
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.block_id, a.block_ordinal) <
           std::tie(b.block_id, b.block_ordinal);
  });
  return entries;
}

std::vector<TransactionEntry> DatabaseLedger::EntriesAfter(
    uint64_t txn_id) const {
  MutexLock lock(&mu_);
  std::vector<TransactionEntry> entries;
  KeyTuple start{Value::BigInt(static_cast<int64_t>(txn_id) + 1)};
  for (BTree::Iterator it = transactions_table_->Seek(start); it.Valid();
       it.Next()) {
    auto entry = RowToTransactionEntry(it.value());
    if (entry.ok()) entries.push_back(std::move(*entry));
  }
  return entries;
}

Hash256 DatabaseLedger::last_block_hash() const {
  MutexLock lock(&mu_);
  return last_block_hash_;
}

Result<MerkleProof> DatabaseLedger::ProveTransaction(uint64_t txn_id) const {
  // One critical section for the whole proof: the lookup and the
  // system-table scan must see the same chain state.
  MutexLock lock(&mu_);
  auto entry = FindEntryLocked(txn_id);
  if (!entry.ok()) return entry.status();
  if (entry->block_id >= open_block_id_)
    return Status::Busy("transaction's block is not closed yet; generate a "
                        "digest to close it");
  auto block_entries = BlockEntriesLocked(entry->block_id, entry->block_id + 1);
  if (!block_entries.ok()) return block_entries.status();
  std::vector<Hash256> leaves;
  leaves.reserve(block_entries->size());
  for (const TransactionEntry& e : *block_entries)
    leaves.push_back(e.LeafHash());
  return MerkleTree(std::move(leaves)).Prove(entry->block_ordinal);
}

}  // namespace sqlledger

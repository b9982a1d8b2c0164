#include "ledger/types.h"

#include <cstring>

#include "crypto/merkle.h"
#include "util/coding.h"

namespace sqlledger {

const char* TableKindName(TableKind kind) {
  switch (kind) {
    case TableKind::kRegular:
      return "REGULAR";
    case TableKind::kAppendOnly:
      return "APPEND_ONLY";
    case TableKind::kUpdateable:
      return "UPDATEABLE";
  }
  return "UNKNOWN";
}

std::vector<uint8_t> TransactionEntry::CanonicalBytes() const {
  std::vector<uint8_t> out;
  PutFixed64(&out, txn_id);
  PutFixed64(&out, block_id);
  PutFixed64(&out, block_ordinal);
  PutFixed64(&out, static_cast<uint64_t>(commit_ts_micros));
  PutLengthPrefixed(&out, Slice(user_name));
  PutVarint32(&out, static_cast<uint32_t>(table_roots.size()));
  for (const auto& [table_id, root] : table_roots) {
    PutFixed32(&out, table_id);
    out.insert(out.end(), root.bytes.begin(), root.bytes.end());
  }
  return out;
}

Hash256 TransactionEntry::LeafHash() const {
  return MerkleLeafHash(Slice(CanonicalBytes()));
}

Result<TransactionEntry> TransactionEntry::FromCanonicalBytes(Slice bytes) {
  Decoder dec(bytes);
  TransactionEntry entry;
  auto txn_id = dec.GetFixed64();
  if (!txn_id.ok()) return txn_id.status();
  entry.txn_id = *txn_id;
  auto block_id = dec.GetFixed64();
  if (!block_id.ok()) return block_id.status();
  entry.block_id = *block_id;
  auto ordinal = dec.GetFixed64();
  if (!ordinal.ok()) return ordinal.status();
  entry.block_ordinal = *ordinal;
  auto ts = dec.GetFixed64();
  if (!ts.ok()) return ts.status();
  entry.commit_ts_micros = static_cast<int64_t>(*ts);
  auto user = dec.GetLengthPrefixed();
  if (!user.ok()) return user.status();
  entry.user_name = user->ToString();
  auto num_roots = dec.GetVarint32();
  if (!num_roots.ok()) return num_roots.status();
  for (uint32_t i = 0; i < *num_roots; i++) {
    auto table_id = dec.GetFixed32();
    if (!table_id.ok()) return table_id.status();
    auto hash_bytes = dec.GetBytes(32);
    if (!hash_bytes.ok()) return hash_bytes.status();
    Hash256 root;
    std::memcpy(root.bytes.data(), hash_bytes->data(), 32);
    entry.table_roots.emplace_back(*table_id, root);
  }
  if (!dec.done())
    return Status::Corruption("trailing bytes in transaction entry");
  return entry;
}

Hash256 BlockRecord::ComputeHash() const {
  std::vector<uint8_t> buf;
  PutFixed64(&buf, block_id);
  buf.insert(buf.end(), previous_block_hash.bytes.begin(),
             previous_block_hash.bytes.end());
  buf.insert(buf.end(), transactions_root.bytes.begin(),
             transactions_root.bytes.end());
  PutFixed64(&buf, transaction_count);
  PutFixed64(&buf, static_cast<uint64_t>(closed_ts_micros));
  return Sha256::Digest(Slice(buf));
}

}  // namespace sqlledger

#include "ledger/types.h"

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

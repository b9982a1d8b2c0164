#include "ledger/verification_state.h"

#include <cstring>

#include "util/coding.h"

namespace sqlledger {
namespace {

// "SQL Ledger Verification State", format 3 (format 1 lacked the
// transaction-entry accumulator, format 2 carried an anchor durability bit
// nothing read; old files fail the magic check and are simply ignored,
// costing one full re-verify).
constexpr uint8_t kMagic[8] = {'S', 'L', 'V', 'S', '0', '0', '0', '3'};
constexpr size_t kMagicLen = sizeof(kMagic);

void PutString(std::vector<uint8_t>* dst, const std::string& s) {
  PutLengthPrefixed(dst, Slice(s));
}

Result<std::string> GetString(Decoder* dec) {
  auto s = dec->GetLengthPrefixed();
  if (!s.ok()) return s.status();
  return std::string(reinterpret_cast<const char*>(s->data()), s->size());
}

// Word-at-a-time multiply-rotate mix (wyhash-flavored). Entry fingerprinting
// runs over every trusted entry on every incremental pass, so it must stay
// a few ns per field — a byte-serial FNV would eat the O(delta) win.
inline uint64_t MixWord(uint64_t h, uint64_t v) {
  h ^= v * 0x9E3779B97F4A7C15ULL;
  h = (h << 29) | (h >> 35);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h;
}

inline uint64_t MixBytes(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (n >= 8) {
    uint64_t w = 0;
    memcpy(&w, p, 8);
    h = MixWord(h, w);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t w = 0;
    memcpy(&w, p, n);
    h = MixWord(h, w | (static_cast<uint64_t>(n) << 56));
  }
  return h;
}

}  // namespace

uint64_t MixVersionFingerprint(uint64_t txn_id, uint64_t sequence, int op) {
  // SplitMix64 finalizer over the packed tuple: a cheap, well-mixed
  // order-independent contribution (versions are XOR-combined, so the
  // accumulator is insensitive to scan order but any structural change —
  // added, removed or re-stamped version — flips it).
  uint64_t x = txn_id * 0x9E3779B97F4A7C15ULL;
  x ^= sequence + 0xBF58476D1CE4E5B9ULL + (x << 6) + (x >> 2);
  x += static_cast<uint64_t>(op) * 0x94D049BB133111EBULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

uint64_t MixEntryFingerprint(const TransactionEntry& entry) {
  // Covers every field of the entry's canonical serialization, so any edit
  // a full verification would catch through the transaction Merkle tree
  // also flips this fingerprint (up to 64-bit collisions — the same odds
  // the row-version accumulator already accepts).
  uint64_t h = 0xCBF29CE484222325ULL;
  h = MixWord(h, entry.txn_id);
  h = MixWord(h, entry.block_id);
  h = MixWord(h, entry.block_ordinal);
  h = MixWord(h, static_cast<uint64_t>(entry.commit_ts_micros));
  h = MixWord(h, entry.user_name.size());
  h = MixBytes(h, entry.user_name.data(), entry.user_name.size());
  h = MixWord(h, entry.table_roots.size());
  for (const auto& [table_id, root] : entry.table_roots) {
    h = MixWord(h, table_id);
    h = MixBytes(h, root.bytes.data(), root.bytes.size());
  }
  // SplitMix64 finalizer: entries XOR-combine, so each must be well mixed.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

std::string VerificationState::Encode() const {
  std::vector<uint8_t> payload;
  PutString(&payload, database_id);
  PutString(&payload, database_create_time);
  PutFixed64(&payload, last_verified_block);
  PutLengthPrefixed(&payload, block_hash.AsSlice());
  PutString(&payload, anchor.database_id);
  PutString(&payload, anchor.database_create_time);
  PutFixed64(&payload, anchor.block_id);
  PutLengthPrefixed(&payload, anchor.block_hash.AsSlice());
  PutFixed64(&payload, static_cast<uint64_t>(anchor.generated_at_micros));
  PutFixed64(&payload, static_cast<uint64_t>(anchor.last_commit_ts_micros));
  PutFixed64(&payload, entry_count);
  PutFixed64(&payload, entry_fingerprint);
  PutVarint32(&payload, static_cast<uint32_t>(tables.size()));
  for (const TableAccumulator& t : tables) {
    PutFixed64(&payload, t.table_id);
    PutFixed64(&payload, t.prefix_versions);
    PutFixed64(&payload, t.fingerprint);
  }

  std::vector<uint8_t> out(kMagic, kMagic + kMagicLen);
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  PutFixed32(&out, Crc32c(Slice(payload)));
  return std::string(out.begin(), out.end());
}

Result<VerificationState> VerificationState::Decode(const std::string& data) {
  Slice input(data);
  if (input.size() < kMagicLen + 8)
    return Status::Corruption("verification state: truncated header");
  if (memcmp(input.data(), kMagic, kMagicLen) != 0)
    return Status::Corruption("verification state: bad magic");
  Decoder dec(Slice(input.data() + kMagicLen, input.size() - kMagicLen));
  auto payload_size = dec.GetFixed32();
  if (!payload_size.ok()) return payload_size.status();
  if (dec.remaining() != *payload_size + 4)
    return Status::Corruption("verification state: size mismatch");
  auto payload = dec.GetBytes(*payload_size);
  if (!payload.ok()) return payload.status();
  auto stored_crc = dec.GetFixed32();
  if (!stored_crc.ok()) return stored_crc.status();
  if (Crc32c(*payload) != *stored_crc)
    return Status::Corruption("verification state: CRC mismatch");

  VerificationState st;
  Decoder body(*payload);
  auto db_id = GetString(&body);
  if (!db_id.ok()) return db_id.status();
  st.database_id = *db_id;
  auto create_time = GetString(&body);
  if (!create_time.ok()) return create_time.status();
  st.database_create_time = *create_time;
  auto block = body.GetFixed64();
  if (!block.ok()) return block.status();
  st.last_verified_block = *block;
  auto hash = body.GetLengthPrefixed();
  if (!hash.ok()) return hash.status();
  if (hash->size() != st.block_hash.bytes.size())
    return Status::Corruption("verification state: bad block hash length");
  memcpy(st.block_hash.bytes.data(), hash->data(), hash->size());
  auto anchor_id = GetString(&body);
  if (!anchor_id.ok()) return anchor_id.status();
  st.anchor.database_id = *anchor_id;
  auto anchor_create = GetString(&body);
  if (!anchor_create.ok()) return anchor_create.status();
  st.anchor.database_create_time = *anchor_create;
  auto anchor_block = body.GetFixed64();
  if (!anchor_block.ok()) return anchor_block.status();
  st.anchor.block_id = *anchor_block;
  auto anchor_hash = body.GetLengthPrefixed();
  if (!anchor_hash.ok()) return anchor_hash.status();
  if (anchor_hash->size() != st.anchor.block_hash.bytes.size())
    return Status::Corruption("verification state: bad anchor hash length");
  memcpy(st.anchor.block_hash.bytes.data(), anchor_hash->data(),
         anchor_hash->size());
  auto gen_at = body.GetFixed64();
  if (!gen_at.ok()) return gen_at.status();
  st.anchor.generated_at_micros = static_cast<int64_t>(*gen_at);
  auto commit_ts = body.GetFixed64();
  if (!commit_ts.ok()) return commit_ts.status();
  st.anchor.last_commit_ts_micros = static_cast<int64_t>(*commit_ts);
  auto entry_count = body.GetFixed64();
  if (!entry_count.ok()) return entry_count.status();
  st.entry_count = *entry_count;
  auto entry_fp = body.GetFixed64();
  if (!entry_fp.ok()) return entry_fp.status();
  st.entry_fingerprint = *entry_fp;
  auto num_tables = body.GetVarint32();
  if (!num_tables.ok()) return num_tables.status();
  for (uint32_t i = 0; i < *num_tables; i++) {
    TableAccumulator acc;
    auto table_id = body.GetFixed64();
    if (!table_id.ok()) return table_id.status();
    acc.table_id = *table_id;
    auto versions = body.GetFixed64();
    if (!versions.ok()) return versions.status();
    acc.prefix_versions = *versions;
    auto fp = body.GetFixed64();
    if (!fp.ok()) return fp.status();
    acc.fingerprint = *fp;
    st.tables.push_back(acc);
  }
  if (!body.done())
    return Status::Corruption("verification state: trailing bytes");
  return st;
}

Status VerificationState::Save(Env* env, const std::string& path) const {
  if (env == nullptr) env = Env::Default();
  std::string encoded = Encode();
  // No .prev retention: losing the watermark only costs a full re-verify,
  // so replacing in one rename keeps recovery logic trivial.
  Status st = ReplaceFileDurably(env, path, {Slice(encoded)},
                                 /*keep_previous=*/false);
  if (!st.ok())
    return Status::IOError("verification state write failed: " +
                           st.message());
  return Status::OK();
}

Result<VerificationState> VerificationState::Load(Env* env,
                                                  const std::string& path) {
  if (env == nullptr) env = Env::Default();
  if (!env->FileExists(path))
    return Status::NotFound("no verification state at " + path);
  auto data = env->ReadFile(path);
  if (!data.ok()) return data.status();
  return Decode(std::string(data->begin(), data->end()));
}

Status VerificationState::Remove(Env* env, const std::string& path) {
  if (env == nullptr) env = Env::Default();
  if (!env->FileExists(path)) return Status::OK();
  return env->RemoveFile(path);
}

}  // namespace sqlledger

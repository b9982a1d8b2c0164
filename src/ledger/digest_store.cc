#include "ledger/digest_store.h"

#include <algorithm>
#include <cstdio>

#include "util/coding.h"
#include "util/hex.h"
#include "util/json.h"

namespace sqlledger {

namespace {

/// Implements the DigestStore::Upload idempotency contract against the
/// digests already stored for the incarnation: OK (skip the store) for a
/// byte-identical retry, IntegrityViolation for a fork (same block of the
/// same database+incarnation, different hash), nullopt-style fallthrough
/// (kNotFound) when the digest is genuinely new and should be stored.
Status CheckDuplicateUpload(const std::vector<DatabaseDigest>& existing,
                            const DatabaseDigest& digest) {
  for (const DatabaseDigest& d : existing) {
    if (d == digest)
      return Status::OK();  // idempotent retry / duplicate delivery
    if (d.database_id == digest.database_id &&
        d.database_create_time == digest.database_create_time &&
        d.block_id == digest.block_id &&
        !ConstantTimeEqual(d.block_hash, digest.block_hash))
      return Status::IntegrityViolation(
          "fork detected at upload: block " + std::to_string(digest.block_id) +
          " of incarnation '" + digest.database_create_time +
          "' is already stored with a different hash");
  }
  return Status::NotFound("new digest");
}

/// Wraps a digest document in a CRC-carrying envelope so blob corruption is
/// detected at read time rather than trusted.
std::string EncodeBlobEnvelope(const std::string& digest_json) {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32c(Slice(digest_json)));
  JsonValue doc = JsonValue::Object();
  doc.Set("crc32c", JsonValue::Str(crc_hex));
  doc.Set("payload", JsonValue::Str(digest_json));
  return doc.Dump();
}

Result<DatabaseDigest> DecodeBlobEnvelope(const std::string& blob,
                                          const std::string& path) {
  auto corrupt = [&path](const std::string& why) {
    return Status::Corruption("digest blob " + path + " is corrupt: " + why);
  };
  auto parsed = JsonValue::Parse(blob);
  if (!parsed.ok()) return corrupt(parsed.status().message());
  auto crc_hex = parsed->GetString("crc32c");
  if (!crc_hex.ok()) return corrupt("missing crc32c field");
  auto payload = parsed->GetString("payload");
  if (!payload.ok()) return corrupt("missing payload field");
  char expect_hex[16];
  std::snprintf(expect_hex, sizeof(expect_hex), "%08x",
                Crc32c(Slice(*payload)));
  if (*crc_hex != expect_hex) return corrupt("CRC mismatch");
  auto digest = DatabaseDigest::FromJson(*payload);
  if (!digest.ok()) return corrupt(digest.status().message());
  return digest;
}

}  // namespace

Status InMemoryDigestStore::Upload(const DatabaseDigest& digest) {
  MutexLock lock(&mu_);
  std::vector<DatabaseDigest>& digests =
      by_incarnation_[digest.database_create_time];
  Status dup = CheckDuplicateUpload(digests, digest);
  if (!dup.IsNotFound()) return dup;
  digests.push_back(digest);
  return Status::OK();
}

Result<std::vector<DatabaseDigest>> InMemoryDigestStore::ListAll() const {
  MutexLock lock(&mu_);
  std::vector<DatabaseDigest> out;
  for (const auto& [incarnation, digests] : by_incarnation_)
    out.insert(out.end(), digests.begin(), digests.end());
  return out;
}

Result<DatabaseDigest> InMemoryDigestStore::Latest(
    const std::string& create_time) const {
  MutexLock lock(&mu_);
  const DatabaseDigest* best = nullptr;
  for (const auto& [incarnation, digests] : by_incarnation_) {
    if (!create_time.empty() && incarnation != create_time) continue;
    for (const DatabaseDigest& d : digests) {
      if (best == nullptr || d.generated_at_micros > best->generated_at_micros)
        best = &d;
    }
  }
  if (best == nullptr) return Status::NotFound("digest store is empty");
  return *best;
}

Result<std::unique_ptr<ImmutableBlobDigestStore>> ImmutableBlobDigestStore::Open(
    const std::string& root_dir, Env* env) {
  if (env == nullptr) env = Env::Default();
  Status st = env->CreateDirs(root_dir);
  if (!st.ok())
    return Status::IOError("cannot create digest store root: " + st.message());
  return std::unique_ptr<ImmutableBlobDigestStore>(
      new ImmutableBlobDigestStore(root_dir, env));
}

Status ImmutableBlobDigestStore::Upload(const DatabaseDigest& digest) {
  std::string incarnation =
      digest.database_create_time.empty() ? "default"
                                          : digest.database_create_time;
  std::string dir = root_dir_ + "/" + incarnation;
  Status st = env_->CreateDirs(dir);
  if (!st.ok())
    return Status::IOError("cannot create incarnation dir: " + st.message());

  // Idempotency pass over the incarnation's stored blobs: a retried upload
  // of identical content (ambiguous first attempt, duplicate delivery)
  // returns OK without a second blob, while divergent content for an
  // already-stored block is a fork. O(blobs) reads per upload is fine at
  // digest cadence; a real blob service answers this with a content ETag.
  {
    std::vector<DatabaseDigest> existing;
    auto blobs = env_->GetChildren(dir);
    if (blobs.ok()) {
      for (const std::string& blob_name : *blobs) {
        std::string path = dir + "/" + blob_name;
        auto bytes = env_->ReadFile(path);
        if (!bytes.ok())
          return Status::IOError("cannot read digest blob " + path + ": " +
                                 bytes.status().message());
        auto stored = DecodeBlobEnvelope(
            std::string(bytes->begin(), bytes->end()), path);
        if (!stored.ok()) return stored.status();
        existing.push_back(std::move(*stored));
      }
    }
    Status dup = CheckDuplicateUpload(existing, digest);
    if (!dup.IsNotFound()) return dup;
  }

  // Sequence number = number of existing blobs. The exclusive create is
  // the write-once enforcement: an existing blob is NEVER opened for
  // writing, and a name collision (concurrent uploader) moves on to the
  // next sequence number instead of overwriting.
  std::string blob = EncodeBlobEnvelope(digest.ToJson());
  auto children = env_->GetChildren(dir);
  size_t seq = children.ok() ? children->size() : 0;
  for (int attempt = 0; attempt < 1000; attempt++, seq++) {
    char name[32];
    std::snprintf(name, sizeof(name), "digest-%08zu.json", seq);
    std::string path = dir + "/" + name;
    // Digests are the trusted side of verification; an upload must not be
    // reported successful until the blob (and its directory entry) would
    // survive a crash of the storage host.
    st = WriteFileSynced(env_, path, {Slice(blob)},
                         WritableFileOptions{.exclusive = true});
    if (st.code() == StatusCode::kAlreadyExists) continue;
    if (!st.ok())
      return Status::IOError("failed writing digest blob " + path + ": " +
                             st.message());
    SL_RETURN_IF_ERROR(env_->SyncDir(dir));
    // Emulate the storage service's immutability policy: strip write
    // permission from the stored blob. Advisory — the digest is durable
    // either way.
    (void)env_->MakeReadOnly(path);
    return Status::OK();
  }
  return Status::Busy("could not allocate a digest blob name");
}

Result<std::vector<DatabaseDigest>> ImmutableBlobDigestStore::ListAll() const {
  std::vector<DatabaseDigest> out;
  auto incarnations = env_->GetChildren(root_dir_);
  if (!incarnations.ok()) {
    if (incarnations.status().IsNotFound()) return out;
    return incarnations.status();
  }
  std::vector<std::string> files;
  for (const std::string& incarnation : *incarnations) {
    std::string dir = root_dir_ + "/" + incarnation;
    if (!env_->IsDirectory(dir)) continue;
    auto blobs = env_->GetChildren(dir);
    if (!blobs.ok()) return blobs.status();
    for (const std::string& blob : *blobs) files.push_back(dir + "/" + blob);
  }
  std::sort(files.begin(), files.end());
  for (const std::string& path : files) {
    auto bytes = env_->ReadFile(path);
    if (!bytes.ok())
      return Status::IOError("cannot read digest blob " + path + ": " +
                             bytes.status().message());
    auto digest = DecodeBlobEnvelope(
        std::string(bytes->begin(), bytes->end()), path);
    if (!digest.ok()) return digest.status();
    out.push_back(std::move(*digest));
  }
  return out;
}

Result<DatabaseDigest> ImmutableBlobDigestStore::Latest(
    const std::string& create_time) const {
  auto all = ListAll();
  if (!all.ok()) return all.status();
  const DatabaseDigest* best = nullptr;
  for (const DatabaseDigest& d : *all) {
    if (!create_time.empty() && d.database_create_time != create_time)
      continue;
    if (best == nullptr || d.generated_at_micros > best->generated_at_micros)
      best = &d;
  }
  if (best == nullptr) return Status::NotFound("digest store is empty");
  return *best;
}

Result<VerificationReport> VerifyLedgerAgainstStore(
    LedgerDatabase* db, const DigestStore& store,
    const VerificationOptions& options, bool incremental) {
  auto all = store.ListAll();
  if (!all.ok()) return all.status();
  uint64_t open_block = db->database_ledger()->open_block_id();
  std::vector<DatabaseDigest> relevant;
  for (DatabaseDigest& digest : *all) {
    if (digest.database_id != db->options().database_id) continue;
    // Digests from OTHER incarnations cover the shared block prefix only:
    // a restored sibling keeps appending its own blocks, which this
    // incarnation legitimately never has (paper §3.6). Digests of THIS
    // incarnation are never dropped — a reference to a missing block then
    // means a rollback attack and must be flagged.
    if (digest.database_create_time != db->create_time() &&
        digest.block_id >= open_block)
      continue;
    relevant.push_back(std::move(digest));
  }
  if (incremental) return VerifyLedgerIncremental(db, relevant, options);
  return VerifyLedger(db, relevant, options);
}

std::string SignedDigest::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("digest", JsonValue::Str(digest.ToJson()));
  doc.Set("key_id", JsonValue::Str(key_id));
  doc.Set("signature", JsonValue::Str(HexEncode(Slice(signature))));
  return doc.Dump();
}

Result<SignedDigest> SignedDigest::FromJson(const std::string& json) {
  auto parsed = JsonValue::Parse(json);
  if (!parsed.ok()) return parsed.status();
  SignedDigest out;
  auto digest_json = parsed->GetString("digest");
  if (!digest_json.ok()) return digest_json.status();
  auto digest = DatabaseDigest::FromJson(*digest_json);
  if (!digest.ok()) return digest.status();
  out.digest = *digest;
  auto key_id = parsed->GetString("key_id");
  if (!key_id.ok()) return key_id.status();
  out.key_id = *key_id;
  auto sig_hex = parsed->GetString("signature");
  if (!sig_hex.ok()) return sig_hex.status();
  auto sig = HexDecode(*sig_hex);
  if (!sig.ok()) return sig.status();
  out.signature = std::move(*sig);
  return out;
}

SignedDigest SignDigest(const DatabaseDigest& digest, const Signer& signer) {
  SignedDigest out;
  out.digest = digest;
  out.key_id = signer.KeyId();
  out.signature = signer.Sign(Sha256::Digest(Slice(digest.ToJson())));
  return out;
}

bool VerifySignedDigest(const SignedDigest& signed_digest,
                        const Signer& signer) {
  return signer.Verify(
      Sha256::Digest(Slice(signed_digest.digest.ToJson())),
      Slice(signed_digest.signature));
}

}  // namespace sqlledger

// Digest management (paper §2.4, §3.6). Database Digests must live in
// trusted storage outside the database. The paper integrates with Azure
// Immutable Blob Storage; this module provides the equivalent contract:
//   - write-once, append-only storage of digest documents,
//   - no modify/delete surface at all,
//   - digests grouped by database "incarnation" (create time), so
//     point-in-time restores retain the digests of every incarnation.
// GenerateAndUploadDigest additionally performs the fork check of §3.3.1
// (requirement 3): each new digest must be derivable from the previously
// uploaded one, otherwise the upload is refused and the fork reported.

#ifndef SQLLEDGER_LEDGER_DIGEST_STORE_H_
#define SQLLEDGER_LEDGER_DIGEST_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/hmac.h"

#include "ledger/digest.h"
#include "ledger/ledger_database.h"
#include "ledger/verifier.h"
#include "storage/env.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace sqlledger {

/// Trusted external digest storage.
class DigestStore {
 public:
  virtual ~DigestStore() = default;

  /// Stores a digest. Write-once: implementations never overwrite.
  ///
  /// Idempotency contract (DESIGN.md §9): uploads ride a retrying network
  /// path, so a digest may arrive more than once — including after an
  /// ambiguous outcome where the first upload was stored but its ack lost.
  /// Re-uploading byte-identical content returns OK without storing a
  /// second copy. A digest that covers an already-stored block of the same
  /// database+incarnation with a DIFFERENT block hash is a fork and fails
  /// with IntegrityViolation. (Same block with the same hash but different
  /// generation time is a legitimate re-digest of a quiet database and is
  /// stored normally.)
  virtual Status Upload(const DatabaseDigest& digest) = 0;
  /// Every stored digest, across all incarnations, upload order preserved
  /// within an incarnation.
  virtual Result<std::vector<DatabaseDigest>> ListAll() const = 0;
  /// The most recently generated digest for the given incarnation
  /// (empty create_time = across all incarnations). NotFound when empty.
  virtual Result<DatabaseDigest> Latest(
      const std::string& create_time = "") const = 0;
};

/// In-process store for tests and examples. Thread-safe: the digest
/// pipeline's cadence thread and concurrent verifiers may share one instance.
class InMemoryDigestStore : public DigestStore {
 public:
  Status Upload(const DatabaseDigest& digest) override;
  Result<std::vector<DatabaseDigest>> ListAll() const override;
  Result<DatabaseDigest> Latest(const std::string& create_time) const override;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::vector<DatabaseDigest>> by_incarnation_
      GUARDED_BY(mu_);
};

/// Directory-backed simulation of Azure Immutable Blob Storage: one
/// subdirectory per incarnation, one write-once file per digest. Every blob
/// is a JSON envelope carrying the digest document plus a CRC32C of it, so
/// storage-level corruption (bit rot, truncation) surfaces as an explicit
/// Corruption status instead of a silently wrong digest. Write-once is
/// enforced at the filesystem layer (exclusive create — an existing blob is
/// never opened for writing), and each blob is fsynced plus dir-synced
/// before Upload returns, matching the durability contract of a real
/// immutable blob service. All I/O flows through Env for fault injection.
class ImmutableBlobDigestStore : public DigestStore {
 public:
  /// `root_dir` is created if absent. `env` = nullptr uses Env::Default().
  static Result<std::unique_ptr<ImmutableBlobDigestStore>> Open(
      const std::string& root_dir, Env* env = nullptr);

  Status Upload(const DatabaseDigest& digest) override;
  Result<std::vector<DatabaseDigest>> ListAll() const override;
  Result<DatabaseDigest> Latest(const std::string& create_time) const override;

 private:
  ImmutableBlobDigestStore(std::string root_dir, Env* env)
      : root_dir_(std::move(root_dir)), env_(env) {}

  std::string root_dir_;
  Env* env_;
};

/// Generates a digest from `db` and uploads it to `store`, first verifying
/// that the new digest is derivable from the incarnation's previous digest
/// (fork detection, paper §3.3.1). Returns the uploaded digest.
Result<DatabaseDigest> GenerateAndUploadDigest(LedgerDatabase* db,
                                               DigestStore* store);

/// Downloads every digest stored for this database (across incarnations)
/// and runs full verification against them — the automated flow of paper
/// §3.6 ("during verification, these digests are automatically downloaded
/// and used to verify the integrity of the database"). Digests belonging
/// to other databases in the same store are ignored, as are digests from
/// *other incarnations* that cover blocks past this database's chain (a
/// restored sibling's own future — legitimately absent here). Digests of
/// this incarnation are always used, so a same-incarnation digest pointing
/// past the chain is correctly reported as a rollback attack. With
/// `incremental` set, runs VerifyLedgerIncremental instead — the cron-driven
/// auditor's steady state (DESIGN.md §11): same verdicts, O(delta) cost when
/// the persisted watermark re-anchors.
Result<VerificationReport> VerifyLedgerAgainstStore(
    LedgerDatabase* db, const DigestStore& store,
    const VerificationOptions& options = {}, bool incremental = false);

/// A digest signed with the organization's key (paper §2.4: digests can be
/// "signed with the company's private/public key pair, to guarantee their
/// authenticity, and shared with any customers, partners or auditors").
/// The signature covers the SHA-256 of the digest's canonical JSON.
struct SignedDigest {
  DatabaseDigest digest;
  std::string key_id;
  std::vector<uint8_t> signature;

  std::string ToJson() const;
  static Result<SignedDigest> FromJson(const std::string& json);
};

/// Signs `digest` with the database's signer.
SignedDigest SignDigest(const DatabaseDigest& digest, const Signer& signer);
/// Offline authenticity check for a shared digest document.
bool VerifySignedDigest(const SignedDigest& signed_digest,
                        const Signer& signer);

}  // namespace sqlledger

#endif  // SQLLEDGER_LEDGER_DIGEST_STORE_H_

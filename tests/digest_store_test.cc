// Digest store tests: JSON round-trip, write-once blob semantics,
// incarnations, and the upload-time fork check (paper §2.4, §3.6).

#include <gtest/gtest.h>

#include <fstream>

#include "ledger/digest_store.h"
#include "test_util.h"

namespace sqlledger {
namespace {

DatabaseDigest MakeDigest(uint64_t block_id, const std::string& incarnation) {
  DatabaseDigest d;
  d.database_id = "testdb";
  d.database_create_time = incarnation;
  d.block_id = block_id;
  d.block_hash = Sha256::Digest(Slice("block" + std::to_string(block_id)));
  d.generated_at_micros = 1000 + static_cast<int64_t>(block_id);
  d.last_commit_ts_micros = 900 + static_cast<int64_t>(block_id);
  return d;
}

TEST(DigestJsonTest, RoundTrip) {
  DatabaseDigest d = MakeDigest(7, "t0");
  auto parsed = DatabaseDigest::FromJson(d.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == d);
}

TEST(DigestJsonTest, RejectsMalformed) {
  EXPECT_FALSE(DatabaseDigest::FromJson("not json").ok());
  EXPECT_FALSE(DatabaseDigest::FromJson("{}").ok());
  EXPECT_FALSE(DatabaseDigest::FromJson(
                   R"({"database_id":"x","database_create_time":"t",
                       "block_id":1,"block_hash":"zz","generated_at":1,
                       "last_commit_ts":1})")
                   .ok());
}

TEST(InMemoryDigestStoreTest, UploadListLatest) {
  InMemoryDigestStore store;
  EXPECT_TRUE(store.Latest("").status().IsNotFound());
  ASSERT_TRUE(store.Upload(MakeDigest(1, "t0")).ok());
  ASSERT_TRUE(store.Upload(MakeDigest(2, "t0")).ok());
  ASSERT_TRUE(store.Upload(MakeDigest(3, "t1")).ok());

  auto all = store.ListAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);

  auto latest_t0 = store.Latest("t0");
  ASSERT_TRUE(latest_t0.ok());
  EXPECT_EQ(latest_t0->block_id, 2u);
  auto latest_any = store.Latest("");
  ASSERT_TRUE(latest_any.ok());
  EXPECT_EQ(latest_any->block_id, 3u);
}

TEST(InMemoryDigestStoreTest, IdenticalRetryIsIdempotentDivergentIsFork) {
  InMemoryDigestStore store;
  DatabaseDigest d = MakeDigest(3, "t0");
  ASSERT_TRUE(store.Upload(d).ok());
  // Byte-identical retry (ambiguous first attempt): OK, no second copy.
  ASSERT_TRUE(store.Upload(d).ok());
  EXPECT_EQ(store.ListAll()->size(), 1u);
  // Same block, same hash, later generation time: a legitimate re-digest of
  // a quiet database — stored normally.
  DatabaseDigest quiet = d;
  quiet.generated_at_micros += 50;
  ASSERT_TRUE(store.Upload(quiet).ok());
  EXPECT_EQ(store.ListAll()->size(), 2u);
  // Same block, DIFFERENT hash: a fork, refused.
  DatabaseDigest forged = d;
  forged.block_hash.bytes[0] ^= 1;
  EXPECT_TRUE(store.Upload(forged).IsIntegrityViolation());
  EXPECT_EQ(store.ListAll()->size(), 2u);
}

class BlobStoreTest : public TempDirTest {};

TEST_F(BlobStoreTest, IdenticalRetryIsIdempotentDivergentIsFork) {
  auto store = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(store.ok());
  DatabaseDigest d = MakeDigest(3, "t0");
  ASSERT_TRUE((*store)->Upload(d).ok());
  ASSERT_TRUE((*store)->Upload(d).ok());  // duplicate delivery absorbed
  EXPECT_EQ((*store)->ListAll()->size(), 1u);
  DatabaseDigest forged = d;
  forged.block_hash.bytes[0] ^= 1;
  EXPECT_TRUE((*store)->Upload(forged).IsIntegrityViolation());
  EXPECT_EQ((*store)->ListAll()->size(), 1u);
}

TEST_F(BlobStoreTest, UploadPersistsAndLists) {
  auto store = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Upload(MakeDigest(1, "t0")).ok());
  ASSERT_TRUE((*store)->Upload(MakeDigest(2, "t0")).ok());

  auto all = (*store)->ListAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].block_id, 1u);
  EXPECT_EQ((*all)[1].block_id, 2u);

  // Re-open (a different process) sees the same digests.
  auto reopened = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(reopened.ok());
  auto latest = (*reopened)->Latest("t0");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->block_id, 2u);
}

TEST_F(BlobStoreTest, BlobsAreWriteProtected) {
  auto store = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Upload(MakeDigest(1, "t0")).ok());
  std::string blob = Path("digests") + "/t0/digest-00000000.json";
  ASSERT_TRUE(std::filesystem::exists(blob));
  auto perms = std::filesystem::status(blob).permissions();
  EXPECT_EQ(perms & std::filesystem::perms::owner_write,
            std::filesystem::perms::none);
}

TEST_F(BlobStoreTest, IncarnationsKeptSeparate) {
  // A point-in-time restore produces a new incarnation; digests from both
  // incarnations are all retained (paper §3.6).
  auto store = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Upload(MakeDigest(1, "t0")).ok());
  ASSERT_TRUE((*store)->Upload(MakeDigest(2, "t0")).ok());
  ASSERT_TRUE((*store)->Upload(MakeDigest(1, "t1_restored")).ok());

  auto all = (*store)->ListAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  EXPECT_TRUE(std::filesystem::exists(Path("digests") + "/t0"));
  EXPECT_TRUE(std::filesystem::exists(Path("digests") + "/t1_restored"));
}

class UploadFlowTest : public TempDirTest {};

TEST_F(UploadFlowTest, GenerateAndUploadChains) {
  auto db = OpenTestDb(/*block_size=*/2);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  InMemoryDigestStore store;

  ASSERT_TRUE(InsertOne(db.get(), "t", 1, "a").ok());
  auto d1 = GenerateAndUploadDigest(db.get(), &store);
  ASSERT_TRUE(d1.ok()) << d1.status().ToString();

  for (int i = 2; i <= 6; i++)
    ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
  auto d2 = GenerateAndUploadDigest(db.get(), &store);
  ASSERT_TRUE(d2.ok());
  EXPECT_GT(d2->block_id, d1->block_id);
  EXPECT_EQ(store.ListAll()->size(), 2u);
}

TEST_F(UploadFlowTest, ForkRefusedAtUpload) {
  auto db = OpenTestDb(/*block_size=*/2);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  InMemoryDigestStore store;

  ASSERT_TRUE(InsertOne(db.get(), "t", 1, "a").ok());
  auto d1 = GenerateAndUploadDigest(db.get(), &store);
  ASSERT_TRUE(d1.ok());

  // Attacker forks the chain: overwrite the block d1 covers.
  auto block = db->database_ledger()->FindBlock(d1->block_id);
  ASSERT_TRUE(block.ok());
  BlockRecord forged = *block;
  forged.transactions_root.bytes[0] ^= 1;
  ASSERT_TRUE(db->database_ledger()
                  ->blocks_table_for_testing()
                  ->Update(BlockRecordToRow(forged))
                  .ok());

  ASSERT_TRUE(InsertOne(db.get(), "t", 2, "b").ok());
  auto d2 = GenerateAndUploadDigest(db.get(), &store);
  EXPECT_TRUE(d2.status().IsIntegrityViolation());
  EXPECT_EQ(store.ListAll()->size(), 1u);  // forged digest never uploaded
}

TEST(SignedDigestTest, SignVerifyRoundTrip) {
  HmacSigner signer("company-key", {1, 2, 3, 4, 5});
  DatabaseDigest digest = MakeDigest(5, "t0");
  SignedDigest signed_digest = SignDigest(digest, signer);
  EXPECT_TRUE(VerifySignedDigest(signed_digest, signer));
  EXPECT_EQ(signed_digest.key_id, "company-key");

  // JSON round-trip preserves verifiability — the document can be shared
  // with partners and auditors (paper §2.4).
  auto parsed = SignedDigest::FromJson(signed_digest.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(VerifySignedDigest(*parsed, signer));
  EXPECT_TRUE(parsed->digest == digest);
}

TEST(SignedDigestTest, TamperedDigestFailsSignature) {
  HmacSigner signer("k", {9});
  SignedDigest signed_digest = SignDigest(MakeDigest(5, "t0"), signer);
  signed_digest.digest.block_id = 6;  // forge the covered block
  EXPECT_FALSE(VerifySignedDigest(signed_digest, signer));
  signed_digest = SignDigest(MakeDigest(5, "t0"), signer);
  signed_digest.signature[0] ^= 1;
  EXPECT_FALSE(VerifySignedDigest(signed_digest, signer));
  HmacSigner other("other", {7});
  EXPECT_FALSE(
      VerifySignedDigest(SignDigest(MakeDigest(5, "t0"), signer), other));
}

TEST_F(UploadFlowTest, VerifyAgainstStoreDownloadsDigests) {
  auto db = OpenTestDb(/*block_size=*/2);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  InMemoryDigestStore store;
  for (int i = 1; i <= 4; i++) {
    ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
    ASSERT_TRUE(GenerateAndUploadDigest(db.get(), &store).ok());
  }
  // Digests of an unrelated database must be ignored, not flagged.
  DatabaseDigest foreign = MakeDigest(99, "other-epoch");
  foreign.database_id = "other-db";
  ASSERT_TRUE(store.Upload(foreign).ok());

  auto report = VerifyLedgerAgainstStore(db.get(), store);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_TRUE(report->has_digest_coverage);

  // Tampering detected through the store-driven flow too.
  TableStore* t = db->GetStoreForTesting("t");
  Row* row = t->mutable_clustered()->MutableGet({Value::BigInt(2)});
  (*row)[1] = Value::Varchar("FORGED");
  report = VerifyLedgerAgainstStore(db.get(), store);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(UploadFlowTest, SiblingIncarnationDigestsToleratedButRollbackCaught) {
  LedgerDatabaseOptions options;
  options.data_dir = Path("db");
  options.database_id = "pitrdb";
  options.block_size = 2;
  auto opened = LedgerDatabase::Open(options);
  ASSERT_TRUE(opened.ok());
  auto db = std::move(*opened);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  InMemoryDigestStore store;
  for (int i = 1; i <= 4; i++) {
    ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
    ASSERT_TRUE(GenerateAndUploadDigest(db.get(), &store).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());

  // A restored sibling diverges and uploads digests for blocks the
  // original never has — the original must still verify cleanly.
  LedgerDatabaseOptions restore_options = options;
  restore_options.data_dir = Path("restored");
  auto restored = LedgerDatabase::Restore(Path("db"), restore_options);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(InsertOne(restored->get(), "t", 100, "diverged").ok());
  ASSERT_TRUE(GenerateAndUploadDigest(restored->get(), &store).ok());

  auto report = VerifyLedgerAgainstStore(db.get(), store);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  // But a SAME-incarnation digest referencing a missing block (rollback
  // attack: the attacker restored old state under the same identity) is
  // still flagged.
  DatabaseDigest forged;
  forged.database_id = "pitrdb";
  forged.database_create_time = db->create_time();
  forged.block_id = 9999;
  forged.generated_at_micros = db->NowMicros();
  ASSERT_TRUE(store.Upload(forged).ok());
  report = VerifyLedgerAgainstStore(db.get(), store);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(UploadFlowTest, StatsReflectActivity) {
  auto db = OpenTestDb(/*block_size=*/2);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  for (int i = 1; i <= 5; i++)
    ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
  EXPECT_GE(CounterValue(db.get(), "commit.txns_total"), 5u);
  EXPECT_GE(db->database_ledger()->closed_block_count(), 1u);
}

}  // namespace
}  // namespace sqlledger

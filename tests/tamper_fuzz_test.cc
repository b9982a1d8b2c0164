// Property test: *any* random storage-level mutation of ledger-protected
// state — row cells, system columns, history rows, row deletion or
// injection, transaction entries, block records — must be caught by
// verification. This is the paper's core guarantee (§2.3) exercised
// adversarially: the verifier's false-negative rate over random attacks
// must be zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "ledger/digest_store.h"
#include "ledger/verifier.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class TamperFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/8);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
    Random rng(TestCaseSeed(static_cast<uint64_t>(GetParam()) * 7919));
    // Mixed workload: inserts, updates, deletes.
    for (int i = 0; i < 40; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(txn.ok());
      std::string name = "acct" + std::to_string(i);
      ASSERT_TRUE(
          db_->Insert(*txn, "accounts", {VS(name), VB(i * 10)}).ok());
      if (i > 2 && rng.Bernoulli(0.5)) {
        ASSERT_TRUE(db_->Update(*txn, "accounts",
                                {VS("acct" + std::to_string(i - 1)),
                                 VB(rng.UniformRange(0, 1000))})
                        .ok());
      }
      if (i > 4 && rng.Bernoulli(0.2)) {
        ASSERT_TRUE(db_->Delete(*txn, "accounts",
                                {VS("acct" + std::to_string(i - 3))})
                        .ok());
      }
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    auto digest = db_->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    digest_ = *digest;
  }

  bool VerificationFails() {
    auto report = VerifyLedger(db_.get(), {digest_});
    EXPECT_TRUE(report.ok());
    return !report->ok();
  }

  /// Picks a random row of a random store and returns (store, key).
  bool PickRandomRow(Random* rng, TableStore* store, KeyTuple* key) {
    if (store == nullptr || store->row_count() == 0) return false;
    size_t target = rng->Uniform(store->row_count());
    size_t i = 0;
    for (BTree::Iterator it = store->Scan(); it.Valid(); it.Next(), i++) {
      if (i == target) {
        *key = it.key();
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<LedgerDatabase> db_;
  DatabaseDigest digest_;
};

TEST_P(TamperFuzz, EveryRandomMutationIsDetected) {
  Random rng(TestCaseSeed(static_cast<uint64_t>(GetParam()) * 104729 + 17));
  auto ref = db_->GetTableRef("accounts");
  ASSERT_TRUE(ref.ok());

  uint64_t kind = rng.Uniform(8);
  KeyTuple key;
  switch (kind) {
    case 0: {  // edit a live user cell
      ASSERT_TRUE(PickRandomRow(&rng, ref->main, &key));
      Row* row = ref->main->mutable_clustered()->MutableGet(key);
      (*row)[1] = VB((*row)[1].AsInt64() ^ (1 << rng.Uniform(20)));
      break;
    }
    case 1: {  // edit a history cell
      if (ref->history->row_count() == 0) {
        ASSERT_TRUE(PickRandomRow(&rng, ref->main, &key));
        Row* row = ref->main->mutable_clustered()->MutableGet(key);
        (*row)[1] = VB(-1);
      } else {
        ASSERT_TRUE(PickRandomRow(&rng, ref->history, &key));
        Row* row = ref->history->mutable_clustered()->MutableGet(key);
        (*row)[1] = VB((*row)[1].AsInt64() + 1);
      }
      break;
    }
    case 2: {  // delete a live row
      ASSERT_TRUE(PickRandomRow(&rng, ref->main, &key));
      ASSERT_TRUE(ref->main->Delete(key).ok());
      break;
    }
    case 3: {  // delete a history row (erase an audit trace)
      TableStore* store =
          ref->history->row_count() > 0 ? ref->history : ref->main;
      ASSERT_TRUE(PickRandomRow(&rng, store, &key));
      ASSERT_TRUE(store->Delete(key).ok());
      break;
    }
    case 4: {  // inject a forged row under a random transaction id
      ASSERT_TRUE(PickRandomRow(&rng, ref->main, &key));
      Row forged = *ref->main->Get(key);
      forged[0] = VS("forged" + std::to_string(rng.Next() % 100000));
      forged[ref->plan->start_txn_ord] = VB(rng.UniformRange(1, 60));
      forged[ref->plan->start_seq_ord] = VB(rng.UniformRange(0, 5));
      ASSERT_TRUE(ref->main->Insert(forged).ok());
      break;
    }
    case 5: {  // re-stamp a row's transaction attribution
      ASSERT_TRUE(PickRandomRow(&rng, ref->main, &key));
      Row* row = ref->main->mutable_clustered()->MutableGet(key);
      (*row)[ref->plan->start_txn_ord] =
          VB((*row)[ref->plan->start_txn_ord].AsInt64() + 1);
      break;
    }
    case 6: {  // tamper with a transaction entry's recorded root
      TableStore* txns =
          db_->database_ledger()->transactions_table_for_testing();
      ASSERT_TRUE(PickRandomRow(&rng, txns, &key));
      Row* row = txns->mutable_clustered()->MutableGet(key);
      std::string roots((*row)[5].string_value());
      if (roots.size() > 6) {
        std::vector<uint8_t> bytes(roots.begin(), roots.end());
        bytes[rng.Uniform(bytes.size() - 1) + 1] ^= 0x40;
        (*row)[5] = Value::Varbinary(bytes);
      } else {
        // Entry with no roots: delete it instead.
        ASSERT_TRUE(txns->Delete(key).ok());
      }
      break;
    }
    case 7: {  // tamper with a block record
      TableStore* blocks =
          db_->database_ledger()->blocks_table_for_testing();
      ASSERT_TRUE(PickRandomRow(&rng, blocks, &key));
      Row* row = blocks->mutable_clustered()->MutableGet(key);
      // Flip a bit in either the previous hash or the transactions root.
      size_t col = rng.Bernoulli(0.5) ? 1 : 2;
      std::vector<uint8_t> bytes((*row)[col].string_value().begin(),
                                 (*row)[col].string_value().end());
      bytes[rng.Uniform(bytes.size())] ^= 0x01;
      (*row)[col] = Value::Varbinary(bytes);
      break;
    }
  }
  EXPECT_TRUE(VerificationFails())
      << "undetected tampering of kind " << kind << " (case " << GetParam()
      << ", SQLLEDGER_TEST_SEED=" << TestSeed() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TamperFuzz, ::testing::Range(1, 33));

// The same zero-false-negative property for the OTHER side of verification:
// the trusted digest store itself. Any storage-level mutation of an on-disk
// digest blob — bit flips anywhere in the file, truncation to any prefix —
// must surface as an error or a violation, never as a clean report built on
// a corrupted digest.
class DigestBlobTamperFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("sl_blobfuzz_" + std::to_string(::getpid()) + "_" +
             std::to_string(GetParam()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    db_ = OpenTestDb(/*block_size=*/4);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
    auto store = ImmutableBlobDigestStore::Open((root_ / "digests").string());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    ASSERT_TRUE(db_->StartDigestProtection(store_.get(),
                                           {(root_ / "outbox").string()})
                    .ok());
    for (int i = 0; i < 9; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Insert(*txn, "accounts",
                              {VS("acct" + std::to_string(i)), VB(i * 10)})
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
      if (i % 3 == 2) {
        ASSERT_TRUE(UploadDigest(db_.get()).ok());
      }
    }
  }

  void TearDown() override {
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(
             root_, std::filesystem::directory_options::skip_permission_denied,
             ec);
         it != std::filesystem::recursive_directory_iterator(); ++it) {
      std::filesystem::permissions(it->path(),
                                   std::filesystem::perms::owner_all,
                                   std::filesystem::perm_options::add, ec);
    }
    std::filesystem::remove_all(root_, ec);
  }

  std::vector<std::filesystem::path> BlobFiles() {
    std::vector<std::filesystem::path> out;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root_ / "digests")) {
      if (entry.is_regular_file()) out.push_back(entry.path());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::filesystem::path root_;
  std::unique_ptr<LedgerDatabase> db_;
  std::unique_ptr<ImmutableBlobDigestStore> store_;
};

TEST_P(DigestBlobTamperFuzz, EveryBlobMutationIsDetected) {
  // Untampered baseline: the store-driven verification is clean.
  auto clean = VerifyLedgerAgainstStore(db_.get(), *store_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(clean->ok()) << clean->Summary();

  auto blobs = BlobFiles();
  ASSERT_GE(blobs.size(), 3u);
  Random rng(TestCaseSeed(static_cast<uint64_t>(GetParam()) * 2654435761u + 11));
  const std::filesystem::path& victim = blobs[rng.Uniform(blobs.size())];
  // Blobs are stored read-only; the storage-level attacker of §2.5.2 is
  // not bound by the access layer's permissions.
  std::filesystem::permissions(victim, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::add);
  const auto size = std::filesystem::file_size(victim);
  ASSERT_GT(size, 0u);

  uint64_t kind = rng.Uniform(3);
  switch (kind) {
    case 0: {  // flip one bit anywhere in the blob
      std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
      size_t offset = rng.Uniform(size);
      f.seekg(static_cast<std::streamoff>(offset));
      char byte = 0;
      f.get(byte);
      f.seekp(static_cast<std::streamoff>(offset));
      f.put(static_cast<char>(byte ^ (1 << rng.Uniform(8))));
      break;
    }
    case 1:  // truncate to a random proper prefix
      std::filesystem::resize_file(victim, rng.Uniform(size));
      break;
    case 2:  // truncate to nothing
      std::filesystem::resize_file(victim, 0);
      break;
  }

  auto report = VerifyLedgerAgainstStore(db_.get(), *store_);
  EXPECT_FALSE(report.ok() && report->ok())
      << "undetected digest-blob tampering of kind " << kind << " on "
      << victim << " (case " << GetParam()
      << ", SQLLEDGER_TEST_SEED=" << TestSeed() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigestBlobTamperFuzz, ::testing::Range(1, 17));

}  // namespace
}  // namespace sqlledger

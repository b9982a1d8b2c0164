// Transaction receipt tests (paper §5.1): offline verification, JSON
// round-trip, and non-repudiation after the ledger is destroyed.

#include <gtest/gtest.h>

#include "ledger/receipt.h"
#include "test_util.h"

namespace sqlledger {
namespace {

class ReceiptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/4);
    ASSERT_TRUE(
        db_->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
            .ok());
    for (int i = 0; i < 6; i++) {
      uint64_t txn_id;
      ASSERT_TRUE(
          InsertOne(db_.get(), "t", i, "row" + std::to_string(i), &txn_id)
              .ok());
      txn_ids_.push_back(txn_id);
    }
    // Close the open block so receipts can be issued for all transactions.
    ASSERT_TRUE(db_->GenerateDigest().ok());
  }

  std::unique_ptr<LedgerDatabase> db_;
  std::vector<uint64_t> txn_ids_;
};

TEST_F(ReceiptTest, IssueAndVerify) {
  for (uint64_t txn_id : txn_ids_) {
    auto receipt = MakeTransactionReceipt(db_.get(), txn_id);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    EXPECT_EQ(receipt->entry.txn_id, txn_id);
    EXPECT_TRUE(VerifyTransactionReceipt(*receipt, db_->signer()));
  }
}

TEST_F(ReceiptTest, JsonRoundTripStillVerifies) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[2]);
  ASSERT_TRUE(receipt.ok());
  std::string json = receipt->ToJson();
  auto parsed = TransactionReceipt::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(VerifyTransactionReceipt(*parsed, db_->signer()));
  EXPECT_EQ(parsed->entry.user_name, receipt->entry.user_name);
  EXPECT_EQ(parsed->entry.commit_ts_micros, receipt->entry.commit_ts_micros);
}

TEST_F(ReceiptTest, SurvivesLedgerDestruction) {
  // Non-repudiation: the receipt keeps verifying after the attacker wipes
  // the entire ledger.
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[1]);
  ASSERT_TRUE(receipt.ok());
  std::string json = receipt->ToJson();

  TableStore* txns = db_->database_ledger()->transactions_table_for_testing();
  TableStore* blocks = db_->database_ledger()->blocks_table_for_testing();
  txns->mutable_clustered()->Clear();
  blocks->mutable_clustered()->Clear();

  auto parsed = TransactionReceipt::FromJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(VerifyTransactionReceipt(*parsed, db_->signer()));
}

TEST_F(ReceiptTest, TamperedEntryFails) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  ASSERT_TRUE(receipt.ok());
  TransactionReceipt forged = *receipt;
  forged.entry.user_name = "someone-else";
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
  forged = *receipt;
  forged.entry.commit_ts_micros += 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
  forged = *receipt;
  ASSERT_FALSE(forged.entry.table_roots.empty());
  forged.entry.table_roots[0].second.bytes[0] ^= 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
}

TEST_F(ReceiptTest, TamperedProofFails) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  ASSERT_TRUE(receipt.ok());
  TransactionReceipt forged = *receipt;
  if (!forged.proof.steps.empty()) {
    forged.proof.steps[0].sibling.bytes[3] ^= 1;
    EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
  }
  forged = *receipt;
  forged.proof.leaf_index ^= 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));
}

TEST_F(ReceiptTest, ForgedSignatureFails) {
  auto receipt = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  ASSERT_TRUE(receipt.ok());
  TransactionReceipt forged = *receipt;
  forged.signature[0] ^= 1;
  EXPECT_FALSE(VerifyTransactionReceipt(forged, db_->signer()));

  // A receipt signed under a different key does not verify either.
  HmacSigner other("other", {9, 9, 9});
  EXPECT_FALSE(VerifyTransactionReceipt(*receipt, other));
}

TEST_F(ReceiptTest, OpenBlockTransactionIsBusy) {
  uint64_t txn_id;
  ASSERT_TRUE(InsertOne(db_.get(), "t", 100, "late", &txn_id).ok());
  auto receipt = MakeTransactionReceipt(db_.get(), txn_id);
  EXPECT_EQ(receipt.status().code(), StatusCode::kBusy);
  // After a digest closes the block, the receipt can be issued.
  ASSERT_TRUE(db_->GenerateDigest().ok());
  receipt = MakeTransactionReceipt(db_.get(), txn_id);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(VerifyTransactionReceipt(*receipt, db_->signer()));
}

TEST_F(ReceiptTest, UnknownTransactionIsNotFound) {
  EXPECT_TRUE(
      MakeTransactionReceipt(db_.get(), 987654).status().IsNotFound());
}

TEST_F(ReceiptTest, OneSignaturePerBlockAmortization) {
  // All receipts from one block carry the identical signed root — one
  // signing operation amortized over the block (paper §5.1).
  auto r0 = MakeTransactionReceipt(db_.get(), txn_ids_[0]);
  auto r1 = MakeTransactionReceipt(db_.get(), txn_ids_[1]);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r0->entry.block_id, r1->entry.block_id);
  EXPECT_EQ(r0->transactions_root, r1->transactions_root);
  EXPECT_EQ(r0->signature, r1->signature);
}

// Pins the exact receipt bytes for a database with its own pinned clock and
// the default signing key: the entry, its proof path through a seven-leaf
// block, the signed root and the signature. A change to how receipts are
// proved or encoded shows here.
TEST_F(ReceiptTest, GoldenJsonBytes) {
  LedgerDatabaseOptions options;
  options.block_size = 8;
  options.database_id = "goldendb";
  int64_t clock = 1000000;
  options.clock = [&clock] { return ++clock; };
  auto db = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  std::vector<uint64_t> txn_ids(5);
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(InsertOne(db->get(), "t", i, "row" + std::to_string(i),
                          &txn_ids[i])
                    .ok());
  ASSERT_TRUE((*db)->GenerateDigest().ok());
  auto receipt = MakeTransactionReceipt(db->get(), txn_ids[2]);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(
      receipt->ToJson(),
      "{\"transaction_id\":5,\"block_id\":0,\"block_ordinal\":4,"
      "\"commit_ts\":1000006,\"user_name\":\"tester\",\"table_roots\":["
      "{\"table_id\":100,\"root\":"
      "\"a417b126b7250543952d0c83cddb05506fd1e62460157bb4259d81e886a7b31d\"}],"
      "\"proof\":{\"leaf_index\":4,\"leaf_count\":7,\"steps\":["
      "{\"sibling\":"
      "\"2d778e10aa7010227229113978306551ffaf45c4e545823320abfa49da8b1c70\","
      "\"left\":false},{\"sibling\":"
      "\"1cf4d0c6d438f09ff3ab2cd2fa191e6ac1c1e11aa5e2608ef5a84819a97b3227\","
      "\"left\":false},{\"sibling\":"
      "\"f4877e75ccac5b5935dc472aa4427bc721d099108b98eb0edf09455ffbac6d03\","
      "\"left\":true}]},\"transactions_root\":"
      "\"0662afd682273a4f9af2010fdb16f4b4866dfd0085fa96a34cf38f79384fe46b\","
      "\"key_id\":\"dev-key-1\",\"signature\":"
      "\"6d8082db474c872beabf0616ca12c98857d054e121705b5a39f57c52a16edecf\"}");
}

}  // namespace
}  // namespace sqlledger

// Tamper-detection tests: simulate the storage-level attacker of the
// paper's threat model (§2.5.2) — full control, mutating table stores
// directly below the database API — and check that verification catches
// every attack class with the right invariant.

#include <gtest/gtest.h>

#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class TamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/4);
    ASSERT_TRUE(db_->CreateTable("accounts", AccountSchema(),
                                 TableKind::kUpdateable)
                    .ok());
    // Secondary index so invariant 5 has something to verify.
    ASSERT_TRUE(
        db_->CreateIndex("accounts", "by_balance", {"balance"}, false).ok());
    for (int i = 0; i < 8; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Insert(*txn, "accounts",
                              {VS("acct" + std::to_string(i)), VB(i * 100)})
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    // Update a few rows so the history table has content.
    for (int i = 0; i < 3; i++) {
      auto txn = db_->Begin("app");
      ASSERT_TRUE(db_->Update(*txn, "accounts",
                              {VS("acct" + std::to_string(i)), VB(i * 100 + 5)})
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    auto digest = db_->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    digest_ = *digest;
  }

  /// Returns the violations of a full verification.
  std::vector<Violation> Verify() {
    auto report = VerifyLedger(db_.get(), {digest_});
    EXPECT_TRUE(report.ok());
    return report->violations;
  }

  bool HasInvariant(const std::vector<Violation>& violations, int invariant) {
    for (const Violation& v : violations) {
      if (v.invariant == invariant) return true;
    }
    return false;
  }

  std::unique_ptr<LedgerDatabase> db_;
  DatabaseDigest digest_;
};

TEST_F(TamperTest, BaselineIsClean) { EXPECT_TRUE(Verify().empty()); }

TEST_F(TamperTest, LiveValueEditDetected) {
  TableStore* store = db_->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({VS("acct5")});
  ASSERT_NE(row, nullptr);
  (*row)[1] = VB(999999);  // the attacker gives acct5 a fortune
  auto violations = Verify();
  EXPECT_TRUE(HasInvariant(violations, 4));
}

TEST_F(TamperTest, HistoryEditDetected) {
  // Rewriting history: change a retired version's balance.
  TableStore* history = db_->GetStoreForTesting("accounts", /*history=*/true);
  ASSERT_GT(history->row_count(), 0u);
  BTree::Iterator it = history->Scan();
  KeyTuple key = it.key();
  Row* row = history->mutable_clustered()->MutableGet(key);
  ASSERT_NE(row, nullptr);
  (*row)[1] = VB(31337);
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, RowDeletionDetected) {
  TableStore* store = db_->GetStoreForTesting("accounts");
  ASSERT_TRUE(store->Delete({VS("acct6")}).ok());
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, HistoryRowDeletionDetected) {
  // Erasing the trace of an update.
  TableStore* history = db_->GetStoreForTesting("accounts", true);
  BTree::Iterator it = history->Scan();
  KeyTuple key = it.key();
  ASSERT_TRUE(history->Delete(key).ok());
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, ForeignRowInsertionDetected) {
  // Injecting a row attributed to a nonexistent transaction.
  auto ref = db_->GetTableRef("accounts");
  Row forged = *ref->main->Get({VS("acct1")});
  forged[0] = VS("ghost");
  forged[ref->plan->start_txn_ord] = VB(424242);  // no such transaction
  ASSERT_TRUE(ref->main->Insert(forged).ok());
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, SystemColumnRetargetingDetected) {
  // Re-attributing a row to a different (existing) transaction.
  auto ref = db_->GetTableRef("accounts");
  Row* a = ref->main->mutable_clustered()->MutableGet({VS("acct6")});
  Row* b = ref->main->mutable_clustered()->MutableGet({VS("acct7")});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Value a_txn = (*a)[ref->plan->start_txn_ord];
  (*a)[ref->plan->start_txn_ord] = (*b)[ref->plan->start_txn_ord];
  (*b)[ref->plan->start_txn_ord] = a_txn;
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, TransactionEntryEditDetected) {
  // A sophisticated attacker edits a row AND re-records a matching Merkle
  // root in the transaction entry. The forged entry's leaf hash changes,
  // so the block's transactions root no longer matches (invariant 3).
  auto entries = db_->database_ledger()->Snapshot().entries;
  TransactionEntry victim;
  bool found = false;
  for (const TransactionEntry& e : entries) {
    if (!e.table_roots.empty()) {
      victim = e;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  victim.table_roots[0].second.bytes[0] ^= 1;
  TableStore* txns =
      db_->database_ledger()->transactions_table_for_testing();
  ASSERT_TRUE(txns->Update(TransactionEntryToRow(victim)).ok());
  auto violations = Verify();
  EXPECT_TRUE(HasInvariant(violations, 3));
  EXPECT_TRUE(HasInvariant(violations, 4));  // root no longer matches rows
}

TEST_F(TamperTest, TransactionEntryDeletionDetected) {
  auto entries = db_->database_ledger()->Snapshot().entries;
  TransactionEntry victim;
  for (const TransactionEntry& e : entries) {
    if (!e.table_roots.empty()) {
      victim = e;
      break;
    }
  }
  TableStore* txns =
      db_->database_ledger()->transactions_table_for_testing();
  ASSERT_TRUE(
      txns->Delete({VB(static_cast<int64_t>(victim.txn_id))}).ok());
  auto violations = Verify();
  EXPECT_TRUE(HasInvariant(violations, 3));  // block root mismatch
  EXPECT_TRUE(HasInvariant(violations, 4));  // rows reference unknown txn
}

TEST_F(TamperTest, TableRootsCountTamperReportedNotCrash) {
  // A five-byte table_roots cell announcing 0xffffffff roots used to abort
  // verification with bad_alloc. The entry must be dropped as unparsable
  // and its absence reported.
  auto entries = db_->database_ledger()->Snapshot().entries;
  ASSERT_FALSE(entries.empty());
  const uint64_t victim = entries.front().txn_id;
  TableStore* txns =
      db_->database_ledger()->transactions_table_for_testing();
  Row* row = txns->mutable_clustered()->MutableGet(
      {VB(static_cast<int64_t>(victim))});
  ASSERT_NE(row, nullptr);
  (*row)[5] = Value::Varbinary({0xFF, 0xFF, 0xFF, 0xFF, 0x0F});
  EXPECT_EQ(db_->database_ledger()->Snapshot().entries.size(),
            entries.size() - 1);
  auto violations = Verify();
  EXPECT_TRUE(HasInvariant(violations, 3));  // block root mismatch
}

TEST_F(TamperTest, OpenBlockEntryEditSurvivesBlockClose) {
  // The attacker edits an entry's row while its block is still open. The
  // block root is streamed from the entries as committed, so the close
  // does not launder the edit into the chain.
  auto txn = db_->Begin("app");
  ASSERT_TRUE(txn.ok());
  const uint64_t txn_id = (*txn)->id();
  ASSERT_TRUE(db_->Update(*txn, "accounts", {VS("acct7"), VB(1)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  auto victim = db_->database_ledger()->FindEntry(txn_id);
  ASSERT_TRUE(victim.ok());
  ASSERT_EQ(victim->block_id, db_->database_ledger()->open_block_id());
  victim->user_name = "mallory";
  TableStore* txns =
      db_->database_ledger()->transactions_table_for_testing();
  ASSERT_TRUE(txns->Update(TransactionEntryToRow(*victim)).ok());
  auto digest = db_->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  digest_ = *digest;
  EXPECT_TRUE(HasInvariant(Verify(), 3));
}

TEST_F(TamperTest, BlockEditDetected) {
  // Rewriting a closed block breaks the digest check and the chain.
  TableStore* blocks = db_->database_ledger()->blocks_table_for_testing();
  auto block = db_->database_ledger()->FindBlock(digest_.block_id);
  ASSERT_TRUE(block.ok());
  BlockRecord forged = *block;
  forged.transactions_root.bytes[7] ^= 1;
  ASSERT_TRUE(blocks->Update(BlockRecordToRow(forged)).ok());
  auto violations = Verify();
  EXPECT_TRUE(HasInvariant(violations, 1));  // digest mismatch
  EXPECT_TRUE(HasInvariant(violations, 3));  // entries no longer match root
}

TEST_F(TamperTest, BlockChainLinkTamperDetected) {
  // Forge an earlier block's prev pointer: breaks the chain (invariant 2).
  ASSERT_GE(db_->database_ledger()->closed_block_count(), 2u);
  TableStore* blocks = db_->database_ledger()->blocks_table_for_testing();
  auto block1 = db_->database_ledger()->FindBlock(1);
  ASSERT_TRUE(block1.ok());
  BlockRecord forged = *block1;
  forged.previous_block_hash.bytes[0] ^= 1;
  ASSERT_TRUE(blocks->Update(BlockRecordToRow(forged)).ok());
  auto violations = Verify();
  EXPECT_TRUE(HasInvariant(violations, 2));
}

TEST_F(TamperTest, BlockDeletionDetected) {
  TableStore* blocks = db_->database_ledger()->blocks_table_for_testing();
  ASSERT_TRUE(blocks->Delete({VB(0)}).ok());
  auto violations = Verify();
  EXPECT_FALSE(violations.empty());
  EXPECT_TRUE(HasInvariant(violations, 3));  // entries reference missing block
}

TEST_F(TamperTest, IndexTamperDetected) {
  // Tamper with a non-clustered index entry only: base table untouched, so
  // queries through the index would lie. Invariant 5 catches it.
  TableStore* store = db_->GetStoreForTesting("accounts");
  SecondaryIndex* index = store->FindIndex("by_balance");
  ASSERT_NE(index, nullptr);
  BTree::Iterator it = index->tree.Begin();
  ASSERT_TRUE(it.Valid());
  // (balance, name): the entry is its own key.
  KeyTuple forged_tuple = it.value();
  ASSERT_TRUE(index->tree.Delete(forged_tuple).ok());
  forged_tuple[0] = VB(123456789);
  index->tree.Upsert(forged_tuple);
  EXPECT_TRUE(HasInvariant(Verify(), 5));
}

TEST_F(TamperTest, IndexEntryDeletionDetected) {
  TableStore* store = db_->GetStoreForTesting("accounts");
  SecondaryIndex* index = store->FindIndex("by_balance");
  BTree::Iterator it = index->tree.Begin();
  ASSERT_TRUE(it.Valid());
  const KeyTuple entry = it.value();
  ASSERT_TRUE(index->tree.Delete(entry).ok());
  EXPECT_TRUE(HasInvariant(Verify(), 5));
}

TEST_F(TamperTest, InPlacePrimaryKeyEditDetected) {
  // The key is read from the row, so rewriting the key cell in place
  // renames acct5 without moving its entry. The row's hash changes with it.
  TableStore* store = db_->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({VS("acct5")});
  ASSERT_NE(row, nullptr);
  (*row)[0] = VS("acct5b");
  EXPECT_EQ(store->Get({VS("acct5")}), nullptr);
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, ColumnTypeSwapDetected) {
  // The §3.2 metadata attack: flip a column's declared type. The stored
  // bytes stay, interpretation changes, and the recomputed hashes differ.
  auto ref = db_->GetTableRef("accounts");
  int ord = ref->main->schema().FindColumn("balance");
  ASSERT_GE(ord, 0);
  ref->main->mutable_schema()->mutable_column(ord)->type = DataType::kInt;
  // Convert stored values so the table stays self-consistent (the attacker
  // is thorough) — hashes must still mismatch via the type id.
  std::vector<KeyTuple> keys;
  for (BTree::Iterator it = ref->main->Scan(); it.Valid(); it.Next())
    keys.push_back(it.key());
  for (const KeyTuple& key : keys) {
    Row* row = ref->main->mutable_clustered()->MutableGet(key);
    (*row)[ord] = Value::Int(static_cast<int32_t>((*row)[ord].AsInt64()));
  }
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, TamperingAfterDigestInOpenBlockStillDetected) {
  // Data written after the last digest is only consistency-checked, but
  // editing it without fixing the transaction entry still trips invariant 4.
  auto txn = db_->Begin("app");
  ASSERT_TRUE(db_->Insert(*txn, "accounts", {VS("fresh"), VB(1)}).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  auto ref = db_->GetTableRef("accounts");
  Row* row = ref->main->mutable_clustered()->MutableGet({VS("fresh")});
  (*row)[1] = VB(100000);
  EXPECT_TRUE(HasInvariant(Verify(), 4));
}

TEST_F(TamperTest, LedgerViewCountMismatchDetected) {
  // Stuff a version into history with NULL start (breaks the view's
  // one-INSERT-per-version shape) — caught by the view definition check
  // or invariant 4.
  auto ref = db_->GetTableRef("accounts");
  BTree::Iterator it = ref->history->Scan();
  Row forged = it.value();
  forged[ref->plan->start_txn_ord] = Value::Null(DataType::kBigInt);
  forged[ref->plan->end_txn_ord] = VB(77);
  forged[ref->plan->end_seq_ord] = VB(12345);
  ASSERT_TRUE(ref->history->Insert(forged).ok());
  auto violations = Verify();
  EXPECT_FALSE(violations.empty());
}

TEST_F(TamperTest, NulledStartStampBreaksViewDefinition) {
  // Erase acct5's inserting transaction from the row: the view loses its
  // INSERT (invariant 6) and that transaction's recorded root finds no
  // row versions (invariant 4).
  auto ref = db_->GetTableRef("accounts");
  Row* row = ref->main->mutable_clustered()->MutableGet({VS("acct5")});
  ASSERT_NE(row, nullptr);
  (*row)[ref->plan->start_txn_ord] = Value::Null(DataType::kBigInt);
  auto violations = Verify();
  EXPECT_TRUE(HasInvariant(violations, 6));
  EXPECT_TRUE(HasInvariant(violations, 4));
}

}  // namespace
}  // namespace sqlledger

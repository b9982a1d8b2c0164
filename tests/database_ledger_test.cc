// Database Ledger tests: slot assignment, block closing, digest generation,
// chain verification (fork detection), queue draining, proofs.

#include <gtest/gtest.h>

#include "ledger/database_ledger.h"

namespace sqlledger {
namespace {

class DatabaseLedgerTest : public ::testing::Test {
 protected:
  DatabaseLedgerTest()
      : txns_(kLedgerTransactionsTableId, "database_ledger_transactions",
              MakeLedgerTransactionsSchema()),
        blocks_(kLedgerBlocksTableId, "database_ledger_blocks",
                MakeLedgerBlocksSchema()) {}

  std::unique_ptr<DatabaseLedger> MakeLedger(uint64_t block_size) {
    DatabaseLedgerOptions options;
    options.block_size = block_size;
    options.clock = [this] { return ++clock_; };
    return std::make_unique<DatabaseLedger>(&txns_, &blocks_,
                                            std::move(options));
  }

  TransactionEntry MakeEntry(DatabaseLedger* ledger, uint64_t txn_id) {
    auto [block, ordinal] = ledger->AssignSlots(1)[0];
    TransactionEntry entry;
    entry.txn_id = txn_id;
    entry.block_id = block;
    entry.block_ordinal = ordinal;
    entry.commit_ts_micros = ++clock_;
    entry.user_name = "u" + std::to_string(txn_id);
    Hash256 root;
    root.bytes[0] = static_cast<uint8_t>(txn_id);
    entry.table_roots.emplace_back(100, root);
    return entry;
  }

  TableStore txns_;
  TableStore blocks_;
  int64_t clock_ = 0;
};

TEST_F(DatabaseLedgerTest, EntryCanonicalBytesRoundTrip) {
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  TransactionEntry entry = MakeEntry(&ledger, 42);
  auto decoded = TransactionEntry::FromCanonicalBytes(
      Slice(entry.CanonicalBytes()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->txn_id, 42u);
  EXPECT_EQ(decoded->user_name, "u42");
  EXPECT_EQ(decoded->LeafHash(), entry.LeafHash());
}

TEST_F(DatabaseLedgerTest, SlotsAreSequential) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  for (uint64_t i = 0; i < 5; i++) {
    auto [block, ordinal] = ledger.AssignSlots(1)[0];
    EXPECT_EQ(block, 0u);
    EXPECT_EQ(ordinal, i);
  }
}

TEST_F(DatabaseLedgerTest, BlockClosesWhenFull) {
  auto ledger_ptr = MakeLedger(3);
  DatabaseLedger& ledger = *ledger_ptr;
  for (uint64_t i = 1; i <= 7; i++) {
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
  }
  // 7 entries, block size 3: blocks 0 and 1 closed, block 2 open with 1.
  EXPECT_EQ(ledger.closed_block_count(), 2u);
  EXPECT_EQ(ledger.open_block_id(), 2u);
  EXPECT_EQ(ledger.open_block_entry_count(), 1u);
  EXPECT_EQ(ledger.total_entries(), 7u);

  auto block0 = ledger.FindBlock(0);
  ASSERT_TRUE(block0.ok());
  EXPECT_EQ(block0->transaction_count, 3u);
  EXPECT_TRUE(block0->previous_block_hash.IsZero());
  auto block1 = ledger.FindBlock(1);
  ASSERT_TRUE(block1.ok());
  EXPECT_EQ(block1->previous_block_hash, block0->ComputeHash());
}

TEST_F(DatabaseLedgerTest, DigestClosesOpenBlock) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  for (uint64_t i = 1; i <= 5; i++)
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());

  auto digest = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->block_id, 0u);
  EXPECT_EQ(ledger.closed_block_count(), 1u);
  EXPECT_EQ(ledger.open_block_id(), 1u);

  auto block = ledger.FindBlock(0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(digest->block_hash, block->ComputeHash());
}

TEST_F(DatabaseLedgerTest, RepeatedDigestWithoutTrafficIsStable) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 1)).ok());
  auto d1 = ledger.GenerateDigest("db", "t0");
  auto d2 = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->block_id, d2->block_id);
  EXPECT_EQ(d1->block_hash, d2->block_hash);
  EXPECT_EQ(ledger.closed_block_count(), 1u);  // no empty blocks piling up
}

TEST_F(DatabaseLedgerTest, PristineDatabaseDigest) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  auto digest = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->block_id, 0u);
  EXPECT_EQ(ledger.closed_block_count(), 1u);  // initial empty block
}

TEST_F(DatabaseLedgerTest, DigestChainVerifies) {
  auto ledger_ptr = MakeLedger(2);
  DatabaseLedger& ledger = *ledger_ptr;
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 1)).ok());
  auto d1 = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(d1.ok());
  for (uint64_t i = 2; i <= 6; i++)
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
  auto d2 = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(d2.ok());
  EXPECT_GT(d2->block_id, d1->block_id);

  auto derivable = ledger.VerifyDigestChain(*d1, *d2);
  ASSERT_TRUE(derivable.ok());
  EXPECT_TRUE(*derivable);
  // Self-derivation also holds.
  derivable = ledger.VerifyDigestChain(*d1, *d1);
  ASSERT_TRUE(derivable.ok());
  EXPECT_TRUE(*derivable);
  // Reversed order is not derivable.
  derivable = ledger.VerifyDigestChain(*d2, *d1);
  ASSERT_TRUE(derivable.ok());
  EXPECT_FALSE(*derivable);
}

TEST_F(DatabaseLedgerTest, ForkDetectedByChainVerification) {
  auto ledger_ptr = MakeLedger(2);
  DatabaseLedger& ledger = *ledger_ptr;
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 1)).ok());
  auto d1 = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(d1.ok());
  for (uint64_t i = 2; i <= 6; i++)
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
  auto d2 = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(d2.ok());

  // Attacker overwrites block 0 (forks the chain).
  auto block0 = ledger.FindBlock(0);
  ASSERT_TRUE(block0.ok());
  BlockRecord forged = *block0;
  forged.transactions_root.bytes[5] ^= 1;
  ASSERT_TRUE(blocks_.Update(BlockRecordToRow(forged)).ok());

  auto derivable = ledger.VerifyDigestChain(*d1, *d2);
  ASSERT_TRUE(derivable.ok());
  EXPECT_FALSE(*derivable);
}

TEST_F(DatabaseLedgerTest, DrainQueuePersistsEntries) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  for (uint64_t i = 1; i <= 4; i++)
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
  EXPECT_EQ(ledger.queue_depth(), 4u);
  EXPECT_EQ(txns_.row_count(), 0u);

  ASSERT_TRUE(ledger.DrainQueue().ok());
  EXPECT_EQ(ledger.queue_depth(), 0u);
  EXPECT_EQ(txns_.row_count(), 4u);
  // Idempotent.
  ASSERT_TRUE(ledger.DrainQueue().ok());
  EXPECT_EQ(txns_.row_count(), 4u);

  auto found = ledger.FindEntry(3);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->user_name, "u3");
}

TEST_F(DatabaseLedgerTest, FindEntryBeforeDrainSeesQueue) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 9)).ok());
  auto found = ledger.FindEntry(9);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->txn_id, 9u);
  EXPECT_TRUE(ledger.FindEntry(10).status().IsNotFound());
}

TEST_F(DatabaseLedgerTest, ProveTransactionInClosedBlock) {
  auto ledger_ptr = MakeLedger(4);
  DatabaseLedger& ledger = *ledger_ptr;
  std::vector<TransactionEntry> entries;
  for (uint64_t i = 1; i <= 4; i++) {
    TransactionEntry entry = MakeEntry(&ledger, i);
    entries.push_back(entry);
    ASSERT_TRUE(ledger.Append(entry).ok());
  }
  ASSERT_EQ(ledger.closed_block_count(), 1u);

  for (const TransactionEntry& entry : entries) {
    auto proof = ledger.ProveTransaction(entry.txn_id);
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    auto block = ledger.FindBlock(0);
    ASSERT_TRUE(block.ok());
    EXPECT_TRUE(MerkleTree::VerifyProof(entry.LeafHash(), *proof,
                                        block->transactions_root));
  }
}

TEST_F(DatabaseLedgerTest, ProveTransactionInOpenBlockIsBusy) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 1)).ok());
  EXPECT_EQ(ledger.ProveTransaction(1).status().code(), StatusCode::kBusy);
}

TEST_F(DatabaseLedgerTest, LoadFromTablesRestoresState) {
  uint64_t open_entries;
  Hash256 expected_digest_hash;
  {
    auto ledger_ptr = MakeLedger(3);
  DatabaseLedger& ledger = *ledger_ptr;
    for (uint64_t i = 1; i <= 5; i++)
      ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
    ASSERT_TRUE(ledger.DrainQueue().ok());
    open_entries = ledger.open_block_entry_count();
    auto block = ledger.FindBlock(0);
    expected_digest_hash = block->ComputeHash();
  }
  auto reloaded_ptr = MakeLedger(3);
  DatabaseLedger& reloaded = *reloaded_ptr;
  ASSERT_TRUE(reloaded.LoadFromTables().ok());
  EXPECT_EQ(reloaded.open_block_id(), 1u);
  EXPECT_EQ(reloaded.open_block_entry_count(), open_entries);
  EXPECT_EQ(reloaded.total_entries(), 5u);
  // Appending resumes at the right ordinal and closes correctly.
  ASSERT_TRUE(reloaded.Append(MakeEntry(&reloaded, 6)).ok());
  EXPECT_EQ(reloaded.closed_block_count(), 2u);
  auto block1 = reloaded.FindBlock(1);
  ASSERT_TRUE(block1.ok());
  EXPECT_EQ(block1->previous_block_hash, expected_digest_hash);
}

TEST_F(DatabaseLedgerTest, RecoverEntryIsIdempotent) {
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  TransactionEntry entry = MakeEntry(&ledger, 1);
  ASSERT_TRUE(ledger.Append(entry).ok());
  ASSERT_TRUE(ledger.DrainQueue().ok());
  // Replaying the same entry (crash between checkpoint and WAL reset).
  ASSERT_TRUE(ledger.RecoverEntry(entry).ok());
  EXPECT_EQ(ledger.total_entries(), 1u);
}

TEST_F(DatabaseLedgerTest, RecoverEntryReclosesPriorBlocks) {
  // Entries addressed past the open block imply a digest-time close.
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  TransactionEntry e1 = MakeEntry(&ledger, 1);
  ASSERT_TRUE(ledger.Append(e1).ok());
  auto digest = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(digest.ok());
  TransactionEntry e2 = MakeEntry(&ledger, 2);
  ASSERT_TRUE(ledger.Append(e2).ok());
  ASSERT_TRUE(ledger.DrainQueue().ok());

  // Simulate crash recovery on fresh system-table copies: block rows were
  // persisted only via DrainQueue/checkpoint in the real engine; here we
  // rebuild from an empty blocks table and replay both entries.
  TableStore txns2(kLedgerTransactionsTableId, "t", MakeLedgerTransactionsSchema());
  TableStore blocks2(kLedgerBlocksTableId, "b", MakeLedgerBlocksSchema());
  DatabaseLedgerOptions options;
  options.block_size = 10;
  options.clock = [this] { return ++clock_; };
  DatabaseLedger recovered(&txns2, &blocks2, std::move(options));
  ASSERT_TRUE(recovered.RecoverEntry(e1).ok());
  ASSERT_TRUE(recovered.RecoverEntry(e2).ok());  // block 1 -> recloses block 0
  EXPECT_EQ(recovered.closed_block_count(), 1u);
  EXPECT_EQ(recovered.open_block_id(), 1u);

  // The re-closed block 0 hash matches the digest (deterministic closes).
  auto block0 = recovered.FindBlock(0);
  ASSERT_TRUE(block0.ok());
  EXPECT_EQ(block0->ComputeHash(), digest->block_hash);
}

TEST_F(DatabaseLedgerTest, TruncateBelowRemovesOldData) {
  auto ledger_ptr = MakeLedger(2);
  DatabaseLedger& ledger = *ledger_ptr;
  for (uint64_t i = 1; i <= 6; i++)
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
  ASSERT_TRUE(ledger.DrainQueue().ok());
  ASSERT_EQ(ledger.closed_block_count(), 3u);

  auto range = ledger.CollectTxnsBelow(2);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->txn_ids.size(), 4u);
  EXPECT_EQ(range->min_txn_id, 1u);
  EXPECT_EQ(range->max_txn_id, 4u);

  ASSERT_TRUE(ledger.TruncateBelow(2).ok());
  EXPECT_EQ(blocks_.row_count(), 1u);
  EXPECT_TRUE(ledger.FindBlock(0).status().IsNotFound());
  EXPECT_TRUE(ledger.FindBlock(2).ok());
  EXPECT_TRUE(ledger.FindEntry(1).status().IsNotFound());
  EXPECT_TRUE(ledger.FindEntry(5).ok());

  EXPECT_FALSE(ledger.TruncateBelow(99).ok());  // beyond the open block
}

}  // namespace
}  // namespace sqlledger

// Database Ledger tests: slots read from the append position, block
// closing, digest generation, chain verification (fork detection), entry
// persistence, the position checks Append makes for commit and replay,
// truncation, proofs.

#include <gtest/gtest.h>

#include "ledger/database_ledger.h"
#include "util/hex.h"

namespace sqlledger {
namespace {

class DatabaseLedgerTest : public ::testing::Test {
 protected:
  DatabaseLedgerTest()
      : txns_(kLedgerTransactionsTableId, "database_ledger_transactions",
              MakeLedgerTransactionsSchema()),
        blocks_(kLedgerBlocksTableId, "database_ledger_blocks",
                MakeLedgerBlocksSchema()) {}

  /// A ledger over the fixture's system tables, or over `txns`/`blocks`.
  std::unique_ptr<DatabaseLedger> MakeLedger(uint64_t block_size,
                                             TableStore* txns = nullptr,
                                             TableStore* blocks = nullptr) {
    DatabaseLedgerOptions options;
    options.block_size = block_size;
    options.clock = [this] { return ++clock_; };
    return std::make_unique<DatabaseLedger>(
        txns ? txns : &txns_, blocks ? blocks : &blocks_, std::move(options));
  }

  TransactionEntry MakeEntry(DatabaseLedger* ledger, uint64_t txn_id) {
    auto [block, ordinal] = ledger->NextSlots(1)[0];
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

TEST_F(DatabaseLedgerTest, EntryCanonicalBytesGolden) {
  // The leaf preimage of a transaction entry (paper §3.3.1): txn id, block
  // id, ordinal and commit time as fixed64, the length-prefixed user name,
  // then a varint root count and each (fixed32 table id, 32-byte root).
  // Changing these bytes changes every block's transactions root.
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  TransactionEntry entry = MakeEntry(&ledger, 42);
  EXPECT_EQ(HexEncode(Slice(entry.CanonicalBytes())),
            "2a00000000000000"
            "0000000000000000"
            "0000000000000000"
            "0100000000000000"
            "03753432"
            "01"
            "64000000"
            "2a00000000000000000000000000000000000000000000000000000000000000");
  EXPECT_EQ(entry.LeafHash().ToHex(),
            "7746cf63aa06f6b4c3d34c8002e0bfdbfeaf5f4b47bea413e6d37ca5173b2df5");
}

TEST_F(DatabaseLedgerTest, SlotsAreSequential) {
  // The slots after the open block's last entry, rolling over at
  // block_size. Reading them reserves nothing: the answer stays the same
  // until an Append moves the position.
  auto ledger_ptr = MakeLedger(3);
  DatabaseLedger& ledger = *ledger_ptr;
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 1)).ok());
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}};
  EXPECT_EQ(ledger.NextSlots(5), expected);
  EXPECT_EQ(ledger.NextSlots(5), expected);
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 2)).ok());
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 3)).ok());  // closes block 0
  EXPECT_EQ(ledger.NextSlots(1)[0], std::make_pair(uint64_t{1}, uint64_t{0}));
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

TEST_F(DatabaseLedgerTest, AppendWritesTransactionsTable) {
  auto ledger_ptr = MakeLedger(100);
  DatabaseLedger& ledger = *ledger_ptr;
  for (uint64_t i = 1; i <= 4; i++)
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
  EXPECT_EQ(txns_.row_count(), 4u);  // open-block entries included

  auto found = ledger.FindEntry(3);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->user_name, "u3");
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

TEST_F(DatabaseLedgerTest, AppendRefusesDuplicateEntry) {
  // Replay applies each commit record past the checkpoint once, so a txn
  // id already in the ledger means the log is corrupt: refused, whether it
  // repeats its slot or claims the next free one.
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  TransactionEntry entry = MakeEntry(&ledger, 1);
  ASSERT_TRUE(ledger.Append(entry).ok());
  TransactionEntry next_slot = entry;
  next_slot.block_ordinal = 1;
  for (const TransactionEntry& dup : {entry, next_slot}) {
    Status st = ledger.Append(dup);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_EQ(ledger.total_entries(), 1u);
    EXPECT_EQ(ledger.open_block_entry_count(), 1u);
  }
  // Nothing was appended: the next entry takes ordinal 1 as it would have.
  TransactionEntry second = entry;
  second.txn_id = 2;
  second.block_ordinal = 1;
  ASSERT_TRUE(ledger.Append(second).ok());
  EXPECT_EQ(ledger.total_entries(), 2u);
}

TEST_F(DatabaseLedgerTest, AppendRefusesOrdinalGap) {
  // Commit reads its slots from the append position rather than reserving
  // them, so an entry that is not the next position is refused, whether it
  // skips ahead or repeats an ordinal, in the open block or the next one.
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, 1)).ok());
  TransactionEntry entry = MakeEntry(&ledger, 2);  // slot (0, 1)
  for (auto [block, ordinal] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 2}, {0, 0}, {1, 1}}) {
    TransactionEntry forged = entry;
    forged.block_id = block;
    forged.block_ordinal = ordinal;
    Status st = ledger.Append(forged);
    EXPECT_TRUE(st.IsCorruption()) << block << "/" << ordinal << ": "
                                   << st.ToString();
    EXPECT_EQ(ledger.total_entries(), 1u);
    EXPECT_EQ(ledger.closed_block_count(), 0u);
  }
  ASSERT_TRUE(ledger.Append(entry).ok());
  EXPECT_EQ(ledger.open_block_entry_count(), 2u);
}

TEST_F(DatabaseLedgerTest, ReloadedOpenBlockClosesLikeLive) {
  // Committers read the clock before the leader orders them, so the
  // highest ordinal can carry an older commit timestamp.
  auto live = MakeLedger(10);
  for (int64_t ts : {50, 40}) {
    TransactionEntry e = MakeEntry(live.get(), static_cast<uint64_t>(ts));
    e.commit_ts_micros = ts;
    ASSERT_TRUE(live->Append(e).ok());
  }
  TableStore txns2(kLedgerTransactionsTableId, "t",
                   MakeLedgerTransactionsSchema());
  TableStore blocks2(kLedgerBlocksTableId, "b", MakeLedgerBlocksSchema());
  for (BTree::Iterator it = txns_.Scan(); it.Valid(); it.Next())
    ASSERT_TRUE(txns2.Insert(it.value()).ok());
  auto reloaded = MakeLedger(10, &txns2, &blocks2);
  ASSERT_TRUE(reloaded->LoadFromTables().ok());

  auto live_digest = live->GenerateDigest("db", "t0");
  auto reloaded_digest = reloaded->GenerateDigest("db", "t0");
  ASSERT_TRUE(live_digest.ok());
  ASSERT_TRUE(reloaded_digest.ok());
  EXPECT_EQ(live_digest->block_hash, reloaded_digest->block_hash);
  EXPECT_EQ(live_digest->last_commit_ts_micros, 50);
  EXPECT_EQ(reloaded_digest->last_commit_ts_micros, 50);
}

TEST_F(DatabaseLedgerTest, AppendReclosesPriorBlocks) {
  // Entries addressed past the open block imply a digest-time close.
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  TransactionEntry e1 = MakeEntry(&ledger, 1);
  ASSERT_TRUE(ledger.Append(e1).ok());
  auto digest = ledger.GenerateDigest("db", "t0");
  ASSERT_TRUE(digest.ok());
  TransactionEntry e2 = MakeEntry(&ledger, 2);
  ASSERT_TRUE(ledger.Append(e2).ok());

  // Simulate crash recovery on fresh system-table copies (a crash before
  // the first checkpoint): rebuild from empty tables and replay both
  // entries from their WAL commit records.
  TableStore txns2(kLedgerTransactionsTableId, "t",
                   MakeLedgerTransactionsSchema());
  TableStore blocks2(kLedgerBlocksTableId, "b", MakeLedgerBlocksSchema());
  auto recovered_ptr = MakeLedger(10, &txns2, &blocks2);
  DatabaseLedger& recovered = *recovered_ptr;
  ASSERT_TRUE(recovered.Append(e1).ok());
  ASSERT_TRUE(recovered.Append(e2).ok());  // block 1 -> recloses block 0
  EXPECT_EQ(recovered.closed_block_count(), 1u);
  EXPECT_EQ(recovered.open_block_id(), 1u);

  // The re-closed block 0 hash matches the digest (deterministic closes).
  auto block0 = recovered.FindBlock(0);
  ASSERT_TRUE(block0.ok());
  EXPECT_EQ(block0->ComputeHash(), digest->block_hash);
}

TEST_F(DatabaseLedgerTest, AppendRefusesBlockGap) {
  // The live ledger closes at most one block between two consecutive
  // entries, so a replayed entry two blocks past the open block is forged;
  // re-closing up to it would fabricate an empty block.
  auto ledger_ptr = MakeLedger(10);
  DatabaseLedger& ledger = *ledger_ptr;
  TransactionEntry forged = MakeEntry(&ledger, 1);
  forged.block_id = 2;
  forged.block_ordinal = 0;
  Status st = ledger.Append(forged);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(ledger.closed_block_count(), 0u);
  EXPECT_EQ(ledger.open_block_id(), 0u);
  EXPECT_EQ(ledger.total_entries(), 0u);
}

TEST_F(DatabaseLedgerTest, TruncateBelowRemovesOldData) {
  auto ledger_ptr = MakeLedger(2);
  DatabaseLedger& ledger = *ledger_ptr;
  for (uint64_t i = 1; i <= 6; i++)
    ASSERT_TRUE(ledger.Append(MakeEntry(&ledger, i)).ok());
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
  // The live entry count agrees with the table and with a reload.
  EXPECT_EQ(ledger.total_entries(), 2u);
  EXPECT_EQ(ledger.total_entries(), txns_.row_count());
  auto reloaded = MakeLedger(2);
  ASSERT_TRUE(reloaded->LoadFromTables().ok());
  EXPECT_EQ(reloaded->total_entries(), ledger.total_entries());

  EXPECT_FALSE(ledger.TruncateBelow(99).ok());  // beyond the open block
}

}  // namespace
}  // namespace sqlledger

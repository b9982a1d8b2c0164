// Mutation smoke tests: a single-byte corruption must be (a) attributed
// precisely — the right invariant number and the right block — when it hits
// ledger state, and (b) survivable — recovery falls back to the previous
// generation — when it hits a checkpoint file on disk. Complements the
// broader tamper_fuzz_test, which asserts only *that* detection happens.

#include <gtest/gtest.h>

#include <fstream>

#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

// One flipped byte in a committed block's recorded transactions root must
// be pinned to invariant 3 *and* to that exact block, and reverting the
// byte must restore a clean report (the mutation, not some side effect, was
// what the verifier saw).
TEST(MutationSmoke, BlockByteFlipPinpointsInvariantAndBlock) {
  auto db = OpenTestDb(/*block_size=*/4);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  for (int i = 0; i < 12; i++)
    ASSERT_TRUE(InsertOne(db.get(), "t", i, "v" + std::to_string(i)).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  ASSERT_TRUE(db->database_ledger()->DrainQueue().ok());

  const uint64_t victim_block = 1;
  TableStore* blocks = db->database_ledger()->blocks_table_for_testing();
  Row* row = nullptr;
  for (BTree::Iterator it = blocks->Scan(); it.Valid(); it.Next()) {
    if (static_cast<uint64_t>(it.value()[0].AsInt64()) == victim_block) {
      row = blocks->mutable_clustered()->MutableGet(it.key());
      break;
    }
  }
  ASSERT_NE(row, nullptr);

  std::string roots((*row)[2].string_value());  // transactions_root
  ASSERT_FALSE(roots.empty());
  std::vector<uint8_t> bytes(roots.begin(), roots.end());
  bytes[7] ^= 0x01;
  (*row)[2] = Value::Varbinary(bytes);

  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->ok());
  bool pinned = false;
  for (const Violation& v : report->violations) {
    if (v.invariant == 3 &&
        v.message.find("block " + std::to_string(victim_block)) !=
            std::string::npos)
      pinned = true;
    // The corruption sits in one block's root; nothing may be attributed to
    // row data (invariant 4) or indexes (invariant 5).
    EXPECT_LE(v.invariant, 3) << v.message;
  }
  EXPECT_TRUE(pinned) << report->Summary();

  bytes[7] ^= 0x01;
  (*row)[2] = Value::Varbinary(bytes);
  auto clean = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->ok()) << clean->Summary();
}

// One flipped byte in the newest on-disk checkpoint: the CRC must reject
// the generation, recovery must fall back to the retained previous one plus
// the rotated WAL, and the recovered database must be complete and verify.
class CheckpointMutationTest : public TempDirTest {};

TEST_F(CheckpointMutationTest, TornCheckpointFallsBackAndVerifies) {
  LedgerDatabaseOptions options;
  options.data_dir = Path("db");
  options.database_id = "mutdb";
  options.block_size = 4;
  static int64_t clock = 1000000;
  options.clock = [] { return ++clock; };

  DatabaseDigest digest;
  {
    auto db = LedgerDatabase::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(
        (*db)->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
            .ok());
    for (int i = 0; i < 5; i++)
      ASSERT_TRUE(InsertOne(db->get(), "t", i, "first").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());  // generation N-1
    for (int i = 5; i < 9; i++)
      ASSERT_TRUE(InsertOne(db->get(), "t", i, "second").ok());
    auto d = (*db)->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    ASSERT_TRUE((*db)->Checkpoint().ok());  // generation N, about to corrupt
  }

  const std::string path = Path("db") + "/checkpoint.sldb";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.get(byte);
    f.seekp(64);
    f.put(static_cast<char>(byte ^ 0x10));
  }

  auto db = LedgerDatabase::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto txn = (*db)->Begin("app");
  ASSERT_TRUE(txn.ok());
  auto rows = (*db)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
  (*db)->Abort(*txn);

  auto report = VerifyLedger(db->get(), {digest});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace sqlledger

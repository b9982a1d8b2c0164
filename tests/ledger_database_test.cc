// Facade-level unit tests: transaction lifecycle edges, key mapping after
// schema evolution, options validation, and a randomized
// workload -> crash -> recover -> verify round trip.

#include <gtest/gtest.h>

#include "ledger/verifier.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

TEST(LedgerDatabaseTest, CreateTableValidation) {
  auto db = OpenTestDb();
  Schema no_pk;
  no_pk.AddColumn("a", DataType::kInt, true);
  EXPECT_EQ(db->CreateTable("t", no_pk, TableKind::kUpdateable).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->CreateTable("", SimpleUserSchema(),
                            TableKind::kUpdateable)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  EXPECT_EQ(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).code(),
      StatusCode::kAlreadyExists);
  // A ledger table's stamp column names are the ledger's.
  Schema stamp_named = SimpleUserSchema();
  stamp_named.AddColumn(kColEndSeq, DataType::kBigInt, true);
  EXPECT_EQ(db->CreateTable("u", stamp_named, TableKind::kUpdateable).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(db->CreateTable("u", stamp_named, TableKind::kRegular).ok());
}

TEST(LedgerDatabaseTest, CommitOfInactiveTransactionRejected) {
  auto db = OpenTestDb();
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  auto txn = db->Begin("a");
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db->Insert(*txn, "t", {VB(1), VS("x")}).ok());
  ASSERT_TRUE(db->Commit(*txn).ok());
  // The pointer is dead after commit; committing null is also rejected.
  EXPECT_FALSE(db->Commit(nullptr).ok());
}

TEST(LedgerDatabaseTest, ReadOnlyCommitIsCheap) {
  auto db = OpenTestDb();
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  uint64_t entries_before = db->database_ledger()->total_entries();
  auto txn = db->Begin("reader");
  (void)db->Scan(*txn, "t");
  ASSERT_TRUE(db->Commit(*txn).ok());
  EXPECT_EQ(db->database_ledger()->total_entries(), entries_before);
}

TEST(LedgerDatabaseTest, DmlAfterColumnDropMapsKeysCorrectly) {
  // PK mapping from user rows must survive a dropped column that shifts
  // visible positions: table (a, b, key) with PRIMARY KEY (key), drop b.
  auto db = OpenTestDb();
  Schema s;
  s.AddColumn("a", DataType::kVarchar, true, 16);
  s.AddColumn("b", DataType::kInt, true);
  s.AddColumn("k", DataType::kBigInt, false);
  s.SetPrimaryKey({2});
  ASSERT_TRUE(db->CreateTable("t", s, TableKind::kUpdateable).ok());

  auto txn = db->Begin("app");
  ASSERT_TRUE(
      db->Insert(*txn, "t", {VS("one"), Value::Int(1), VB(100)}).ok());
  ASSERT_TRUE(db->Commit(*txn).ok());

  ASSERT_TRUE(db->DropColumn("t", "b").ok());

  // User rows now have two values: (a, k); the key is the SECOND visible
  // column but the THIRD physical one.
  auto txn2 = db->Begin("app");
  ASSERT_TRUE(db->Insert(*txn2, "t", {VS("two"), VB(200)}).ok());
  ASSERT_TRUE(db->Update(*txn2, "t", {VS("two-updated"), VB(200)}).ok());
  auto row = db->Get(*txn2, "t", {VB(200)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].string_value(), "two-updated");
  ASSERT_TRUE(db->Delete(*txn2, "t", {VB(100)}).ok());
  ASSERT_TRUE(db->Commit(*txn2).ok());

  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(LedgerDatabaseTest, SeekFirstRespectsPrefixBoundaries) {
  auto db = OpenTestDb();
  Schema s;
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("b", DataType::kBigInt, false);
  s.AddColumn("v", DataType::kVarchar, true);
  s.SetPrimaryKey({0, 1});
  ASSERT_TRUE(db->CreateTable("t", s, TableKind::kUpdateable).ok());
  auto txn = db->Begin("app");
  ASSERT_TRUE(db->Insert(*txn, "t", {VB(1), VB(5), VS("x")}).ok());
  ASSERT_TRUE(db->Insert(*txn, "t", {VB(3), VB(1), VS("y")}).ok());
  ASSERT_TRUE(db->Commit(*txn).ok());

  auto txn2 = db->Begin("app");
  auto hit = db->SeekFirst(*txn2, "t", {VB(1)});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)[1].AsInt64(), 5);
  // Prefix 2 has no rows; the next row (3,1) must NOT match.
  EXPECT_TRUE(db->SeekFirst(*txn2, "t", {VB(2)}).status().IsNotFound());
  ASSERT_TRUE(db->Commit(*txn2).ok());
}

TEST(LedgerDatabaseTest, DigestRequiresLedger) {
  auto db = OpenTestDb(4, /*enable_ledger=*/false);
  EXPECT_EQ(db->GenerateDigest().status().code(), StatusCode::kNotSupported);
  EXPECT_EQ(db->GetTableOperationsView().status().code(),
            StatusCode::kNotSupported);
}

TEST(LedgerDatabaseTest, AppendOnlyKindPreservedAndRegularForced) {
  auto plain = OpenTestDb(4, /*enable_ledger=*/false);
  ASSERT_TRUE(
      plain->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
          .ok());
  auto ref = plain->GetTableRef("t");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->kind, TableKind::kRegular);  // forced without a ledger
}

// Randomized round trip: arbitrary committed workload + savepoints +
// schema changes, then crash recovery, then full verification.
class WorkloadRoundTrip : public TempDirTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(WorkloadRoundTrip, RecoversAndVerifies) {
  Random rng(static_cast<uint64_t>(GetParam()) * 31337);
  LedgerDatabaseOptions options;
  options.data_dir = Path("db");
  options.database_id = "fuzzdb";
  options.block_size = 8;

  DatabaseDigest digest;
  {
    auto opened = LedgerDatabase::Open(options);
    ASSERT_TRUE(opened.ok());
    auto db = std::move(*opened);
    ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                TableKind::kUpdateable)
                    .ok());
    std::set<int64_t> live;
    bool has_tag = false;
    auto make_row = [&](const std::string& name, int64_t balance) {
      std::vector<Value> row{VS(name), VB(balance)};
      if (has_tag) {
        row.push_back(rng.Bernoulli(0.5)
                          ? Value::Int(static_cast<int32_t>(balance % 7))
                          : Value::Null(DataType::kInt));
      }
      return Row(row);
    };
    for (int op = 0; op < 60; op++) {
      auto txn = db->Begin("fuzz");
      ASSERT_TRUE(txn.ok());
      int64_t id = rng.UniformRange(0, 30);
      std::string name = "acct" + std::to_string(id);
      Status st;
      if (!live.count(id)) {
        st = db->Insert(*txn, "accounts", make_row(name, id));
        if (st.ok()) live.insert(id);
      } else if (rng.Bernoulli(0.6)) {
        st = db->Update(*txn, "accounts",
                        make_row(name, rng.UniformRange(0, 5000)));
      } else {
        st = db->Delete(*txn, "accounts", {VS(name)});
        if (st.ok()) live.erase(id);
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (rng.Bernoulli(0.2)) {
        // Partial rollback exercised mid-stream.
        ASSERT_TRUE(db->Savepoint(*txn, "sp").ok());
        (void)db->Insert(*txn, "accounts", make_row("temp", -1));
        ASSERT_TRUE(db->RollbackToSavepoint(*txn, "sp").ok());
      }
      ASSERT_TRUE(db->Commit(*txn).ok());
      if (op == 30) {
        ASSERT_TRUE(db->AddColumn("accounts", "tag", DataType::kInt).ok());
        has_tag = true;
      }
      if (rng.Bernoulli(0.1)) {
        ASSERT_TRUE(db->GenerateDigest().ok());
      }
    }
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    // Crash: no checkpoint, no clean shutdown.
  }

  auto recovered = LedgerDatabase::Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto report = VerifyLedger(recovered->get(), {digest});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadRoundTrip, ::testing::Range(1, 9));

// OpenTestDb restarts its clock in each test: a test's first database reads
// the same timestamps whichever tests ran before it in this binary, and a
// database opened later in the same test reads later ones.
TEST(TestClockTest, EachTestRestartsTheClock) {
  auto first = OpenTestDb();
  // The first read is the create-time tag, the second the bootstrap commit.
  EXPECT_EQ(first->create_time(), std::to_string(kTestClockStart + 1));
  EXPECT_EQ(first->database_ledger()->last_commit_ts(), kTestClockStart + 2);
  auto second = OpenTestDb();
  EXPECT_GT(std::stoll(second->create_time()),
            first->database_ledger()->last_commit_ts());
}

}  // namespace
}  // namespace sqlledger

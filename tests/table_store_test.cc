// TableStore unit tests: secondary index maintenance across DML, unique
// constraints, index builds on populated tables, and ExtendRows, plus a
// seeded model test over a table keyed by trailing columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "storage/table_store.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

Schema ThreeColSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("name", DataType::kVarchar, true, 32);
  s.AddColumn("score", DataType::kBigInt, true);
  s.SetPrimaryKey({0});
  return s;
}

TEST(TableStoreTest, InsertGetDelete) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.Insert({VB(1), VS("a"), VB(10)}).ok());
  EXPECT_EQ(t.row_count(), 1u);
  const Row* row = t.Get({VB(1)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].string_value(), "a");
  EXPECT_TRUE(t.Delete({VB(1)}).ok());
  EXPECT_EQ(t.Get({VB(1)}), nullptr);
  EXPECT_TRUE(t.Delete({VB(1)}).IsNotFound());
}

TEST(TableStoreTest, ValidatesRows) {
  TableStore t(100, "t", ThreeColSchema());
  EXPECT_FALSE(t.Insert({VB(1), VS("a")}).ok());                    // arity
  EXPECT_FALSE(t.Insert({VS("x"), VS("a"), VB(1)}).ok());           // type
  EXPECT_FALSE(
      t.Insert({Value::Null(DataType::kBigInt), VS("a"), VB(1)}).ok());
  EXPECT_FALSE(
      t.Insert({VB(1), VS(std::string(40, 'x')), VB(1)}).ok());     // length
}

TEST(TableStoreTest, DuplicatePrimaryKeyRejectedAtomically) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("by_score", {2}, false).ok());
  ASSERT_TRUE(t.Insert({VB(1), VS("a"), VB(10)}).ok());
  EXPECT_EQ(t.Insert({VB(1), VS("b"), VB(20)}).code(),
            StatusCode::kAlreadyExists);
  // The failed insert must not have leaked an index entry.
  EXPECT_EQ(t.FindIndex("by_score")->tree.size(), 1u);
}

TEST(TableStoreTest, SecondaryIndexFollowsUpdates) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("by_score", {2}, false).ok());
  ASSERT_TRUE(t.Insert({VB(1), VS("a"), VB(10)}).ok());
  ASSERT_TRUE(t.Insert({VB(2), VS("b"), VB(20)}).ok());

  ASSERT_TRUE(t.Update({VB(1), VS("a"), VB(99)}).ok());
  SecondaryIndex* idx = t.FindIndex("by_score");
  ASSERT_EQ(idx->tree.size(), 2u);
  // First index entry by score should now be 20 (the old 10 is gone).
  BTree::Iterator it = idx->tree.Begin();
  EXPECT_EQ(it.key()[0].AsInt64(), 20);
  it.Next();
  EXPECT_EQ(it.key()[0].AsInt64(), 99);

  ASSERT_TRUE(t.Delete({VB(2)}).ok());
  EXPECT_EQ(idx->tree.size(), 1u);
}

TEST(TableStoreTest, NonUniqueIndexAllowsDuplicateValues) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("by_score", {2}, false).ok());
  ASSERT_TRUE(t.Insert({VB(1), VS("a"), VB(10)}).ok());
  ASSERT_TRUE(t.Insert({VB(2), VS("b"), VB(10)}).ok());
  EXPECT_EQ(t.FindIndex("by_score")->tree.size(), 2u);
}

TEST(TableStoreTest, UniqueIndexEnforced) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("uniq_name", {1}, true).ok());
  ASSERT_TRUE(t.Insert({VB(1), VS("alice"), VB(10)}).ok());
  EXPECT_EQ(t.Insert({VB(2), VS("alice"), VB(20)}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(t.Insert({VB(2), VS("bob"), VB(20)}).ok());
}

// A row that breaks both the primary key and a unique index gets the
// primary-key error: the clustered insert, which finds the duplicate key,
// runs before the unique checks.
TEST(TableStoreTest, IdenticalReinsertGetsPrimaryKeyError) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("uniq_name", {1}, true).ok());
  ASSERT_TRUE(t.Insert({VB(1), VS("alice"), VB(10)}).ok());
  Status st = t.Insert({VB(1), VS("alice"), VB(10)});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(st.message().find("duplicate primary key"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.FindIndex("uniq_name")->tree.size(), 1u);
}

// A unique-only violation takes the just-inserted row back out of the
// clustered tree, here after its insert split a full leaf: no row, index
// entry or count survives it.
TEST(TableStoreTest, UniqueViolationLeavesNoPartialEffects) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("by_score", {2}, false).ok());
  ASSERT_TRUE(t.CreateIndex("uniq_name", {1}, true).ok());
  for (int64_t id = 0; id < 128; id += 2)
    ASSERT_TRUE(t.Insert({VB(id), VS("n" + std::to_string(id)), VB(id)}).ok());
  const size_t leaves = t.mutable_clustered()->LeafCount();
  Status st = t.Insert({VB(63), VS("n8"), VB(99)});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(st.message().find("unique index violation"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(t.row_count(), 64u);
  EXPECT_EQ(t.Get({VB(63)}), nullptr);
  ASSERT_NE(t.Get({VB(8)}), nullptr);
  EXPECT_EQ((*t.Get({VB(8)}))[1].string_value(), "n8");
  EXPECT_EQ(t.FindIndex("by_score")->tree.size(), 64u);
  EXPECT_EQ(t.FindIndex("uniq_name")->tree.size(), 64u);
  // The split is kept; only the row is gone.
  EXPECT_GT(t.mutable_clustered()->LeafCount(), leaves);
  EXPECT_TRUE(t.mutable_clustered()->CheckInvariants().ok());
  // The key is free again.
  ASSERT_TRUE(t.Insert({VB(63), VS("n63"), VB(63)}).ok());
  EXPECT_EQ(t.row_count(), 65u);
}

// An update that moves a row onto another row's unique value fails before
// any mutation: the row and every index entry stay as they were.
TEST(TableStoreTest, UpdateEnforcesUniqueIndex) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("uniq_name", {1}, true).ok());
  ASSERT_TRUE(t.Insert({VB(1), VS("a"), VB(10)}).ok());
  ASSERT_TRUE(t.Insert({VB(2), VS("b"), VB(20)}).ok());
  EXPECT_EQ(t.Update({VB(2), VS("a"), VB(20)}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ((*t.Get({VB(2)}))[1].string_value(), "b");
  const BTree& tree = t.FindIndex("uniq_name")->tree;
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.Contains({VS("a"), VB(1)}));
  EXPECT_TRUE(tree.Contains({VS("b"), VB(2)}));
  // Keeping its own value, or taking a free one, is fine.
  ASSERT_TRUE(t.Update({VB(2), VS("b"), VB(30)}).ok());
  ASSERT_TRUE(t.Update({VB(2), VS("c"), VB(30)}).ok());
  EXPECT_TRUE(tree.Contains({VS("c"), VB(2)}));
  EXPECT_FALSE(tree.Contains({VS("b"), VB(2)}));
}

TEST(TableStoreTest, UniqueIndexBuildFailsOnDuplicates) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.Insert({VB(1), VS("dup"), VB(10)}).ok());
  ASSERT_TRUE(t.Insert({VB(2), VS("dup"), VB(20)}).ok());
  EXPECT_FALSE(t.CreateIndex("uniq_name", {1}, true).ok());
}

TEST(TableStoreTest, IndexBuildOnPopulatedTable) {
  TableStore t(100, "t", ThreeColSchema());
  for (int64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(
        t.Insert({VB(i), VS("n" + std::to_string(i)), VB(i % 7)}).ok());
  }
  ASSERT_TRUE(t.CreateIndex("by_score", {2}, false).ok());
  EXPECT_EQ(t.FindIndex("by_score")->tree.size(), 100u);
  // Entries are ordered by (score, pk).
  int64_t prev_score = -1;
  for (BTree::Iterator it = t.FindIndex("by_score")->tree.Begin(); it.Valid();
       it.Next()) {
    EXPECT_GE(it.key()[0].AsInt64(), prev_score);
    prev_score = it.key()[0].AsInt64();
  }
}

TEST(TableStoreTest, DropIndex) {
  TableStore t(100, "t", ThreeColSchema());
  ASSERT_TRUE(t.CreateIndex("by_score", {2}, false).ok());
  ASSERT_TRUE(t.DropIndex("by_score").ok());
  EXPECT_EQ(t.FindIndex("by_score"), nullptr);
  EXPECT_TRUE(t.DropIndex("by_score").IsNotFound());
}

TEST(TableStoreTest, IndexOrdinalOutOfRangeRejected) {
  TableStore t(100, "t", ThreeColSchema());
  EXPECT_FALSE(t.CreateIndex("bad", {17}, false).ok());
}

TEST(TableStoreTest, ExtendRowsAppendsCell) {
  TableStore t(100, "t", ThreeColSchema());
  for (int64_t i = 0; i < 10; i++)
    ASSERT_TRUE(t.Insert({VB(i), VS("x"), VB(i)}).ok());
  t.mutable_schema()->AddColumn("extra", DataType::kInt, true);
  t.ExtendRows(Value::Null(DataType::kInt));
  for (BTree::Iterator it = t.Scan(); it.Valid(); it.Next()) {
    ASSERT_EQ(it.value().size(), 4u);
    EXPECT_TRUE(it.value()[3].is_null());
  }
  // New inserts with the new arity validate.
  ASSERT_TRUE(t.Insert({VB(100), VS("y"), VB(1), Value::Int(5)}).ok());
}

TEST(TableStoreTest, ScanAndSeek) {
  TableStore t(100, "t", ThreeColSchema());
  for (int64_t i = 0; i < 50; i += 5)
    ASSERT_TRUE(t.Insert({VB(i), VS("x"), VB(i)}).ok());
  BTree::Iterator it = t.Seek({VB(12)});
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt64(), 15);
  size_t count = 0;
  for (BTree::Iterator scan = t.Scan(); scan.Valid(); scan.Next()) count++;
  EXPECT_EQ(count, 10u);
}

// Random DML on a table whose primary key is its trailing (grp, seq)
// columns, as in a history table, with a non-unique index on score. After
// every batch the store must match a std::map model, both trees must pass
// CheckInvariants, and the index must hold exactly the (score, grp, seq)
// tuples of the base rows. SQLLEDGER_TEST_SEED picks the op stream.
TEST(TableStoreTest, RandomDmlMatchesModelWithTrailingKey) {
  uint64_t seed = TestCaseSeed(4242);
  SCOPED_TRACE("seed " + std::to_string(seed));
  Random rng(seed);
  Schema schema;
  schema.AddColumn("name", DataType::kVarchar, true, 32);
  schema.AddColumn("score", DataType::kBigInt, true);
  schema.AddColumn("grp", DataType::kBigInt, false);
  schema.AddColumn("seq", DataType::kBigInt, false);
  schema.SetPrimaryKey({2, 3});
  TableStore t(100, "t", schema);
  ASSERT_TRUE(t.CreateIndex("by_score", {1}, false).ok());
  const SecondaryIndex* idx = t.FindIndex("by_score");

  std::map<std::pair<int64_t, int64_t>, int64_t> model;  // key -> score
  int64_t next_seq[8] = {};
  for (int op = 0; op < 3000; op++) {
    int64_t grp = static_cast<int64_t>(rng.Uniform(8));
    int64_t score = rng.UniformRange(0, 50);
    uint64_t action = rng.Uniform(10);
    if (action < 5) {  // append to a group
      int64_t seq = next_seq[grp]++;
      ASSERT_TRUE(t.Insert({VS("n"), VB(score), VB(grp), VB(seq)}).ok());
      model[{grp, seq}] = score;
    } else {
      int64_t seq = rng.UniformRange(0, next_seq[grp]);
      bool present = model.count({grp, seq}) > 0;
      Status st = action < 8
                      ? t.Update({VS("u"), VB(score), VB(grp), VB(seq)})
                      : t.Delete({VB(grp), VB(seq)});
      EXPECT_EQ(st.ok(), present) << st.ToString();
      if (present && action < 8) model[{grp, seq}] = score;
      if (present && action >= 8) model.erase({grp, seq});
    }
    if (op % 100 != 99) continue;
    ASSERT_TRUE(t.mutable_clustered()->CheckInvariants().ok());
    ASSERT_TRUE(idx->tree.CheckInvariants().ok());
    ASSERT_EQ(t.row_count(), model.size());
    std::vector<KeyTuple> expected_index;
    auto mit = model.begin();
    for (BTree::Iterator it = t.Scan(); it.Valid(); it.Next(), ++mit) {
      ASSERT_EQ(it.key(), (KeyTuple{VB(mit->first.first),
                                    VB(mit->first.second)}));
      ASSERT_EQ(it.value()[1].AsInt64(), mit->second);
      expected_index.push_back({VB(mit->second), VB(mit->first.first),
                                VB(mit->first.second)});
    }
    std::sort(expected_index.begin(), expected_index.end(), KeyTupleLess());
    std::vector<KeyTuple> index;
    for (BTree::Iterator it = idx->tree.Begin(); it.Valid(); it.Next())
      index.push_back(it.value());
    ASSERT_EQ(index, expected_index);
    // A prefix seek lands on the group's first live row.
    auto first = model.lower_bound({grp, INT64_MIN});
    std::optional<Row> row = t.SeekFirstCopy({VB(grp)});
    bool group_live = first != model.end() && first->first.first == grp;
    ASSERT_EQ(row.has_value(), group_live);
    if (row) {
      EXPECT_EQ((*row)[3].AsInt64(), first->first.second);
    }
  }
}

}  // namespace
}  // namespace sqlledger

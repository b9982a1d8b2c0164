// B+-tree tests, including randomized property tests against std::map as
// the model.

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "storage/btree.h"
#include "test_util.h"
#include "util/random.h"

namespace sqlledger {
namespace {

KeyTuple K(int64_t v) { return {Value::BigInt(v)}; }
/// An entry keyed by its leading column `k`, carrying payload `v`.
Row R(int64_t k, int64_t v) {
  return {Value::BigInt(k), Value::BigInt(v), Value::Varchar("v")};
}

TEST(BTreeTest, EmptyTree) {
  BTree tree({0}, 8);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Get(K(1)), nullptr);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.LeafCount(), 1u);
}

TEST(BTreeTest, InsertGetDelete) {
  BTree tree({0}, 8);
  ASSERT_TRUE(tree.Insert(R(1, 10)).ok());
  ASSERT_TRUE(tree.Insert(R(2, 20)).ok());
  EXPECT_EQ(tree.size(), 2u);
  ASSERT_NE(tree.Get(K(1)), nullptr);
  EXPECT_EQ((*tree.Get(K(2)))[1].AsInt64(), 20);
  EXPECT_TRUE(tree.Delete(K(1)).ok());
  EXPECT_EQ(tree.Get(K(1)), nullptr);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, DuplicateInsertFails) {
  BTree tree({0}, 8);
  ASSERT_TRUE(tree.Insert(R(1, 10)).ok());
  EXPECT_EQ(tree.Insert(R(1, 11)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ((*tree.Get(K(1)))[1].AsInt64(), 10);
}

TEST(BTreeTest, UpsertOverwrites) {
  BTree tree({0}, 8);
  tree.Upsert(R(1, 10));
  tree.Upsert(R(1, 11));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ((*tree.Get(K(1)))[1].AsInt64(), 11);
}

TEST(BTreeTest, UpdateRequiresExisting) {
  BTree tree({0}, 8);
  EXPECT_TRUE(tree.Update(R(1, 10)).IsNotFound());
  tree.Upsert(R(1, 10));
  EXPECT_TRUE(tree.Update(R(1, 99)).ok());
  EXPECT_EQ((*tree.Get(K(1)))[1].AsInt64(), 99);
}

TEST(BTreeTest, DeleteMissingFails) {
  BTree tree({0}, 8);
  EXPECT_TRUE(tree.Delete(K(1)).IsNotFound());
}

TEST(BTreeTest, OrderedIterationAcrossSplits) {
  BTree tree({0}, 4);  // small fanout forces deep trees
  for (int64_t i = 999; i >= 0; i--) ASSERT_TRUE(tree.Insert(R(i, i)).ok());
  int64_t expected = 0;
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key()[0].AsInt64(), expected);
    EXPECT_EQ(it.value()[1].AsInt64(), expected);
    expected++;
  }
  EXPECT_EQ(expected, 1000);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, SeekFindsFirstAtOrAfter) {
  BTree tree({0}, 4);
  for (int64_t i = 0; i < 100; i += 10) ASSERT_TRUE(tree.Insert(R(i, i)).ok());
  BTree::Iterator it = tree.Seek(K(35));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt64(), 40);
  it = tree.Seek(K(40));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt64(), 40);
  it = tree.Seek(K(91));
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, MutableGetEditsInPlace) {
  BTree tree({0}, 4);
  tree.Upsert(R(1, 10));
  Row* row = tree.MutableGet(K(1));
  ASSERT_NE(row, nullptr);
  *row = row->Extended(Value::Int(7));
  EXPECT_EQ(tree.Get(K(1))->size(), 4u);
  EXPECT_EQ(tree.MutableGet(K(99)), nullptr);
}

TEST(BTreeTest, KeyColumnEditMovesKeyAndBreaksOrder) {
  // MutableGet's contract: the key is read from the row, so rewriting a key
  // cell moves the entry's key where it stands.
  BTree tree({0}, 4);
  for (int64_t i = 0; i < 200; i++) ASSERT_TRUE(tree.Insert(R(i, i)).ok());
  Row* row = tree.MutableGet(K(10));
  ASSERT_NE(row, nullptr);
  (*row)[0] = Value::BigInt(1000);
  EXPECT_EQ(tree.Get(K(10)), nullptr);
  EXPECT_FALSE(tree.CheckInvariants().ok());
  (*row)[0] = Value::BigInt(10);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, ForEachVisitsEveryEntryInOrder) {
  BTree tree({0}, 4);
  for (int64_t i = 0; i < 100; i++) ASSERT_TRUE(tree.Insert(R(i, i)).ok());
  int64_t expected = 0;
  tree.ForEach([&](Row* row) {
    EXPECT_EQ((*row)[0].AsInt64(), expected++);
    *row = row->Extended(Value::Int(1));
  });
  EXPECT_EQ(expected, 100);
  EXPECT_EQ(tree.Get(K(42))->size(), 4u);
}

TEST(BTreeTest, CompositeKeysOrderLexicographically) {
  BTree tree({0, 1}, 4);
  for (int64_t a = 0; a < 5; a++) {
    for (int64_t b = 0; b < 5; b++)
      ASSERT_TRUE(tree.Insert({Value::BigInt(a), Value::BigInt(b)}).ok());
  }
  BTree::Iterator it = tree.Seek({Value::BigInt(2)});
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt64(), 2);
  EXPECT_EQ(it.key()[1].AsInt64(), 0);
}

TEST(BTreeTest, TrailingKeyOrdinals) {
  // Keyed by (col 2, col 1): entries order by those cells, not by col 0.
  BTree tree({2, 1}, 4);
  for (int64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(tree.Insert({Value::BigInt(-i), Value::BigInt(i % 7),
                             Value::BigInt(i / 7)})
                    .ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const Row* row = tree.Get({Value::BigInt(3), Value::BigInt(2)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[0].AsInt64(), -23);
  BTree::Iterator it = tree.Seek({Value::BigInt(4)});
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), (KeyTuple{Value::BigInt(4), Value::BigInt(0)}));
}

TEST(BTreeTest, DrainToEmptyAndRefill) {
  BTree tree({0}, 4);
  for (int64_t i = 0; i < 200; i++) ASSERT_TRUE(tree.Insert(R(i, i)).ok());
  for (int64_t i = 0; i < 200; i++) ASSERT_TRUE(tree.Delete(K(i)).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  for (int64_t i = 0; i < 50; i++) ASSERT_TRUE(tree.Insert(R(i, i)).ok());
  EXPECT_EQ(tree.size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// Fill: sequential overflows split just right of the new entry, so
// ascending appends leave every leaf but the last full.
TEST(BTreeFillTest, AscendingInsertsFillLeaves) {
  for (size_t n : {1u, 64u, 65u, 1000u, 20000u}) {
    BTree tree({0}, 64);
    for (size_t i = 0; i < n; i++)
      ASSERT_TRUE(tree.Insert(R(static_cast<int64_t>(i), 0)).ok());
    EXPECT_EQ(tree.LeafCount(), (n + 63) / 64) << "n=" << n;
    EXPECT_TRUE(tree.CheckInvariants().ok());
  }
}

TEST(BTreeFillTest, InterleavedAscendingGroupsFillLeaves) {
  // The orders/order_line pattern: 160 groups, each appending ascending
  // sequence numbers, interleaved round-robin. Group tails fill densely;
  // the slack is the early entries of each group, frozen in part-full
  // leaves when its neighbour's tail splits away (about 1.25 leaves per
  // group at this size), so it is bounded per group, not per entry.
  constexpr int64_t kGroups = 160, kPerGroup = 1250;
  BTree tree({0, 1}, 64);
  for (int64_t seq = 0; seq < kPerGroup; seq++) {
    for (int64_t g = 0; g < kGroups; g++)
      ASSERT_TRUE(tree.Insert({Value::BigInt(g), Value::BigInt(seq)}).ok());
  }
  size_t n = static_cast<size_t>(kGroups * kPerGroup);
  EXPECT_LE(tree.LeafCount(), (n + 63) / 64 + 2 * kGroups);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// Property test: interleaved inserts, upserts, deletes and lookups over one
// key stream and one key layout, compared against std::map.
enum class Stream { kRandom, kAscending, kDescending, kGrouped };
enum class Layout { kLeading, kTrailing, kWhole };

class BTreeFuzz
    : public ::testing::TestWithParam<std::tuple<int, int, Stream, Layout>> {};

TEST_P(BTreeFuzz, MatchesModel) {
  auto [seed, fanout, stream, layout] = GetParam();
  // The default SQLLEDGER_TEST_SEED (1) keeps the listed seeds.
  uint64_t case_seed = static_cast<uint64_t>(seed) + (TestSeed() - 1) * 1000;
  SCOPED_TRACE("case seed " + std::to_string(case_seed));
  Random rng(case_seed);
  using Key = std::pair<int64_t, int64_t>;
  std::vector<size_t> ordinals;  // kWhole: the entry is its own key
  if (layout == Layout::kLeading) ordinals = {0, 1};
  if (layout == Layout::kTrailing) ordinals = {2, 3};
  BTree tree(ordinals, static_cast<size_t>(fanout));
  std::map<Key, int64_t> model;

  auto key_tuple = [](const Key& k) {
    return KeyTuple{Value::BigInt(k.first), Value::BigInt(k.second)};
  };
  // The whole-entry layout has no payload: the entry is its key.
  auto entry = [&](const Key& k, int64_t payload) -> Row {
    Value a = Value::BigInt(k.first), b = Value::BigInt(k.second);
    switch (layout) {
      case Layout::kLeading:
        return {a, b, Value::BigInt(payload), Value::Varchar("v")};
      case Layout::kTrailing:  // like a history row's (end_txn, end_seq)
        return {Value::BigInt(payload), Value::Varchar("v"), a, b};
      case Layout::kWhole:
        return {a, b};
    }
    return {};
  };
  auto payload_of = [&](const Row& row) -> int64_t {
    return layout == Layout::kLeading    ? row[2].AsInt64()
           : layout == Layout::kTrailing ? row[0].AsInt64()
                                         : 0;
  };

  constexpr int64_t kGroups = 16;
  int64_t issued = 0;
  int64_t group_next[kGroups] = {};
  // A fresh key of the stream, or (for deletes and lookups) a key the
  // stream has already issued.
  auto next_key = [&](bool fresh) -> Key {
    switch (stream) {
      case Stream::kRandom:
        return {0, rng.UniformRange(0, 400)};
      case Stream::kAscending:
        return {0, fresh ? issued++ : rng.UniformRange(0, issued)};
      case Stream::kDescending:
        return {0, -(fresh ? issued++ : rng.UniformRange(0, issued))};
      case Stream::kGrouped: {
        int64_t g = static_cast<int64_t>(rng.Uniform(kGroups));
        return {g,
                fresh ? group_next[g]++ : rng.UniformRange(0, group_next[g])};
      }
    }
    return {};
  };

  for (int op = 0; op < 5000; op++) {
    uint64_t action = rng.Uniform(10);
    Key key = next_key(/*fresh=*/action < 6);
    int64_t payload = rng.UniformRange(0, 1000000);
    if (layout == Layout::kWhole) payload = 0;
    if (action < 5) {
      Status st = tree.Insert(entry(key, payload));
      if (model.count(key)) {
        EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
      } else {
        EXPECT_TRUE(st.ok());
        model[key] = payload;
      }
    } else if (action < 6) {
      tree.Upsert(entry(key, payload));
      model[key] = payload;
    } else if (action < 8) {
      Status st = tree.Delete(key_tuple(key));
      if (model.erase(key)) {
        EXPECT_TRUE(st.ok());
      } else {
        EXPECT_TRUE(st.IsNotFound());
      }
    } else {
      const Row* row = tree.Get(key_tuple(key));
      if (model.count(key)) {
        ASSERT_NE(row, nullptr);
        EXPECT_EQ(payload_of(*row), model[key]);
        EXPECT_EQ(tree.KeyOf(*row), key_tuple(key));
      } else {
        EXPECT_EQ(row, nullptr);
      }
    }
    if (op % 100 == 99) {
      Status inv = tree.CheckInvariants();
      ASSERT_TRUE(inv.ok()) << "op " << op << ": " << inv.ToString();
    }
  }

  EXPECT_EQ(tree.size(), model.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  auto mit = model.begin();
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), key_tuple(mit->first));
    EXPECT_EQ(payload_of(it.value()), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsFanoutsStreamsLayouts, BTreeFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(4, 8, 64),
                       ::testing::Values(Stream::kRandom, Stream::kAscending,
                                         Stream::kDescending,
                                         Stream::kGrouped),
                       ::testing::Values(Layout::kLeading, Layout::kTrailing,
                                         Layout::kWhole)));

}  // namespace
}  // namespace sqlledger

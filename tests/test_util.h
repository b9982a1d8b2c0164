// Shared test helpers: temp directories and canned databases/schemas.

#ifndef SQLLEDGER_TESTS_TEST_UTIL_H_
#define SQLLEDGER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "ledger/ledger_database.h"

namespace sqlledger {

/// Base seed for every randomized test. Defaults to 1 so CI is reproducible;
/// set the SQLLEDGER_TEST_SEED environment variable to replay a nightly
/// failure or to explore a different deterministic region. Tests that draw
/// randomness must mix this in and print it on failure, so the one-line
/// reproduction is always `SQLLEDGER_TEST_SEED=<n> ./the_test`.
inline uint64_t TestSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("SQLLEDGER_TEST_SEED");
    if (env != nullptr && *env != '\0')
      return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
    return static_cast<uint64_t>(1);
  }();
  return seed;
}

/// Derives the per-case seed from the suite-wide base and a case index.
/// SplitMix64-style mixing so adjacent indices land far apart.
inline uint64_t TestCaseSeed(uint64_t index) {
  uint64_t z = TestSeed() * 0x9E3779B97F4A7C15ULL + index;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// gtest fixture providing a per-test temp directory.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("sqlledger_" + std::to_string(::getpid()) + "_" +
            std::string(info->test_suite_name()) + "_" +
            std::string(info->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    // Digest blobs are written read-only; restore write permission first.
    for (auto it = std::filesystem::recursive_directory_iterator(
             dir_, std::filesystem::directory_options::skip_permission_denied,
             ec);
         it != std::filesystem::recursive_directory_iterator(); ++it) {
      std::filesystem::permissions(it->path(),
                                   std::filesystem::perms::owner_all,
                                   std::filesystem::perm_options::add, ec);
    }
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

/// A two-column user schema: (id BIGINT PK, payload VARCHAR).
inline Schema SimpleUserSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, true);
  s.SetPrimaryKey({0});
  return s;
}

/// The Figure 2 schema: (name VARCHAR PK, balance BIGINT).
inline Schema AccountSchema() {
  Schema s;
  s.AddColumn("name", DataType::kVarchar, false, 32);
  s.AddColumn("balance", DataType::kBigInt, false);
  s.SetPrimaryKey({0});
  return s;
}

/// Opens an ephemeral (in-memory) database with a deterministic clock and a
/// small block size suited to tests.
inline std::unique_ptr<LedgerDatabase> OpenTestDb(uint64_t block_size = 4,
                                                  bool enable_ledger = true) {
  LedgerDatabaseOptions options;
  options.enable_ledger = enable_ledger;
  options.block_size = block_size;
  options.database_id = "testdb";
  // Atomic: the clock is called from committers, digest uploaders and
  // verifier threads concurrently.
  static std::atomic<int64_t> fake_clock{1000000};
  options.clock = [] { return ++fake_clock; };
  auto db = LedgerDatabase::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

/// Current value of the registry counter `name` (DESIGN.md §13). 0 when no
/// subsystem registered it, e.g. wal.syncs_total on an ephemeral database.
inline uint64_t CounterValue(const LedgerDatabase* db,
                             const std::string& name) {
  MetricsSnapshot snapshot = db->MetricsSnapshot();
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Runs one committed transaction inserting (id, payload) into `table`.
inline Status InsertOne(LedgerDatabase* db, const std::string& table,
                        int64_t id, const std::string& payload,
                        uint64_t* txn_id_out = nullptr) {
  auto txn = db->Begin("tester");
  if (!txn.ok()) return txn.status();
  if (txn_id_out != nullptr) *txn_id_out = (*txn)->id();
  Status st =
      db->Insert(*txn, table, {Value::BigInt(id), Value::Varchar(payload)});
  if (!st.ok()) {
    db->Abort(*txn);
    return st;
  }
  return db->Commit(*txn);
}

}  // namespace sqlledger

#endif  // SQLLEDGER_TESTS_TEST_UTIL_H_

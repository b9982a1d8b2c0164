// Durability and recovery tests: reopen after clean shutdown, crash
// recovery from checkpoint + WAL tail (paper §3.3.2), digest stability
// across recovery, point-in-time-restore incarnations (paper §3.6), and
// replay rebuilding the history rows and table roots that commit records do
// not log.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <functional>
#include <limits>
#include <map>

#include "ledger/digest_store.h"
#include "ledger/verifier.h"
#include "storage/checkpoint.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/hex.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class RecoveryTest : public TempDirTest {
 protected:
  LedgerDatabaseOptions MakeOptions(const std::string& subdir = "db") {
    LedgerDatabaseOptions options;
    options.data_dir = Path(subdir);
    options.database_id = "recoverydb";
    options.block_size = 4;
    options.clock = [this] { return ++clock_; };
    return options;
  }

  std::unique_ptr<LedgerDatabase> Open(const std::string& subdir = "db") {
    auto db = LedgerDatabase::Open(MakeOptions(subdir));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  /// Every file of the data directory `subdir` by name, with its bytes.
  std::map<std::string, std::string> ReadDir(const std::string& subdir = "db") {
    std::map<std::string, std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(Path(subdir))) {
      std::ifstream in(e.path(), std::ios::binary);
      files[e.path().filename().string()] =
          std::string((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    }
    return files;
  }

  /// Flips one byte inside the newest checkpoint, so Open falls back to the
  /// previous generation.
  void TearNewestCheckpoint(const std::string& subdir = "db") {
    std::fstream f(Path(subdir) + "/checkpoint.sldb",
                   std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(30);
    f.get(byte);
    f.seekp(30);
    f.put(static_cast<char>(byte ^ 0xFF));
  }

  int64_t clock_ = 1000000;
};

TEST_F(RecoveryTest, ReopenAfterCheckpointRestoresEverything) {
  DatabaseDigest digest;
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 6; i++) {
      auto txn = db->Begin("app");
      ASSERT_TRUE(db->Insert(*txn, "accounts",
                             {VS("acct" + std::to_string(i)), VB(i)})
                      .ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "accounts");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);
  ASSERT_TRUE(db->Commit(*txn).ok());

  // The pre-restart digest still verifies against the recovered state.
  auto report = VerifyLedger(db.get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(RecoveryTest, CrashRecoveryReplaysWalTail) {
  DatabaseDigest digest;
  uint64_t committed;
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                TableKind::kUpdateable)
                    .ok());
    // Open checkpoints; everything after, the CreateTable included, lives
    // only in the WAL.
    for (int i = 0; i < 9; i++) {
      auto txn = db->Begin("app");
      ASSERT_TRUE(db->Insert(*txn, "accounts",
                             {VS("acct" + std::to_string(i)), VB(i)})
                      .ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    auto txn = db->Begin("app");
    ASSERT_TRUE(db->Update(*txn, "accounts", {VS("acct0"), VB(100)}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    committed = db->committed_txn_count();
    // NO checkpoint, no clean shutdown: destructor simulates the crash
    // (state is only in Open's checkpoint + WAL).
  }

  auto db = Open();
  EXPECT_EQ(db->committed_txn_count(), committed);
  auto txn = db->Begin("app");
  auto row = db->Get(*txn, "accounts", {VS("acct0")});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt64(), 100);
  auto rows = db->Scan(*txn, "accounts");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
  ASSERT_TRUE(db->Commit(*txn).ok());

  // History survived too.
  auto ref = db->GetTableRef("accounts");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->history->row_count(), 1u);

  // The digest issued before the crash verifies after recovery — block
  // closes are replayed deterministically.
  auto report = VerifyLedger(db.get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// A reopened database appends to the log it replayed. Its first commit
// record starts a header chain of its own, so the log, written by two
// writers, replays whole: after a second reopen every row of both is
// present and the ledger verifies.
TEST_F(RecoveryTest, ReopenedWriterStartsAHeaderChain) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 5; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "first").ok());
  }
  // The indexes of the log's commit records that start a header chain;
  // `records` counts them all.
  auto chain_starts = [&](size_t* records) {
    std::vector<size_t> starts;
    WalHeaderChain chain;
    WalRecordLayout layout;
    *records = 0;
    auto scan = ReadFrameLog(Env::Default(), Path("db") + "/wal.log",
                             [&](Slice payload) {
      EXPECT_EQ(payload[0], kWalKindCommit);
      auto rec = WalCommitRecord::Decode(
          Slice(payload.data() + 1, payload.size() - 1), &chain, &layout);
      if (!rec.ok()) return rec.status();
      if (layout.chain_start) starts.push_back(*records);
      ++*records;
      return Status::OK();
    });
    EXPECT_TRUE(scan.ok()) << scan.status().ToString();
    return starts;
  };
  size_t first_writer_records = 0, records = 0;
  EXPECT_EQ(chain_starts(&first_writer_records), std::vector<size_t>{0});
  ASSERT_GT(first_writer_records, 5u);
  {
    auto db = Open();
    for (int i = 5; i < 8; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "second").ok());
  }
  EXPECT_EQ(chain_starts(&records),
            (std::vector<size_t>{0, first_writer_records}));
  EXPECT_EQ(records, first_writer_records + 3);

  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 8u);
  for (int i = 0; i < 8; i++)
    EXPECT_EQ((*rows)[i][1].string_value(), i < 5 ? "first" : "second") << i;
  ASSERT_TRUE(db->Commit(*txn).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// Doubles at every edge of the row codec's two forms come back bit for bit
// through WAL replay (an insert record, then an update record that moves
// each row to the next value, so tuples are written whole and in states
// 1 and 3) and through a checkpoint, and the ledger still verifies: ±0.0,
// a NaN with a payload, ±inf, the smallest denormal, DBL_MAX, amounts of
// whole cents, 0.1 + 0.2, 0.001 and the doubles of k = ±2^53 and
// ±(2^53 + 1).
TEST_F(RecoveryTest, DoublesRoundTripBitForBit) {
  const std::vector<double> doubles = {
      0.0, -0.0, std::bit_cast<double>(0x7ff80000deadbeefULL),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), 12.34, -0.07, 0.1 + 0.2, 0.001,
      90071992547409.92, -90071992547409.92, 90071992547409.93,
      -90071992547409.93, 1.5};
  const size_t n = doubles.size();
  Schema schema;
  schema.AddColumn("id", DataType::kBigInt, false);
  schema.AddColumn("amount", DataType::kDouble, true);
  schema.SetPrimaryKey({0});
  auto amounts = [&](LedgerDatabase* db) {
    std::vector<uint64_t> bits;
    auto txn = db->Begin("app");
    auto rows = db->Scan(*txn, "t");
    EXPECT_TRUE(rows.ok());
    if (rows.ok()) {
      for (const Row& row : *rows)
        bits.push_back(std::bit_cast<uint64_t>(row[1].double_value()));
    }
    EXPECT_TRUE(db->Commit(*txn).ok());
    return bits;
  };
  std::vector<uint64_t> want;
  for (size_t i = 0; i < n; i++)
    want.push_back(std::bit_cast<uint64_t>(doubles[(i + 1) % n]));
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("t", schema, TableKind::kUpdateable).ok());
    auto txn = db->Begin("app");
    for (size_t i = 0; i < n; i++) {
      ASSERT_TRUE(db->Insert(*txn, "t",
                             {Value::BigInt(static_cast<int64_t>(i)),
                              Value::Double(doubles[i])})
                      .ok());
    }
    ASSERT_TRUE(db->Commit(*txn).ok());
    txn = db->Begin("app");
    for (size_t i = 0; i < n; i++) {
      ASSERT_TRUE(db->Update(*txn, "t",
                             {Value::BigInt(static_cast<int64_t>(i)),
                              Value::Double(doubles[(i + 1) % n])})
                      .ok());
    }
    ASSERT_TRUE(db->Commit(*txn).ok());
    EXPECT_EQ(amounts(db.get()), want);
  }
  {
    auto db = Open();  // WAL replay
    EXPECT_EQ(amounts(db.get()), want);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = Open();  // the checkpoint
  EXPECT_EQ(amounts(db.get()), want);
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(RecoveryTest, RecoveryAfterCheckpointPlusMoreTraffic) {
  DatabaseDigest d1;
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("t", SimpleUserSchema(),
                                TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 5; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "pre").ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    d1 = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 5; i < 11; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "post").ok());
    // crash
  }
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 11u);
  ASSERT_TRUE(db->Commit(*txn).ok());

  auto d2 = db->GenerateDigest();
  ASSERT_TRUE(d2.ok());
  auto report = VerifyLedger(db.get(), {d1, *d2});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The chain across the crash is intact.
  auto derivable = db->database_ledger()->VerifyDigestChain(d1, *d2);
  ASSERT_TRUE(derivable.ok());
  EXPECT_TRUE(*derivable);
}

// A crash can leave a file's new length on disk before its data, so the
// WAL ends in zeros. An all-zero header passes the CRC of zero bytes; it
// must end replay like a torn tail, not fail Open, and be truncated away.
TEST_F(RecoveryTest, ZeroFilledWalTailIsTruncated) {
  LedgerDatabaseOptions options = MakeOptions();
  options.sync_wal = true;
  {
    auto db = LedgerDatabase::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                   TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 3; i++)
      ASSERT_TRUE(InsertOne(db->get(), "t", i, "pre").ok());
  }
  const std::string wal = Path("db/wal.log");
  const uint64_t intact = std::filesystem::file_size(wal);
  std::ofstream(wal, std::ios::binary | std::ios::app)
      << std::string(4096, '\0');
  auto db = LedgerDatabase::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(std::filesystem::file_size(wal), intact);
  auto txn = (*db)->Begin("app");
  auto rows = (*db)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

TEST_F(RecoveryTest, TransactionIdsResumeAfterRecovery) {
  uint64_t last_txn_id;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x", &last_txn_id).ok());
  }
  auto db = Open();
  auto txn = db->Begin("app");
  ASSERT_TRUE(txn.ok());
  EXPECT_GT((*txn)->id(), last_txn_id);
  db->Abort(*txn);
}

TEST_F(RecoveryTest, BaselineModeRecoversWithoutLedger) {
  // A ledger-disabled (baseline) database still gets WAL durability.
  {
    LedgerDatabaseOptions options = MakeOptions();
    options.enable_ledger = false;
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                   TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 5; i++)
      ASSERT_TRUE(InsertOne(db->get(), "t", i, "x").ok());
    // crash
  }
  LedgerDatabaseOptions options = MakeOptions();
  options.enable_ledger = false;
  auto db = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto txn = (*db)->Begin("app");
  auto rows = (*db)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

TEST_F(RecoveryTest, MismatchedLedgerModeRejected) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  }
  LedgerDatabaseOptions options = MakeOptions();
  options.enable_ledger = false;
  EXPECT_FALSE(LedgerDatabase::Open(std::move(options)).ok());
}

TEST_F(RecoveryTest, RestoreHelperCreatesNewIncarnation) {
  std::string original_create_time;
  DatabaseDigest digest;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 4; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "v").ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
    original_create_time = db->create_time();
  }

  auto restored = LedgerDatabase::Restore(Path("db"), MakeOptions("pitr"));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_NE((*restored)->create_time(), original_create_time);
  // Restored state holds the data and verifies against the old digest.
  auto txn = (*restored)->Begin("app");
  auto rows = (*restored)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  ASSERT_TRUE((*restored)->Commit(*txn).ok());
  auto report = VerifyLedger(restored->get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  // Guard rails.
  EXPECT_FALSE(LedgerDatabase::Restore(Path("db"), MakeOptions("db")).ok());
  EXPECT_TRUE(LedgerDatabase::Restore(Path("nonexistent"),
                                      MakeOptions("pitr2"))
                  .status()
                  .IsNotFound());
}

TEST_F(RecoveryTest, RestoreCreatesNewIncarnation) {
  std::string original_create_time;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    original_create_time = db->create_time();
  }
  // A point-in-time restore opens the copy as a new incarnation.
  auto restored = LedgerDatabase::Restore(Path("db"), MakeOptions("restored"));
  ASSERT_TRUE(restored.ok());
  EXPECT_NE((*restored)->create_time(), original_create_time);

  // Digests of both incarnations coexist in the store.
  InMemoryDigestStore store;
  auto reopened = Open();
  auto d_orig = reopened->GenerateDigest();
  ASSERT_TRUE(d_orig.ok());
  ASSERT_TRUE(store.Upload(*d_orig).ok());
  auto d_restored = (*restored)->GenerateDigest();
  ASSERT_TRUE(d_restored.ok());
  ASSERT_TRUE(store.Upload(*d_restored).ok());
  EXPECT_EQ(store.ListAll()->size(), 2u);
  EXPECT_NE(d_orig->database_create_time, d_restored->database_create_time);
}

TEST_F(RecoveryTest, LeftoverCheckpointTempFileIsIgnored) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // A crash mid-checkpoint leaves a partially written temp file; recovery
  // must load the intact previous checkpoint.
  {
    std::ofstream garbage(Path("db") + "/checkpoint.sldb.tmp");
    garbage << "half-written nonsense";
  }
  auto db = Open();
  auto txn = db->Begin("app");
  EXPECT_TRUE(db->Get(*txn, "t", {Value::BigInt(1)}).ok());
  ASSERT_TRUE(db->Commit(*txn).ok());
}

TEST_F(RecoveryTest, TornNewestCheckpointFallsBackToPreviousGeneration) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 3; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "gen1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // superseded -> checkpoint.sldb.prev
    for (int i = 3; i < 6; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "gen2").ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // the generation we corrupt
    for (int i = 6; i < 8; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "tail").ok());
    // crash
  }
  // Storage rot tears the newest checkpoint. Recovery must fall back to the
  // previous generation and reach the same state by replaying the rotated
  // WAL plus the live tail.
  TearNewestCheckpoint();
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 8u);
  ASSERT_TRUE(db->Commit(*txn).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// With sync_wal off, a commit's record is not fsynced when it returns, but
// a checkpoint makes it durable: the checkpoint syncs the log before it
// rotates it to wal.log.prev, so the fallback generation (the previous
// checkpoint plus wal.log.prev) holds every commit the new checkpoint
// holds. A power loss right after the checkpoint, then a torn newest
// checkpoint, loses none of them.
TEST_F(RecoveryTest, UnsyncedWalFallbackKeepsCheckpointedCommits) {
  FaultInjectionEnv env;
  {
    LedgerDatabaseOptions options = MakeOptions();
    options.env = &env;
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                   TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 20; i++)
      ASSERT_TRUE(InsertOne(db->get(), "t", i, "unsynced").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    env.SimulateCrash();
  }
  TearNewestCheckpoint();
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);
  ASSERT_TRUE(db->Commit(*txn).ok());
}

TEST_F(RecoveryTest, MissingNewestCheckpointFallsBackToPreviousGeneration) {
  // The crash window between WriteCheckpoint's two renames leaves only the
  // ".prev" generation on disk. That must still open and recover.
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 4; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::filesystem::rename(Path("db") + "/checkpoint.sldb",
                          Path("db") + "/checkpoint.sldb.prev");
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  ASSERT_TRUE(db->Commit(*txn).ok());
}

// A checkpoint of a retired format, SLCKPT01 (fixed-width cells), SLCKPT02
// (rows without predecessors), SLCKPT03 (store definitions beside their
// rows), SLCKPT04 (repeat bitmaps, changed cells written whole), SLCKPT05
// (fixed32 table ids in table roots) or SLCKPT06 (every DOUBLE stored as 8
// raw bytes), is not torn: it is refused as NotSupported, naming the
// format, and recovery neither falls back to a readable ".prev" beside it
// nor replays or truncates the WAL. Covered: the newest generation retired
// with a good ".prev", the newest retired alone, and only a retired
// ".prev".
TEST_F(RecoveryTest, RetiredCheckpointFormatIsRefusedWithoutFallback) {
  for (const char* magic :
       {"SLCKPT01", "SLCKPT02", "SLCKPT03", "SLCKPT04", "SLCKPT05",
        "SLCKPT06"}) {
    SCOPED_TRACE(magic);
    const std::string dir = magic;
    const std::string ckpt = Path(dir) + "/checkpoint.sldb";
    auto stamp_retired = [magic](const std::string& path) {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(0);
      f.write(magic, 8);
    };
    auto expect_refused = [&](const char* layout) {
      SCOPED_TRACE(layout);
      const auto before = ReadDir(dir);
      auto db = LedgerDatabase::Open(MakeOptions(dir));
      ASSERT_FALSE(db.ok());
      EXPECT_EQ(db.status().code(), StatusCode::kNotSupported)
          << db.status().ToString();
      EXPECT_NE(db.status().message().find(magic), std::string::npos);
      EXPECT_EQ(ReadDir(dir), before);
    };
    {
      auto db = Open(dir);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
              .ok());
      for (int i = 0; i < 3; i++)
        ASSERT_TRUE(InsertOne(db.get(), "t", i, "gen1").ok());
      ASSERT_TRUE(db->Checkpoint().ok());  // superseded -> .prev
      for (int i = 3; i < 6; i++)
        ASSERT_TRUE(InsertOne(db.get(), "t", i, "tail").ok());
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    stamp_retired(ckpt);
    expect_refused("retired newest, readable .prev");
    std::filesystem::remove(ckpt + ".prev");
    expect_refused("retired newest alone");
    std::filesystem::rename(ckpt, ckpt + ".prev");
    expect_refused("retired .prev alone");
  }
}

TEST_F(RecoveryTest, DroppedTableSurvivesRecovery) {
  DatabaseDigest digest;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());
    ASSERT_TRUE(db->DropTable("t").ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = Open();
  EXPECT_TRUE(db->GetTableRef("t").status().IsNotFound());
  // The dropped table's data is still present and verifiable by id.
  auto report = VerifyLedger(db.get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The name can be reused after recovery.
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
}

TEST_F(RecoveryTest, DoubleCrashRecovery) {
  // Recover, add more traffic, crash again without checkpoint, recover.
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 3; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "one").ok());
  }
  {
    auto db = Open();
    for (int i = 3; i < 6; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "two").ok());
  }
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);
  ASSERT_TRUE(db->Commit(*txn).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// A crash after a checkpoint's rename is durable but before the WAL
// rotation's directory sync leaves the new checkpoint beside the log it
// superseded. Rolls that rotation back by hand, like the `.prev` tests.
void RollBackWalRotation(const std::string& dir) {
  std::filesystem::rename(dir + "/wal.log.prev", dir + "/wal.log");
}

TEST_F(RecoveryTest, SupersededWalBesideNewCheckpointIsNotReapplied) {
  for (bool ledger : {true, false}) {
    SCOPED_TRACE(ledger ? "ledger" : "non-ledger");
    const std::string subdir = ledger ? "ledger" : "plain";
    auto options = [&] {
      LedgerDatabaseOptions o = MakeOptions(subdir);
      o.enable_ledger = ledger;
      return o;
    };
    {
      auto db = LedgerDatabase::Open(options());
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                     TableKind::kUpdateable)
                      .ok());
      ASSERT_TRUE(InsertOne(db->get(), "t", 1, "x").ok());
      auto txn = (*db)->Begin("app");
      ASSERT_TRUE((*db)->Update(*txn, "t", {VB(1), VS("y")}).ok());
      ASSERT_TRUE((*db)->Commit(*txn).ok());
      ASSERT_TRUE((*db)->AddColumn("t", "extra", DataType::kInt).ok());
      // The checkpoint holds the wider rows; the log it superseded holds
      // the narrower row images of the insert and the update.
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
    RollBackWalRotation(Path(subdir));
    auto db = LedgerDatabase::Open(options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto txn = (*db)->Begin("app");
    auto row = (*db)->Get(*txn, "t", {VB(1)});
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_EQ(row->size(), 3u);
    EXPECT_EQ((*row)[1].string_value(), "y");
    EXPECT_TRUE((*row)[2].is_null());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
    if (ledger) {
      auto digest = (*db)->GenerateDigest();
      ASSERT_TRUE(digest.ok());
      auto report = VerifyLedger(db->get(), {*digest});
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report->ok()) << report->Summary();
    }
  }
}

TEST_F(RecoveryTest, SupersededWalBesideNewCheckpointKeepsCommitCount) {
  uint64_t committed;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 4; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
    committed = db->committed_txn_count();
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  RollBackWalRotation(Path("db"));
  auto db = Open();
  EXPECT_EQ(db->committed_txn_count(), committed);
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  ASSERT_TRUE(db->Commit(*txn).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// ---- Schema changes are durable through the WAL (DESIGN.md §4) ----

// Creates "t" (DdlUserSchema) with three rows and the index "by_payload".
void SetUpDdlTable(LedgerDatabase* db) {
  ASSERT_TRUE(
      db->CreateTable("t", DdlUserSchema(), TableKind::kUpdateable).ok());
  for (int i = 0; i < 3; i++) {
    auto txn = db->Begin("app");
    ASSERT_TRUE(db->Insert(*txn, "t",
                           {VB(i), VS("p" + std::to_string(i)),
                            Value::Int(i)})
                    .ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  ASSERT_TRUE(db->CreateIndex("t", "by_payload", {"payload"}, false).ok());
}

struct DdlCase {
  const char* name;
  std::function<Status(LedgerDatabase*)> run;
};

// The seven schema changes. Each applies to a table set up by
// SetUpDdlTable, and they also apply one after another in this order.
std::vector<DdlCase> SevenDdls() {
  return {
      {"CreateTable",
       [](LedgerDatabase* db) {
         return db->CreateTable("u", DdlUserSchema(), TableKind::kUpdateable);
       }},
      {"AddColumn",
       [](LedgerDatabase* db) {
         return db->AddColumn("t", "extra", DataType::kVarchar);
       }},
      {"CreateIndex",
       [](LedgerDatabase* db) {
         return db->CreateIndex("t", "by_qty", {"qty"}, false);
       }},
      {"DropIndex",
       [](LedgerDatabase* db) { return db->DropIndex("t", "by_payload"); }},
      {"AlterColumnType",
       [](LedgerDatabase* db) {
         return db->AlterColumnType("t", "qty", DataType::kBigInt);
       }},
      {"DropColumn",
       [](LedgerDatabase* db) { return db->DropColumn("t", "qty"); }},
      {"DropTable", [](LedgerDatabase* db) { return db->DropTable("t"); }},
  };
}

TEST_F(RecoveryTest, NoSchemaChangeRunsACheckpoint) {
  auto db = Open();
  EXPECT_EQ(CounterValue(db.get(), "checkpoint.runs_total"), 1u);  // Open's
  SetUpDdlTable(db.get());
  for (const DdlCase& ddl : SevenDdls()) {
    SCOPED_TRACE(ddl.name);
    ASSERT_TRUE(ddl.run(db.get()).ok());
    EXPECT_EQ(CounterValue(db.get(), "checkpoint.runs_total"), 1u);
  }
}

TEST_F(RecoveryTest, EachSchemaChangeSurvivesReopenFromWalAlone) {
  for (bool ledger : {true, false}) {
    for (const DdlCase& ddl : SevenDdls()) {
      SCOPED_TRACE(std::string(ddl.name) + (ledger ? "" : " (non-ledger)"));
      const std::string subdir = std::string(ddl.name) + (ledger ? "" : "_plain");
      auto options = [&] {
        LedgerDatabaseOptions o = MakeOptions(subdir);
        o.enable_ledger = ledger;
        return o;
      };
      std::string want;
      {
        auto db = LedgerDatabase::Open(options());
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        SetUpDdlTable(db->get());
        ASSERT_TRUE((*db)->Checkpoint().ok());
        ASSERT_TRUE(ddl.run(db->get()).ok());
        want = CatalogSnapshot(db->get());
        // No checkpoint: the schema change's only durable copy is its WAL
        // record.
      }
      auto db = LedgerDatabase::Open(options());
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_EQ(CatalogSnapshot(db->get()), want);
      if (ledger) {
        auto digest = (*db)->GenerateDigest();
        ASSERT_TRUE(digest.ok());
        auto report = VerifyLedger(db->get(), {*digest});
        ASSERT_TRUE(report.ok());
        EXPECT_TRUE(report->ok()) << report->Summary();
      }
    }
  }
}

TEST_F(RecoveryTest, SchemaChangesSurviveFallbackToPreviousGeneration) {
  std::string want;
  {
    auto db = Open();
    SetUpDdlTable(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());  // superseded -> checkpoint.sldb.prev
    for (const DdlCase& ddl : SevenDdls()) ASSERT_TRUE(ddl.run(db.get()).ok());
    want = CatalogSnapshot(db.get());
    // The schema changes now live only in the rotated wal.log.prev.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Storage rot tears the newest checkpoint.
  TearNewestCheckpoint();
  auto db = Open();
  EXPECT_EQ(CatalogSnapshot(db.get()), want);
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(RecoveryTest, SchemaChangesSurviveRecovery) {
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                TableKind::kUpdateable)
                    .ok());
    ASSERT_TRUE(db->AddColumn("accounts", "email", DataType::kVarchar).ok());
    ASSERT_TRUE(db->DropColumn("accounts", "email").ok());
    ASSERT_TRUE(
        db->CreateIndex("accounts", "by_balance", {"balance"}, false).ok());
  }
  auto db = Open();
  auto ref = db->GetTableRef("accounts");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->main->schema().FindColumn("email"), -1);
  EXPECT_NE(ref->main->FindIndex("by_balance"), nullptr);
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// ---- Replay rebuilds history rows and table roots (DESIGN.md §4) ----

// Every user and history row, every Database Ledger entry and block, and the
// catalog, as encoded bytes: what replay must reproduce exactly.
std::string LedgerStateBytes(LedgerDatabase* db) {
  std::string out = CatalogSnapshot(db);
  auto dump = [&out](const std::string& label, const TableStore* store) {
    for (BTree::Iterator it = store->Scan(); it.Valid(); it.Next()) {
      std::vector<uint8_t> bytes;
      EncodeRow(it.value(), &bytes);
      out += label + " " + HexEncode(Slice(bytes)) + "\n";
    }
  };
  for (CatalogEntry* e : db->AllTables()) {
    dump(e->name, e->main.get());
    if (e->history != nullptr) dump(e->name + " history", e->history.get());
  }
  dump("transactions", db->database_ledger()->transactions_table_for_testing());
  dump("blocks", db->database_ledger()->blocks_table_for_testing());
  return out;
}

// Inserts, updates and deletes in ledger, append-only and regular tables,
// one row's whole life in one transaction, a savepoint rollback, a failed
// statement and the seven schema changes, with a digest after each part.
// `checkpoint_midway` checkpoints between the parts, so the first part is
// left in wal.log.prev.
void RunReplayWorkload(LedgerDatabase* db, bool checkpoint_midway,
                       std::vector<DatabaseDigest>* digests) {
  auto row = [](int64_t id, const std::string& payload) {
    return Row{VB(id), VS(payload)};
  };
  auto digest = [&] {
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    digests->push_back(*d);
  };
  const char* const kTables[] = {"ledger", "log", "plain"};
  ASSERT_TRUE(db->CreateTable("ledger", SimpleUserSchema(),
                              TableKind::kUpdateable)
                  .ok());
  ASSERT_TRUE(
      db->CreateTable("log", SimpleUserSchema(), TableKind::kAppendOnly).ok());
  ASSERT_TRUE(
      db->CreateTable("plain", SimpleUserSchema(), TableKind::kRegular).ok());
  {
    auto txn = db->Begin("loader");
    for (int64_t id = 1; id <= 4; id++) {
      for (const char* table : kTables)
        ASSERT_TRUE(db->Insert(*txn, table, row(id, "v1")).ok());
    }
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  {
    auto txn = db->Begin("clerk");
    for (const char* table : {"ledger", "plain"}) {
      ASSERT_TRUE(db->Update(*txn, table, row(1, "v2")).ok());
      ASSERT_TRUE(db->Delete(*txn, table, {VB(2)}).ok());
    }
    ASSERT_TRUE(db->Insert(*txn, "log", row(5, "v1")).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  {
    // One row inserted, updated twice and deleted in the same transaction.
    auto txn = db->Begin("clerk");
    ASSERT_TRUE(db->Insert(*txn, "ledger", row(10, "a")).ok());
    ASSERT_TRUE(db->Update(*txn, "ledger", row(10, "b")).ok());
    ASSERT_TRUE(db->Update(*txn, "ledger", row(10, "c")).ok());
    ASSERT_TRUE(db->Delete(*txn, "ledger", {VB(10)}).ok());
    ASSERT_TRUE(db->Update(*txn, "ledger", row(3, "v2")).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  digest();
  if (checkpoint_midway) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    // The rollback returns the sequence numbers the later ops take again.
    auto txn = db->Begin("clerk");
    ASSERT_TRUE(db->Insert(*txn, "ledger", row(20, "a")).ok());
    ASSERT_TRUE(db->Savepoint(*txn, "sp").ok());
    ASSERT_TRUE(db->Update(*txn, "ledger", row(3, "undone")).ok());
    ASSERT_TRUE(db->Delete(*txn, "ledger", {VB(4)}).ok());
    ASSERT_TRUE(db->Insert(*txn, "ledger", row(21, "undone")).ok());
    ASSERT_TRUE(db->Insert(*txn, "log", row(21, "undone")).ok());
    ASSERT_TRUE(db->Update(*txn, "plain", row(3, "undone")).ok());
    ASSERT_TRUE(db->RollbackToSavepoint(*txn, "sp").ok());
    ASSERT_TRUE(db->Update(*txn, "ledger", row(4, "v2")).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  {
    // Duplicate keys fail their statements, and so does an update whose
    // row fails its type check; the transaction goes on. The failed ledger
    // statements took sequence numbers that no logged op takes: the update
    // after them logs the gap.
    auto txn = db->Begin("clerk");
    ASSERT_TRUE(db->Insert(*txn, "ledger", row(30, "a")).ok());
    for (const char* table : kTables)
      EXPECT_FALSE(db->Insert(*txn, table, row(1, "duplicate")).ok());
    EXPECT_FALSE(db->Update(*txn, "ledger", {VB(30), Value::Int(5)}).ok());
    ASSERT_TRUE(db->Update(*txn, "ledger", row(30, "b")).ok());
    ASSERT_TRUE(db->Delete(*txn, "ledger", {VB(3)}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  SetUpDdlTable(db);
  {
    // History rows of "t" from before ALTER COLUMN TYPE repopulates it.
    auto txn = db->Begin("clerk");
    ASSERT_TRUE(
        db->Update(*txn, "t", {VB(1), VS("p1 again"), Value::Int(7)}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  for (const DdlCase& ddl : SevenDdls()) ASSERT_TRUE(ddl.run(db).ok());
  {
    auto txn = db->Begin("clerk");
    ASSERT_TRUE(db->Insert(*txn, "u", {VB(1), VS("a"), Value::Int(1)}).ok());
    ASSERT_TRUE(db->Update(*txn, "u", {VB(1), VS("b"), Value::Int(2)}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  digest();
  // Entries in the open block, after the last digest.
  ASSERT_TRUE(InsertOne(db, "ledger", 40, "open block").ok());
}

// Closed without a checkpoint, a database reopens to the same bytes in
// every table, history table and ledger table, both from the WAL alone and
// through the previous checkpoint plus wal.log.prev and wal.log.
TEST_F(RecoveryTest, ReplayRebuildsHistoryRowsAndRootsByteForByte) {
  for (bool fallback : {false, true}) {
    SCOPED_TRACE(fallback ? "fallback to the previous generation"
                          : "WAL alone");
    const std::string subdir = fallback ? "fallback" : "wal_alone";
    std::vector<DatabaseDigest> digests;
    std::string want;
    {
      auto db = Open(subdir);
      RunReplayWorkload(db.get(), fallback, &digests);
      if (HasFatalFailure()) return;
      want = LedgerStateBytes(db.get());
    }
    if (fallback) TearNewestCheckpoint(subdir);
    auto db = LedgerDatabase::Open(MakeOptions(subdir));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(LedgerStateBytes(db->get()), want);
    auto report = VerifyLedger(db->get(), digests);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();
  }
}

// Rewrites the frames of the WAL at `path`. `edit` may change a commit
// record's payload or drop the frame (return false); every kept payload is
// framed anew, with a fresh CRC, as a writer of those bytes would have.
void RewriteWal(const std::string& path,
                const std::function<bool(std::vector<uint8_t>*)>& edit) {
  std::vector<uint8_t> frames;
  auto scan = ReadFrameLog(Env::Default(), path, [&](Slice payload) {
    std::vector<uint8_t> bytes(payload.data(), payload.data() + payload.size());
    if (edit(&bytes)) AppendFrame(Slice(bytes), &frames);
    return Status::OK();
  });
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(frames.data()),
            static_cast<std::streamsize>(frames.size()));
}

// Rewrites the WAL at `path` record by record: `edit` sees each commit
// record, decoded against the file's header chain, and may change it or
// drop it (false). The kept records are encoded again, in one chain, and
// block closes are kept as they are.
void RewriteWalRecords(const std::string& path,
                       const std::function<bool(WalCommitRecord*)>& edit) {
  WalHeaderChain reader, writer;
  RewriteWal(path, [&](std::vector<uint8_t>* payload) {
    if ((*payload)[0] != kWalKindCommit) return true;
    auto rec = WalCommitRecord::Decode(
        Slice(payload->data() + 1, payload->size() - 1), &reader);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    if (!rec.ok() || !edit(&*rec)) return false;
    payload->resize(1);  // the record kind
    EncodeCommitRecord(*rec, &writer, payload);
    return true;
  });
}

TEST_F(RecoveryTest, AlteredRowImageFailsTheRootsCheck) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "original").ok());
  }
  // The altered row decodes and applies; only the rebuilt root differs.
  const std::string from = "original", to = "origin@l";
  int altered = 0;
  RewriteWal(Path("db") + "/wal.log", [&](std::vector<uint8_t>* payload) {
    auto at = std::search(payload->begin(), payload->end(), from.begin(),
                          from.end());
    if (at != payload->end()) {
      std::copy(to.begin(), to.end(), at);
      altered++;
    }
    return true;
  });
  ASSERT_EQ(altered, 1);
  auto db = LedgerDatabase::Open(MakeOptions());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_NE(db.status().message().find("table roots"), std::string::npos)
      << db.status().ToString();
}

// A sequence gap altered on disk, raised or removed, moves the sequence
// numbers replay stamps: the versions it rebuilds are not the ones the
// commit hashed, and the roots check refuses the record.
TEST_F(RecoveryTest, AlteredSequenceGapFailsTheRootsCheck) {
  for (const bool remove : {false, true}) {
    const std::string dir = remove ? "removed" : "raised";
    SCOPED_TRACE(dir);
    {
      auto db = Open(dir);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
              .ok());
      auto txn = db->Begin("app");
      ASSERT_TRUE(db->Insert(*txn, "t", {VB(1), VS("a")}).ok());
      EXPECT_FALSE(db->Insert(*txn, "t", {VB(1), VS("duplicate")}).ok());
      ASSERT_TRUE(db->Update(*txn, "t", {VB(1), VS("b")}).ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    int altered = 0;
    RewriteWalRecords(Path(dir) + "/wal.log", [&](WalCommitRecord* rec) {
      for (WalOp& op : rec->ops) {
        if (op.seq_gap == 0) continue;
        EXPECT_EQ(op.seq_gap, 1u);
        op.seq_gap = remove ? 0 : op.seq_gap + 1;
        altered++;
      }
      return true;
    });
    ASSERT_EQ(altered, 1);
    const auto before = ReadDir(dir);
    auto db = LedgerDatabase::Open(MakeOptions(dir));
    ASSERT_FALSE(db.ok());
    EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
    EXPECT_NE(db.status().message().find("table roots"), std::string::npos)
        << db.status().ToString();
    EXPECT_EQ(ReadDir(dir), before);
  }
}

TEST_F(RecoveryTest, LedgerUpdateOfMissingPreImageIsCorruption) {
  uint32_t table_id = 0;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    table_id = db->GetTableRef("t")->table_id;
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "v1").ok());
    auto txn = db->Begin("app");
    ASSERT_TRUE(db->Update(*txn, "t", {VB(1), VS("v2")}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  }
  // Drop the commit that inserted the row the update retires.
  int dropped = 0;
  RewriteWalRecords(Path("db") + "/wal.log", [&](WalCommitRecord* rec) {
    const bool inserts_row =
        std::any_of(rec->ops.begin(), rec->ops.end(), [&](const WalOp& op) {
          return op.type == WalOpType::kInsert && op.table_id == table_id;
        });
    dropped += inserts_row;
    return !inserts_row;
  });
  ASSERT_EQ(dropped, 1);
  auto db = LedgerDatabase::Open(MakeOptions());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_NE(db.status().message().find("missing row"), std::string::npos)
      << db.status().ToString();
}

// Commit records of the retired kinds, 1 (history rows and whole roots
// logged), 3 (stamped row images without predecessors), 4 (repeat
// bitmaps, changed cells logged whole), 5 (headers logged whole, a type
// and table per op) and 6 (every DOUBLE logged as 8 raw bytes), are
// refused like a retired checkpoint format: Open
// fails with NotSupported before it replays or truncates the log, and no
// file changes.
TEST_F(RecoveryTest, RetiredCommitRecordKindIsRefused) {
  for (const uint8_t kind :
       {uint8_t{1}, uint8_t{3}, uint8_t{4}, uint8_t{5}, uint8_t{6}}) {
    const std::string name = "kind " + std::to_string(kind);
    SCOPED_TRACE(name);
    const std::string dir = "kind" + std::to_string(kind);
    {
      auto db = Open(dir);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
              .ok());
      ASSERT_TRUE(InsertOne(db.get(), "t", 1, "v1").ok());
    }
    const std::string wal = Path(dir) + "/wal.log";
    // The kind byte is checked before the body is read.
    auto retired = HexDecode(
        "63"                  // txn id 99
        "0100000000000000"    // commit ts
        "03617070"            // user 'app'
        "0000000000000000"    // block id
        "0000000000000000"    // block ordinal
        "01" "64"             // one root: table 100
        "000102030405060708090a0b0c0d0e0f"
        "101112131415161718191a1b1c1d1e1f"
        "00");                // no ops
    ASSERT_TRUE(retired.ok());
    retired->insert(retired->begin(), kind);
    std::vector<uint8_t> frame;
    AppendFrame(Slice(*retired), &frame);
    auto expect_refused = [&](const std::string& subdir, const char* layout) {
      SCOPED_TRACE(layout);
      const auto before = ReadDir(subdir);
      auto db = LedgerDatabase::Open(MakeOptions(subdir));
      ASSERT_FALSE(db.ok());
      EXPECT_EQ(db.status().code(), StatusCode::kNotSupported)
          << db.status().ToString();
      EXPECT_NE(db.status().message().find(name), std::string::npos)
          << db.status().ToString();
      EXPECT_EQ(ReadDir(subdir), before);
    };
    {
      // After current records, with a torn tail Open would otherwise cut.
      std::ofstream out(wal, std::ios::binary | std::ios::app);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
      out.write("torn", 4);
    }
    expect_refused(dir, "after current records");
    {
      std::ofstream out(wal, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
    }
    expect_refused(dir, "alone");

    // A directory checkpointed before the format change holds retired
    // records only in wal.log.prev, which is read on fallback alone: it
    // opens, and a fallback to the previous generation is refused.
    const std::string checkpointed = dir + "_checkpointed";
    {
      auto db = Open(checkpointed);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
              .ok());
      ASSERT_TRUE(InsertOne(db.get(), "t", 1, "v1").ok());
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    {
      std::ofstream out(Path(checkpointed) + "/wal.log.prev",
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
    }
    {
      auto db = LedgerDatabase::Open(MakeOptions(checkpointed));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_NE((*db)->GetStoreForTesting("t"), nullptr);
    }
    TearNewestCheckpoint(checkpointed);
    expect_refused(checkpointed, "only in wal.log.prev, on fallback");
  }
}

// The live ledger closes at most one block between two consecutive
// entries, so replay refuses a commit record addressed far past the open
// block instead of re-closing empty blocks up to it (for an id near 2^40,
// without end). Open fails before it truncates the log: no file changes.
TEST_F(RecoveryTest, CommitRecordFarPastOpenBlockIsCorruption) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "v1").ok());
  }
  WalCommitRecord record;
  record.txn_id = 1000;
  record.commit_ts_micros = 1;
  record.user_name = "app";
  record.block_id = uint64_t{1} << 40;
  const std::vector<uint8_t> payload = ChainStartPayload(record);
  std::vector<uint8_t> frame;
  AppendFrame(Slice(payload), &frame);
  {
    std::ofstream out(Path("db") + "/wal.log",
                      std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  const auto before = ReadDir();
  auto db = LedgerDatabase::Open(MakeOptions());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_NE(db.status().message().find("skips blocks"), std::string::npos)
      << db.status().ToString();
  EXPECT_EQ(ReadDir(), before);
}

TEST_F(RecoveryTest, RegularRowOpThatDoesNotApplyIsCorruption) {
  // Replay applies each commit record past the checkpoint exactly once, so
  // a row op the store refuses means the log is corrupt. Each shape is a
  // hand-built record with a txn id past every one in the log and
  // the next free ledger slot, so nothing but the op stops it.
  struct Shape {
    const char* dir;
    WalOpType type;
    int64_t id;
    const char* message;
  };
  for (const Shape& shape :
       {Shape{"reinsert", WalOpType::kInsert, 1, "duplicate primary key"},
        Shape{"update", WalOpType::kUpdate, 2, "row not found"},
        Shape{"delete", WalOpType::kDelete, 2, "row not found"}}) {
    SCOPED_TRACE(shape.dir);
    WalCommitRecord record;
    uint32_t table_id = 0;
    {
      auto db = Open(shape.dir);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kRegular).ok());
      ASSERT_TRUE(InsertOne(db.get(), "t", 1, "v1").ok());
      table_id = db->GetTableRef("t")->table_id;
      record.block_id = db->database_ledger()->open_block_id();
      record.block_ordinal = db->database_ledger()->open_block_entry_count();
    }
    record.txn_id = 1000;
    record.commit_ts_micros = clock_ + 1;
    record.user_name = "app";
    WalOp op;
    op.type = shape.type;
    op.table_id = table_id;
    if (shape.type == WalOpType::kDelete) {
      op.key = {VB(shape.id)};
    } else {
      op.new_row = {VB(shape.id), VS("v2")};
    }
    record.ops.push_back(op);
    const std::vector<uint8_t> payload = ChainStartPayload(record);
    std::vector<uint8_t> frame;
    AppendFrame(Slice(payload), &frame);
    {
      std::ofstream out(Path(shape.dir) + "/wal.log",
                        std::ios::binary | std::ios::app);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
    }
    const auto before = ReadDir(shape.dir);
    auto db = LedgerDatabase::Open(MakeOptions(shape.dir));
    ASSERT_FALSE(db.ok());
    EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
    EXPECT_NE(db.status().message().find(shape.message), std::string::npos)
        << db.status().ToString();
    EXPECT_EQ(ReadDir(shape.dir), before);
  }
}

}  // namespace
}  // namespace sqlledger

namespace sqlledger {
namespace {

// Rewrites the checkpoint at `path` with a valid CRC after `edit` has
// changed its meta blob and its store sections (their count, then each
// section), as an insider with write access to the data directory could.
void RewriteCheckpoint(
    const std::string& path,
    const std::function<void(std::vector<uint8_t>* meta,
                             std::vector<uint8_t>* stores)>& edit) {
  auto checkpoint = ReadCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  std::vector<uint8_t> meta = checkpoint->meta;
  const std::vector<uint8_t>& old = checkpoint->payload;
  std::vector<uint8_t> stores(old.data() + checkpoint->stores_offset,
                              old.data() + old.size());
  edit(&meta, &stores);
  std::vector<uint8_t> payload;
  PutLengthPrefixed(&payload, Slice(meta));
  payload.insert(payload.end(), stores.begin(), stores.end());
  std::vector<uint8_t> file(8);  // the file's own magic
  std::ifstream(path, std::ios::binary)
      .read(reinterpret_cast<char*>(file.data()), 8);
  PutFixed64(&file, payload.size());
  PutFixed32(&file, Crc32c(Slice(payload)));
  file.insert(file.end(), payload.begin(), payload.end());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
}

// `bytes` with its leading varint count raised by one and `extra` appended:
// one more catalog entry or store section.
void AppendCounted(std::vector<uint8_t>* bytes, size_t count_offset,
                   const std::vector<uint8_t>& extra) {
  const uint8_t* data = bytes->data();
  const uint8_t* end = data + bytes->size();
  Decoder dec(Slice(data + count_offset, bytes->size() - count_offset));
  const uint32_t count = *dec.GetVarint32();
  std::vector<uint8_t> out(data, data + count_offset);
  PutVarint32(&out, count + 1);
  out.insert(out.end(), end - dec.remaining(), end);
  out.insert(out.end(), extra.begin(), extra.end());
  *bytes = std::move(out);
}

// Where the catalog meta's entry count starts: after the create time, the
// table and transaction id allocators, the commit count and the ledger flag.
size_t CatalogEntryCountOffset(const std::vector<uint8_t>& meta) {
  Decoder dec{Slice(meta)};
  EXPECT_TRUE(dec.GetLengthPrefixed().ok());
  EXPECT_TRUE(dec.GetVarint32().ok());
  EXPECT_TRUE(dec.GetVarint64().ok());
  EXPECT_TRUE(dec.GetVarint64().ok());
  EXPECT_TRUE(dec.GetBytes(1).ok());
  return meta.size() - dec.remaining();
}

// The store sections' first section, whole: its id, row count and rows.
std::vector<uint8_t> FirstSection(const std::vector<uint8_t>& stores) {
  Decoder dec{Slice(stores)};
  EXPECT_TRUE(dec.GetVarint32().ok());  // the section count
  const size_t start = stores.size() - dec.remaining();
  EXPECT_TRUE(dec.GetVarint32().ok());
  const uint64_t rows = *dec.GetVarint64();
  EXPECT_GT(rows, 0u);
  std::optional<Row> prev;
  for (uint64_t r = 0; r < rows; r++) {
    auto row = DecodeRow(&dec, prev ? &*prev : nullptr);
    EXPECT_TRUE(row.ok());
    prev = std::move(*row);
  }
  return std::vector<uint8_t>(stores.data() + start,
                              stores.data() + stores.size() - dec.remaining());
}

// A table definition of `kind` over SimpleUserSchema with the ledger's
// columns, and a history store `history_id` when that is not 0.
TableDefinition ForgedDefinition(TableKind kind, uint32_t history_id) {
  TableDefinition def;
  def.kind = static_cast<uint8_t>(kind);
  def.main = {"forged", MakeLedgerSchema(SimpleUserSchema(), kind), {}};
  def.history_table_id = history_id;
  if (history_id != 0) {
    def.history = {"forged_history",
                   MakeHistorySchema(MakeLedgerSchema(
                       SimpleUserSchema(), TableKind::kUpdateable)),
                   {}};
  }
  return def;
}

struct ForgedShape {
  const char* name;
  uint32_t table_id;
  TableDefinition def;
  const char* message;
};

// Definitions no DDL makes, each of which the first DML, or the first
// update, would crash on.
std::vector<ForgedShape> ForgedShapes() {
  TableDefinition no_stamps = ForgedDefinition(TableKind::kRegular, 0);
  no_stamps.kind = static_cast<uint8_t>(TableKind::kAppendOnly);
  TableDefinition visible = ForgedDefinition(TableKind::kUpdateable, 501);
  Schema* schema = &visible.main.schema;
  schema->mutable_column(schema->FindColumn(kColEndSeq))->hidden = false;
  TableDefinition dropped = ForgedDefinition(TableKind::kAppendOnly, 0);
  schema = &dropped.main.schema;
  schema->mutable_column(schema->FindColumn(kColStartSeq))->dropped = true;
  return {{"updateable without history", 500,
           ForgedDefinition(TableKind::kUpdateable, 0), "history store"},
          {"append-only with history", 500,
           ForgedDefinition(TableKind::kAppendOnly, 501), "history store"},
          {"history is itself", 500,
           ForgedDefinition(TableKind::kUpdateable, 500), "reserved store id"},
          {"ledger transactions store", 1,
           ForgedDefinition(TableKind::kRegular, 0), "reserved store id"},
          {"ledger blocks as history", 500,
           ForgedDefinition(TableKind::kUpdateable, 2), "reserved store id"},
          {"no stamp columns", 500, no_stamps, "ledger_start_transaction_id"},
          {"stamp column not hidden", 500, visible,
           "ledger_end_sequence_number"},
          {"stamp column dropped", 500, dropped,
           "ledger_start_sequence_number"}};
}

// A commit record whose only op defines a table no DDL could have made
// (first seen as an updateable table without a history store: Open
// succeeded and the first update crashed). Replay refuses it as
// Corruption before the log is truncated: no file changes.
TEST_F(RecoveryTest, InconsistentTableDefinitionInWalIsCorruption) {
  for (const ForgedShape& shape : ForgedShapes()) {
    SCOPED_TRACE(shape.name);
    const std::string dir = "wal";
    std::filesystem::remove_all(Path(dir));
    WalCommitRecord record;
    {
      auto db = Open(dir);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
              .ok());
      ASSERT_TRUE(InsertOne(db.get(), "t", 1, "v1").ok());
      record.block_id = db->database_ledger()->open_block_id();
      record.block_ordinal = db->database_ledger()->open_block_entry_count();
    }
    record.txn_id = 1000;
    record.commit_ts_micros = clock_ + 1;
    record.user_name = "app";
    WalOp op;
    op.type = WalOpType::kDefineTable;
    op.table_id = shape.table_id;
    op.definition = std::make_shared<TableDefinition>(shape.def);
    record.ops.push_back(op);
    const std::vector<uint8_t> payload = ChainStartPayload(record);
    std::vector<uint8_t> frame;
    AppendFrame(Slice(payload), &frame);
    {
      std::ofstream out(Path(dir) + "/wal.log",
                        std::ios::binary | std::ios::app);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
    }
    const auto before = ReadDir(dir);
    auto db = LedgerDatabase::Open(MakeOptions(dir));
    ASSERT_FALSE(db.ok());
    EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
    EXPECT_NE(db.status().message().find(shape.message), std::string::npos)
        << db.status().ToString();
    EXPECT_EQ(ReadDir(dir), before);
  }
}

// The same definitions as checkpoint catalog entries, in both generations:
// the load is refused as Corruption, naming the reason, and no file
// changes.
TEST_F(RecoveryTest, InconsistentTableDefinitionInCheckpointIsCorruption) {
  for (const ForgedShape& shape : ForgedShapes()) {
    SCOPED_TRACE(shape.name);
    const std::string dir = "checkpoint";
    std::filesystem::remove_all(Path(dir));
    {
      auto db = Open(dir);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
              .ok());
      ASSERT_TRUE(InsertOne(db.get(), "t", 1, "v1").ok());
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    std::vector<uint8_t> entry;
    PutVarint32(&entry, shape.table_id);
    shape.def.EncodeTo(&entry);
    for (const char* generation : {"", ".prev"}) {
      RewriteCheckpoint(
          Path(dir) + "/checkpoint.sldb" + generation,
          [&](std::vector<uint8_t>* meta, std::vector<uint8_t>*) {
            AppendCounted(meta, CatalogEntryCountOffset(*meta), entry);
          });
    }
    const auto before = ReadDir(dir);
    auto db = LedgerDatabase::Open(MakeOptions(dir));
    ASSERT_FALSE(db.ok());
    EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
    EXPECT_NE(db.status().message().find(shape.message), std::string::npos)
        << db.status().ToString();
    EXPECT_EQ(ReadDir(dir), before);
  }
}

// A newest checkpoint whose CRC holds but whose content fails to load is
// corrupt like a torn one: Open recovers the previous generation plus
// wal.log.prev and wal.log, to the same bytes in every table, and nothing
// of the newest is applied. The newest holds a table the previous one
// lacks, so a load that kept its catalog would collide with the replay.
TEST_F(RecoveryTest, NewestCheckpointThatFailsToLoadFallsBack) {
  struct Shape {
    const char* dir;
    std::function<void(std::vector<uint8_t>* stores)> edit;
  };
  for (const Shape& shape : {
           Shape{"undefined_store",
                 [](std::vector<uint8_t>* stores) {
                   // One row for store id 999, which no definition makes.
                   std::vector<uint8_t> section;
                   PutVarint32(&section, 999);
                   PutVarint64(&section, 1);
                   EncodeRow(Row{VB(1), VS("x")}, nullptr, &section);
                   AppendCounted(stores, 0, section);
                 }},
           Shape{"duplicate_key",
                 [](std::vector<uint8_t>* stores) {
                   // The first store's rows again: each key twice.
                   AppendCounted(stores, 0, FirstSection(*stores));
                 }}}) {
    SCOPED_TRACE(shape.dir);
    std::vector<DatabaseDigest> digests;
    std::string want;
    {
      auto db = Open(shape.dir);
      ASSERT_TRUE(
          db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable)
              .ok());
      for (int i = 0; i < 3; i++)
        ASSERT_TRUE(InsertOne(db.get(), "t", i, "gen1").ok());
      ASSERT_TRUE(db->Checkpoint().ok());  // superseded -> .prev
      ASSERT_TRUE(
          db->CreateTable("u", SimpleUserSchema(), TableKind::kAppendOnly)
              .ok());
      for (int i = 3; i < 6; i++) {
        ASSERT_TRUE(InsertOne(db.get(), "t", i, "gen2").ok());
        ASSERT_TRUE(InsertOne(db.get(), "u", i, "gen2").ok());
      }
      auto digest = db->GenerateDigest();
      ASSERT_TRUE(digest.ok());
      digests.push_back(*digest);
      ASSERT_TRUE(db->Checkpoint().ok());  // the generation we rewrite
      ASSERT_TRUE(InsertOne(db.get(), "t", 6, "tail").ok());
      want = LedgerStateBytes(db.get());
    }
    RewriteCheckpoint(
        Path(shape.dir) + "/checkpoint.sldb",
        [&](std::vector<uint8_t>*, std::vector<uint8_t>* stores) {
          shape.edit(stores);
        });
    auto db = Open(shape.dir);
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(LedgerStateBytes(db.get()), want);
    auto digest = db->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    digests.push_back(*digest);
    auto report = VerifyLedger(db.get(), digests);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << report->Summary();
  }
}

}  // namespace
}  // namespace sqlledger

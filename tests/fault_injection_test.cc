// Crash-recovery torture tests. A FaultInjectionEnv is threaded through the
// whole durability stack (WAL, checkpoints, digest store) and a crash is
// injected at EVERY sync point of a mixed workload. After each crash the
// database is reopened with the real filesystem and the verifier's five
// invariants must hold against every digest the workload managed to return
// before dying — never a crash, never silently accepted tampering.
//
// Also covers the targeted hardening: sticky ("poisoned") WAL writers,
// fsync-before-rename checkpoints, and crash-durable digest blobs.

#include <gtest/gtest.h>

#include <functional>

#include "ledger/digest_store.h"
#include "ledger/truncation.h"
#include "ledger/verifier.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class FaultInjectionTest : public TempDirTest {
 protected:
  LedgerDatabaseOptions MakeOptions(const std::string& subdir, Env* env) {
    LedgerDatabaseOptions options;
    options.data_dir = Path(subdir);
    options.database_id = "faultdb";
    options.block_size = 3;
    options.sync_wal = true;
    options.env = env;
    options.clock = [this] { return ++clock_; };
    return options;
  }

  int64_t clock_ = 1000000;
};

// ---- Sticky (poisoned) WAL writer ----

TEST_F(FaultInjectionTest, WalIsPoisonedAfterFailedSync) {
  FaultInjectionEnv env;
  auto wal = Wal::Open(Path("wal.log"),
                       WalOptions{.sync = true, .env = &env});
  ASSERT_TRUE(wal.ok());
  std::string payload = "record";
  ASSERT_TRUE((*wal)->AppendRecord(Slice(payload)).ok());

  env.FailNthSync(1);
  ASSERT_FALSE((*wal)->AppendRecord(Slice(payload)).ok());
  // The env is healthy again, but the log has a hole: appending past it
  // would replay without its predecessor. Every append must keep failing.
  EXPECT_FALSE((*wal)->sticky_error().ok());
  EXPECT_FALSE((*wal)->AppendRecord(Slice(payload)).ok());
  EXPECT_FALSE((*wal)->Sync().ok());

  // Rotation starts a fresh hole-free log and clears the poison.
  ASSERT_TRUE((*wal)->Reset().ok());
  EXPECT_TRUE((*wal)->sticky_error().ok());
  EXPECT_TRUE((*wal)->AppendRecord(Slice(payload)).ok());
}

TEST_F(FaultInjectionTest, WalIsPoisonedAfterFailedWrite) {
  FaultInjectionEnv env;
  auto wal = Wal::Open(Path("wal.log"),
                       WalOptions{.sync = false, .env = &env});
  ASSERT_TRUE(wal.ok());
  std::string payload = "record";
  env.FailNthWrite(1);
  ASSERT_FALSE((*wal)->AppendRecord(Slice(payload)).ok());
  EXPECT_FALSE((*wal)->AppendRecord(Slice(payload)).ok());
}

TEST_F(FaultInjectionTest, WalStaysPoisonedWhenResetFails) {
  FaultInjectionEnv env;
  auto wal = Wal::Open(Path("wal.log"),
                       WalOptions{.sync = false, .env = &env});
  ASSERT_TRUE(wal.ok());
  std::string payload = "record";
  ASSERT_TRUE((*wal)->AppendRecord(Slice(payload)).ok());
  env.FailNthRename(1);
  ASSERT_FALSE((*wal)->Reset().ok());
  // No usable log file after the failed rotation: appends must fail
  // cleanly (not crash, not write to the stale generation).
  EXPECT_FALSE((*wal)->AppendRecord(Slice(payload)).ok());
}

// ---- Checkpoint durability protocol ----

// The rows a checkpoint of one store, table id 100, loads into a fresh one.
size_t LoadedRows(const CheckpointData& checkpoint) {
  TableStore t(100, "t", SimpleUserSchema());
  Status st = LoadCheckpointStores(checkpoint, {{100, &t}});
  EXPECT_TRUE(st.ok()) << st.ToString();
  return t.row_count();
}

TEST_F(FaultInjectionTest, CheckpointSurvivesCrashImmediatelyAfterWrite) {
  TableStore t(100, "t", SimpleUserSchema());
  ASSERT_TRUE(t.Insert({VB(1), VS("x")}).ok());

  FaultInjectionEnv env;
  std::string path = Path("ckpt");
  ASSERT_TRUE(
      WriteCheckpoint(path, Slice(std::string("meta")), {&t}, &env).ok());
  // Power loss the instant WriteCheckpoint returns: the protocol synced the
  // file before the rename and the directory after it, so nothing is lost.
  env.SimulateCrash();

  auto loaded = ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(LoadedRows(*loaded), 1u);
}

TEST_F(FaultInjectionTest, CrashDuringCheckpointKeepsPreviousGeneration) {
  TableStore t(100, "t", SimpleUserSchema());
  ASSERT_TRUE(t.Insert({VB(1), VS("gen1")}).ok());
  std::string path = Path("ckpt");
  ASSERT_TRUE(
      WriteCheckpoint(path, Slice(std::string("gen1")), {&t}, nullptr).ok());

  // Second generation crashes at its directory sync (sync #1 is the temp
  // file fsync, sync #2 the dir fsync): the un-durable renames roll back.
  ASSERT_TRUE(t.Insert({VB(2), VS("gen2")}).ok());
  FaultInjectionEnv env;
  env.CrashAtSync(2);
  ASSERT_FALSE(
      WriteCheckpoint(path, Slice(std::string("gen2")), {&t}, &env).ok());

  auto loaded = ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(std::string(loaded->meta.begin(), loaded->meta.end()), "gen1");
  EXPECT_EQ(LoadedRows(*loaded), 1u);
}

TEST_F(FaultInjectionTest, CrashDuringCheckpointTempWriteLeavesNoCheckpoint) {
  TableStore t(100, "t", SimpleUserSchema());
  ASSERT_TRUE(t.Insert({VB(1), VS("x")}).ok());
  FaultInjectionEnv env;
  env.CrashAtSync(1);  // the temp file fsync, before any rename
  std::string path = Path("ckpt");
  ASSERT_FALSE(
      WriteCheckpoint(path, Slice(std::string("meta")), {&t}, &env).ok());
  // The torn temp file never reached the checkpoint's name.
  EXPECT_TRUE(ReadCheckpoint(path).status().IsNotFound());
}

// ---- Digest store durability and write-once ----

TEST_F(FaultInjectionTest, UploadedDigestBlobSurvivesCrash) {
  auto db = OpenTestDb(/*block_size=*/4);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());

  FaultInjectionEnv env;
  auto store = ImmutableBlobDigestStore::Open(Path("digests"), &env);
  ASSERT_TRUE(store.ok());
  auto uploaded = db->GenerateDigest();
  ASSERT_TRUE(uploaded.ok()) << uploaded.status().ToString();
  ASSERT_TRUE((*store)->Upload(*uploaded).ok());
  env.SimulateCrash();

  // A reopened store on the real filesystem still holds the digest intact.
  auto reopened = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(reopened.ok());
  auto all = (*reopened)->ListAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].block_id, uploaded->block_id);
}

TEST_F(FaultInjectionTest, FailedDigestUploadLeavesNoBlobBehind) {
  auto db = OpenTestDb(/*block_size=*/4);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());

  FaultInjectionEnv env;
  auto store = ImmutableBlobDigestStore::Open(Path("digests"), &env);
  ASSERT_TRUE(store.ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  env.FailNthSync(1);
  EXPECT_FALSE((*store)->Upload(*digest).ok());

  // A half-written blob must not pollute the trusted store.
  auto reopened = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(reopened.ok());
  auto all = (*reopened)->ListAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_TRUE(all->empty());
}

TEST_F(FaultInjectionTest, DigestBlobsAreWriteOnce) {
  auto db = OpenTestDb(/*block_size=*/4);
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());
  auto store = ImmutableBlobDigestStore::Open(Path("digests"));
  ASSERT_TRUE(store.ok());
  auto first = db->GenerateDigest();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*store)->Upload(*first).ok());

  // Exclusive create refuses the occupied name and allocates the next one,
  // so a second upload can never overwrite the first.
  ASSERT_TRUE(InsertOne(db.get(), "t", 2, "y").ok());
  auto second = db->GenerateDigest();
  ASSERT_TRUE(second.ok());
  Status uploaded = (*store)->Upload(*second);
  ASSERT_TRUE(uploaded.ok()) << uploaded.ToString();
  auto all = (*store)->ListAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].block_id, first->block_id);
  EXPECT_EQ((*all)[1].block_id, second->block_id);
}

// A schema change is durable when it returns even when ordinary commits
// are not synced: its commit record carries the fsync.
TEST_F(FaultInjectionTest, SchemaChangeIsDurableWithoutSyncWal) {
  FaultInjectionEnv env;
  {
    LedgerDatabaseOptions options = MakeOptions("db", &env);
    options.sync_wal = false;
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                   TableKind::kUpdateable)
                    .ok());
    ASSERT_TRUE((*db)->AddColumn("t", "extra", DataType::kInt).ok());
    env.SimulateCrash();
  }
  auto db = LedgerDatabase::Open(MakeOptions("db", nullptr));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto ref = (*db)->GetTableRef("t");
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_GE(ref->main->schema().FindColumn("extra"), 0);
}

// So is a truncation: its audit row's commit carries the fsync (and with
// it every record before it), and recovery derives the deletes from that
// row, so a power loss right after TruncateLedger returns keeps it.
TEST_F(FaultInjectionTest, TruncationIsDurableWithoutSyncWal) {
  FaultInjectionEnv env;
  {
    LedgerDatabaseOptions options = MakeOptions("db", &env);
    options.sync_wal = false;
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    LedgerDatabase* d = db->get();
    ASSERT_TRUE(
        d->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(InsertOne(d, "t", i, "v").ok());
      auto txn = d->Begin("app");
      ASSERT_TRUE(d->Update(*txn, "t", {VB(i), VS("u")}).ok());
      ASSERT_TRUE(d->Commit(*txn).ok());
    }
    auto digest = d->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    Status st = TruncateLedger(d, 2, {*digest});
    ASSERT_TRUE(st.ok()) << st.ToString();
    env.SimulateCrash();
  }
  auto db = LedgerDatabase::Open(MakeOptions("db", nullptr));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ((*db)->GetTruncationRecords().size(), 1u);
  const TruncationRecord record = (*db)->GetTruncationRecords()[0];
  EXPECT_TRUE((*db)->database_ledger()->CollectTxnsBelow(2)->txn_ids.empty());
  auto t = (*db)->GetTableRef("t");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (BTree::Iterator it = t->history->Scan(); it.Valid(); it.Next()) {
    const auto end_txn =
        static_cast<uint64_t>(it.value()[t->plan->end_txn_ord].AsInt64());
    EXPECT_GT(end_txn, record.max_txn_id) << "history row survived";
  }
  auto txn = (*db)->Begin("app");
  auto rows = (*db)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

// ---- The torture loop: crash at every sync point ----

// Runs a mixed workload (inserts, updates, deletes, digests, checkpoints)
// until an injected fault stops it. Digests returned OK are durable by
// contract (their block-close WAL record was fsynced), so the caller keeps
// them as the trusted external store the verifier is run against.
void RunTortureWorkload(LedgerDatabase* db,
                        std::vector<DatabaseDigest>* durable_digests) {
  if (!db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok())
    return;
  for (int i = 0; i < 14; i++) {
    auto txn = db->Begin("torture");
    if (!txn.ok()) return;
    Status st =
        db->Insert(*txn, "t", {VB(i), VS("v" + std::to_string(i))});
    if (st.ok() && i % 3 == 1)
      st = db->Update(*txn, "t", {VB(i - 1), VS("updated")});
    if (st.ok() && i % 4 == 3) st = db->Delete(*txn, "t", {VB(i - 2)});
    if (!st.ok()) {
      db->Abort(*txn);
      return;
    }
    if (!db->Commit(*txn).ok()) return;
    if (i % 5 == 2) {
      auto digest = db->GenerateDigest();
      if (!digest.ok()) return;
      durable_digests->push_back(*digest);
    }
    if (i % 6 == 4 && !db->Checkpoint().ok()) return;
  }
  auto digest = db->GenerateDigest();
  if (digest.ok()) durable_digests->push_back(*digest);
}

TEST_F(FaultInjectionTest, CrashAtEverySyncPointRecoversVerifiably) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  bool completed_without_crash = false;
  int crash_point = 1;
  for (; crash_point < 300 && !completed_without_crash; crash_point++) {
    std::string subdir = "crash" + std::to_string(crash_point);
    FaultInjectionEnv env(nullptr, /*seed=*/1000 * TestSeed() + crash_point);
    env.CrashAtSync(crash_point);

    std::vector<DatabaseDigest> digests;
    {
      auto db = LedgerDatabase::Open(MakeOptions(subdir, &env));
      if (db.ok()) RunTortureWorkload(db->get(), &digests);
      // else: the crash hit during Open's initial checkpoint — still a
      // valid crash point; recovery below must cope with the leftovers.
    }
    completed_without_crash = !env.crashed();

    // Reopen on the real filesystem, exactly like a machine after power
    // loss. Recovery must succeed and the state must verify against every
    // digest handed out before the crash.
    auto db = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db.ok()) << "crash point " << crash_point
                         << ": recovery failed: " << db.status().ToString();
    auto report = VerifyLedger(db->get(), digests);
    ASSERT_TRUE(report.ok()) << "crash point " << crash_point << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->ok())
        << "crash point " << crash_point << ": " << report->Summary();

    // The reopened database keeps working: it can commit and re-verify.
    if ((*db)->GetTableRef("t").ok()) {
      ASSERT_TRUE(InsertOne(db->get(), "t", 1000 + crash_point, "post").ok())
          << "crash point " << crash_point;
    }
    auto digest = (*db)->GenerateDigest();
    ASSERT_TRUE(digest.ok()) << "crash point " << crash_point;
    digests.push_back(*digest);
    auto report2 = VerifyLedger(db->get(), digests);
    ASSERT_TRUE(report2.ok());
    EXPECT_TRUE(report2->ok())
        << "crash point " << crash_point << ": " << report2->Summary();

    // One more clean close/reopen: post-crash commits must be recoverable
    // too (e.g. they must not hide behind a torn tail left in the WAL).
    db->reset();
    auto db2 = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db2.ok()) << "crash point " << crash_point << ": "
                          << db2.status().ToString();
    auto report3 = VerifyLedger(db2->get(), digests);
    ASSERT_TRUE(report3.ok());
    EXPECT_TRUE(report3->ok())
        << "crash point " << crash_point
        << " (second reopen): " << report3->Summary();
  }
  // The loop must have walked past the workload's last sync point.
  EXPECT_TRUE(completed_without_crash);
  // Sanity: the workload has a meaningful number of sync points.
  EXPECT_GT(crash_point, 10);
}

// ---- The torture loop over schema changes ----

// Where a DDL torture run stopped: the schema changes that returned OK, and
// whether one was in flight when the injected fault hit.
struct DdlProgress {
  size_t ddls_done = 0;
  bool ddl_in_flight = false;
};

// Interleaves DML with every kind of schema change, a digest and a
// checkpoint, until an injected fault stops it. `after_ddl` runs after
// each schema change that returned OK.
void RunDdlTortureWorkload(LedgerDatabase* db,
                           std::vector<DatabaseDigest>* durable_digests,
                           DdlProgress* progress,
                           const std::function<void()>& after_ddl) {
  auto ddl = [&](const std::function<Status()>& change) {
    progress->ddl_in_flight = true;
    if (!change().ok()) return false;
    progress->ddl_in_flight = false;
    progress->ddls_done++;
    after_ddl();
    return true;
  };
  auto dml = [&](const std::function<Status(Transaction*)>& body) {
    auto txn = db->Begin("torture");
    if (!txn.ok()) return false;
    Status st = body(*txn);
    if (!st.ok()) {
      db->Abort(*txn);
      return false;
    }
    return db->Commit(*txn).ok();
  };
  auto insert = [&](int64_t id, std::vector<Value> tail) {
    return dml([&](Transaction* txn) {
      Row row{VB(id), VS("v" + std::to_string(id))};
      for (Value& v : tail) row = row.Extended(v);
      return db->Insert(txn, "t", row);
    });
  };
  auto digest = [&] {
    auto d = db->GenerateDigest();
    if (d.ok()) durable_digests->push_back(*d);
    return d.ok();
  };
  const Value no_qty = Value::Null(DataType::kInt);
  bool ok =
      ddl([&] {
        return db->CreateTable("t", DdlUserSchema(), TableKind::kUpdateable);
      }) &&
      insert(0, {Value::Int(10)}) && insert(1, {Value::Int(11)}) &&
      ddl([&] { return db->AddColumn("t", "extra", DataType::kVarchar); }) &&
      insert(2, {Value::Int(12), VS("e2")}) &&
      dml([&](Transaction* txn) {
        return db->Update(txn, "t", {VB(0), VS("u0"), Value::Int(20), VS("e0")});
      }) &&
      digest() &&
      ddl([&] { return db->CreateIndex("t", "by_payload", {"payload"}, false); }) &&
      insert(3, {no_qty, VS("e3")}) &&
      dml([&](Transaction* txn) { return db->Delete(txn, "t", {VB(1)}); }) &&
      ddl([&] { return db->DropColumn("t", "extra"); }) &&
      insert(4, {Value::Int(14)}) && db->Checkpoint().ok() &&
      ddl([&] { return db->AlterColumnType("t", "qty", DataType::kBigInt); }) &&
      insert(5, {VB(15)}) && digest() &&
      ddl([&] { return db->DropIndex("t", "by_payload"); }) &&
      insert(6, {VB(16)}) && ddl([&] { return db->DropTable("t"); });
  if (ok) digest();
}

// A schema change is durable when it returns and atomic with its metadata:
// after a crash at any sync point, the reopened catalog (schema, index set
// and sys_ledger_* rows) is the one from before the DDL in flight or the
// one from after it, never a mix, and verification stays clean. The name
// matches the nightly job's *CrashAtEverySyncPoint* filter, which sweeps
// it over seeds.
TEST_F(FaultInjectionTest, CrashAtEverySyncPointDuringDdl) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  // The catalog after Open and after each schema change, from a run
  // without faults.
  std::vector<std::string> catalogs;
  {
    std::vector<DatabaseDigest> digests;
    DdlProgress progress;
    auto db = LedgerDatabase::Open(MakeOptions("reference", nullptr));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    catalogs.push_back(CatalogSnapshot(db->get()));
    RunDdlTortureWorkload(db->get(), &digests, &progress,
                          [&] { catalogs.push_back(CatalogSnapshot(db->get())); });
    ASSERT_EQ(progress.ddls_done, 7u);
    ASSERT_EQ(digests.size(), 3u);
  }

  bool completed_without_crash = false;
  int crash_point = 1;
  for (; crash_point < 300 && !completed_without_crash; crash_point++) {
    std::string subdir = "ddl_crash" + std::to_string(crash_point);
    FaultInjectionEnv env(nullptr, /*seed=*/1000 * TestSeed() + crash_point);
    env.CrashAtSync(crash_point);

    std::vector<DatabaseDigest> digests;
    DdlProgress progress;
    {
      auto db = LedgerDatabase::Open(MakeOptions(subdir, &env));
      if (db.ok()) RunDdlTortureWorkload(db->get(), &digests, &progress, [] {});
    }
    completed_without_crash = !env.crashed();

    auto db = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db.ok()) << "crash point " << crash_point
                         << ": recovery failed: " << db.status().ToString();
    const std::string catalog = CatalogSnapshot(db->get());
    const bool before = catalog == catalogs[progress.ddls_done];
    const bool after = progress.ddl_in_flight &&
                       catalog == catalogs[progress.ddls_done + 1];
    EXPECT_TRUE(before || after)
        << "crash point " << crash_point << " after " << progress.ddls_done
        << " schema changes" << (progress.ddl_in_flight ? " (one in flight)" : "")
        << ": recovered catalog\n" << catalog;
    auto report = VerifyLedger(db->get(), digests);
    ASSERT_TRUE(report.ok()) << "crash point " << crash_point << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->ok())
        << "crash point " << crash_point << ": " << report->Summary();

    // The recovered catalog is itself durable.
    db->reset();
    auto db2 = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db2.ok()) << "crash point " << crash_point << ": "
                          << db2.status().ToString();
    EXPECT_EQ(CatalogSnapshot(db2->get()), catalog)
        << "crash point " << crash_point;
  }
  EXPECT_TRUE(completed_without_crash);
  EXPECT_GT(crash_point, 20);
}

// ---- The torture loop over a truncation ----

// Where a truncation torture run stopped.
struct TruncationProgress {
  bool started = false;
  bool done = false;
};

// History spanning several blocks (inserts, updates, a checkpoint and
// digests), then TruncateLedger below `below`, then more traffic with a
// checkpoint and a digest, until an injected fault stops it.
// `before_truncate` runs just before the truncation starts.
void RunTruncationTortureWorkload(
    LedgerDatabase* db, uint64_t below,
    std::vector<DatabaseDigest>* durable_digests, TruncationProgress* progress,
    const std::function<void()>& before_truncate) {
  if (!db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok())
    return;
  auto write = [&](int64_t id, bool update) {
    auto txn = db->Begin("torture");
    if (!txn.ok()) return false;
    Row row{VB(id), VS((update ? "u" : "v") + std::to_string(id))};
    Status st =
        update ? db->Update(*txn, "t", row) : db->Insert(*txn, "t", row);
    if (!st.ok()) {
      db->Abort(*txn);
      return false;
    }
    return db->Commit(*txn).ok();
  };
  auto digest = [&] {
    auto d = db->GenerateDigest();
    if (d.ok()) durable_digests->push_back(*d);
    return d.ok();
  };
  for (int64_t i = 0; i < 10; i++) {
    if (!write(i, false) || (i % 2 == 1 && !write(i - 1, true))) return;
    if (i == 5 && (!digest() || !db->Checkpoint().ok())) return;
  }
  if (!digest()) return;
  before_truncate();
  progress->started = true;
  if (!TruncateLedger(db, below, *durable_digests).ok()) return;
  progress->done = true;
  if (write(100, false) && db->Checkpoint().ok() && write(100, true))
    digest();
}

// What `db` holds of the ledger below `below`: its truncation records, and
// the blocks, entries and history rows that truncating there deletes (the
// rows retired by transactions `first_txn` to `last_txn`).
std::string TruncationState(LedgerDatabase* db, uint64_t below,
                            uint64_t first_txn, uint64_t last_txn) {
  DatabaseLedger::LedgerSnapshot snap = db->database_ledger()->Snapshot();
  size_t blocks = 0, entries = 0, history = 0;
  for (const BlockRecord& b : snap.blocks) blocks += b.block_id < below;
  for (const TransactionEntry& e : snap.entries) entries += e.block_id < below;
  auto t = db->GetTableRef("t");
  if (t.ok()) {
    for (BTree::Iterator it = t->history->Scan(); it.Valid(); it.Next()) {
      Cell end_txn = it.value()[t->plan->end_txn_ord];
      if (end_txn.is_null()) continue;
      const auto id = static_cast<uint64_t>(end_txn.AsInt64());
      history += id >= first_txn && id <= last_txn;
    }
  }
  return "records=" + std::to_string(db->GetTruncationRecords().size()) +
         " blocks=" + std::to_string(blocks) +
         " entries=" + std::to_string(entries) +
         " history=" + std::to_string(history);
}

// A truncation is durable when it returns and atomic with its audit row:
// after a crash at any sync point, the reopened ledger holds all of the
// history below the cutoff (no record) or none of it (one record), never a
// mix, and verifies against the digests its caller keeps: all of them, or
// after the truncation those at or after the cutoff. The name matches the
// nightly job's *CrashAtEverySyncPoint* filter, which sweeps it over seeds.
TEST_F(FaultInjectionTest, CrashAtEverySyncPointDuringTruncation) {
  SCOPED_TRACE("SQLLEDGER_TEST_SEED=" + std::to_string(TestSeed()));
  constexpr uint64_t kBelow = 2;
  // The state before and after the truncation, from a run without faults.
  DatabaseLedger::TxnRange range;
  std::string whole, truncated;
  {
    std::vector<DatabaseDigest> digests;
    TruncationProgress progress;
    auto db = LedgerDatabase::Open(MakeOptions("reference", nullptr));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    LedgerDatabase* ref = db->get();
    RunTruncationTortureWorkload(ref, kBelow, &digests, &progress, [&] {
      range = *ref->database_ledger()->CollectTxnsBelow(kBelow);
      whole = TruncationState(ref, kBelow, range.min_txn_id, range.max_txn_id);
    });
    ASSERT_TRUE(progress.done);
    truncated =
        TruncationState(ref, kBelow, range.min_txn_id, range.max_txn_id);
  }
  EXPECT_EQ(whole.rfind("records=0 blocks=2 ", 0), 0u) << whole;
  EXPECT_EQ(whole.find(" history=0"), std::string::npos) << whole;
  EXPECT_EQ(truncated, "records=1 blocks=0 entries=0 history=0");

  bool completed_without_crash = false;
  int crash_point = 1;
  for (; crash_point < 300 && !completed_without_crash; crash_point++) {
    std::string subdir = "trunc_crash" + std::to_string(crash_point);
    FaultInjectionEnv env(nullptr, /*seed=*/1000 * TestSeed() + crash_point);
    env.CrashAtSync(crash_point);

    std::vector<DatabaseDigest> digests;
    TruncationProgress progress;
    {
      auto db = LedgerDatabase::Open(MakeOptions(subdir, &env));
      if (db.ok())
        RunTruncationTortureWorkload(db->get(), kBelow, &digests, &progress,
                                     [] {});
    }
    completed_without_crash = !env.crashed();

    auto db = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db.ok()) << "crash point " << crash_point
                         << ": recovery failed: " << db.status().ToString();
    const std::string state =
        TruncationState(db->get(), kBelow, range.min_txn_id, range.max_txn_id);
    const bool is_truncated = state == truncated;
    const bool allowed = progress.done      ? is_truncated
                         : progress.started ? state == whole || is_truncated
                                            : state.rfind("records=0", 0) == 0;
    EXPECT_TRUE(allowed) << "crash point " << crash_point
                         << (progress.done      ? " after the truncation"
                             : progress.started ? " during the truncation"
                                                : " before the truncation")
                         << ": recovered " << state;
    std::vector<DatabaseDigest> kept;
    for (const DatabaseDigest& d : digests)
      if (!is_truncated || d.block_id >= kBelow) kept.push_back(d);
    auto report = VerifyLedger(db->get(), kept);
    ASSERT_TRUE(report.ok()) << "crash point " << crash_point << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->ok())
        << "crash point " << crash_point << ": " << report->Summary();

    // The recovered state is itself durable.
    db->reset();
    auto db2 = LedgerDatabase::Open(MakeOptions(subdir, nullptr));
    ASSERT_TRUE(db2.ok()) << "crash point " << crash_point << ": "
                          << db2.status().ToString();
    EXPECT_EQ(TruncationState(db2->get(), kBelow, range.min_txn_id,
                              range.max_txn_id),
              state)
        << "crash point " << crash_point;
  }
  EXPECT_TRUE(completed_without_crash);
  EXPECT_GT(crash_point, 20);
}

}  // namespace
}  // namespace sqlledger

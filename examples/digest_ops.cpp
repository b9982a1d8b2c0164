// Digest-management operations example (paper §2.4, §3.6): periodic digest
// uploads to a directory-backed immutable blob store, fork detection at
// upload time, durable restart, and a point-in-time-restore producing a new
// database incarnation whose digests coexist with the original's.
//
//   ./digest_ops <work_dir>

#include <cstdio>
#include <filesystem>

#include "ledger/digest_store.h"
#include "ledger/verifier.h"

using namespace sqlledger;

namespace {
std::unique_ptr<LedgerDatabase> OpenDb(const std::string& dir) {
  LedgerDatabaseOptions options;
  options.data_dir = dir;
  options.database_id = "digest-demo";
  options.block_size = 4;
  auto db = LedgerDatabase::Open(std::move(options));
  if (!db.ok()) {
    std::printf("open failed: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*db);
}

void MustInsert(LedgerDatabase* db, int64_t id, const std::string& note) {
  auto txn = db->Begin("app");
  Status st = db->Insert(*txn, "events",
                         {Value::BigInt(id), Value::Varchar(note)});
  if (st.ok()) st = db->Commit(*txn);
  if (!st.ok()) {
    std::printf("insert failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

// Uploads a fresh digest through the database's digest pipeline, whose
// chain check refuses a digest not derivable from the newest one the store
// holds for this incarnation (fork detection, §3.3.1).
DatabaseDigest MustUploadDigest(LedgerDatabase* db) {
  DigestUploadPipeline* pipeline = db->digest_pipeline();
  Status st = pipeline->GenerateAndSubmit();
  if (st.ok()) st = pipeline->DrainFully();
  if (!st.ok()) {
    std::printf("digest upload failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return *db->latest_durable_digest();
}

void MustStartProtection(LedgerDatabase* db, DigestStore* store) {
  Status st = db->StartDigestProtection(store);
  if (!st.ok()) {
    std::printf("digest protection failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main(int argc, char** argv) {
  std::string work_dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "sqlledger_digest_ops")
                     .string();
  std::filesystem::remove_all(work_dir);
  std::string db_dir = work_dir + "/db";
  std::string blob_dir = work_dir + "/immutable_blobs";

  auto store_result = ImmutableBlobDigestStore::Open(blob_dir);
  if (!store_result.ok()) return 1;
  auto store = std::move(*store_result);

  // Phase 1: create, load, upload digests on a cadence.
  {
    auto db = OpenDb(db_dir);
    Schema events;
    events.AddColumn("event_id", DataType::kBigInt, false);
    events.AddColumn("note", DataType::kVarchar, false, 64);
    events.SetPrimaryKey({0});
    if (!db->CreateTable("events", events, TableKind::kAppendOnly).ok())
      return 1;
    MustStartProtection(db.get(), store.get());
    for (int64_t i = 1; i <= 12; i++) {
      MustInsert(db.get(), i, "event " + std::to_string(i));
      if (i % 4 == 0) {
        DatabaseDigest digest = MustUploadDigest(db.get());
        std::printf("uploaded digest: block=%llu incarnation=%s\n",
                    static_cast<unsigned long long>(digest.block_id),
                    digest.database_create_time.c_str());
      }
    }
    if (!db->Checkpoint().ok()) return 1;
  }

  // Phase 2: restart and continue — digests keep chaining from the newest
  // stored digest, no fork.
  {
    auto db = OpenDb(db_dir);
    MustStartProtection(db.get(), store.get());
    MustInsert(db.get(), 13, "after restart");
    DatabaseDigest digest = MustUploadDigest(db.get());
    std::printf("post-restart digest chains cleanly (block %llu)\n",
                static_cast<unsigned long long>(digest.block_id));
    if (!db->Checkpoint().ok()) return 1;
  }

  // Phase 3: point-in-time restore via the Restore helper — copies the
  // durable state and opens it as a new incarnation. Digests of BOTH
  // incarnations are retained in the store.
  std::string restored_dir = work_dir + "/db_restored";
  {
    LedgerDatabaseOptions restore_options;
    restore_options.data_dir = restored_dir;
    restore_options.database_id = "digest-demo";
    restore_options.block_size = 4;
    auto restore_result =
        LedgerDatabase::Restore(db_dir, std::move(restore_options));
    if (!restore_result.ok()) {
      std::printf("restore failed: %s\n",
                  restore_result.status().ToString().c_str());
      return 1;
    }
    auto restored = std::move(*restore_result);
    MustStartProtection(restored.get(), store.get());
    MustInsert(restored.get(), 14, "diverged after restore");
    DatabaseDigest digest = MustUploadDigest(restored.get());
    std::printf("restored incarnation digest: incarnation=%s\n",
                digest.database_create_time.c_str());

    auto all = store->ListAll();
    std::printf("\ndigest store now holds %zu digests:\n", all->size());
    for (const DatabaseDigest& d : *all) {
      std::printf("  incarnation=%s block=%llu\n",
                  d.database_create_time.c_str(),
                  static_cast<unsigned long long>(d.block_id));
    }

    // Verify the restored database with its incarnation's digests plus the
    // original digests it inherited (they cover shared prefix blocks).
    auto report = VerifyLedger(restored.get(), *all);
    std::printf("\nrestored-db verification: %s\n", report->Summary().c_str());
    if (!report->ok()) return 1;
  }

  std::printf("\ndone. blobs under %s are write-protected (try editing one).\n",
              blob_dir.c_str());
  return 0;
}

// Supply-chain recall example — the paper's §2.5.1 Contoso scenario, end to
// end: a car manufacturer tracks parts in a ledger table; years later a
// recall lawsuit motivates an insider to rewrite which batch a part came
// from; the externally stored digests prove the tampering, and the ledger
// view reconstructs the true history.
//
//   ./supply_chain_recall

#include <cstdio>
#include <filesystem>

#include "ledger/digest_store.h"
#include "ledger/verifier.h"

using namespace sqlledger;

int main() {
  LedgerDatabaseOptions options;
  options.database_id = "contoso-manufacturing";
  options.block_size = 8;
  auto db_result = LedgerDatabase::Open(std::move(options));
  if (!db_result.ok()) return 1;
  auto db = std::move(*db_result);

  Schema parts;
  parts.AddColumn("part_id", DataType::kBigInt, false);
  parts.AddColumn("part_type", DataType::kVarchar, false, 24);
  parts.AddColumn("batch", DataType::kVarchar, false, 24);
  parts.AddColumn("installed_vin", DataType::kVarchar, true, 20);
  parts.SetPrimaryKey({0});
  if (!db->CreateTable("parts", parts, TableKind::kUpdateable).ok()) return 1;

  // Digests reach the partners' store through the upload pipeline; the
  // in-memory database keeps its outbox in a scratch directory.
  InMemoryDigestStore trusted;
  DigestPipelineOptions protection;
  std::filesystem::path outbox = std::filesystem::temp_directory_path() /
                                 "sqlledger_supply_chain_outbox";
  std::filesystem::remove_all(outbox);
  protection.outbox_dir = outbox.string();
  if (!db->StartDigestProtection(&trusted, protection).ok()) return 1;
  auto upload_digest = [&db] {
    Status st = db->digest_pipeline()->GenerateAndSubmit();
    return st.ok() ? db->digest_pipeline()->DrainFully() : st;
  };

  // === 2018: honest manufacturing ===
  std::printf("2018: manufacturing and installing brake parts...\n");
  for (int64_t i = 1; i <= 30; i++) {
    auto txn = db->Begin("factory-floor");
    std::string batch = (i % 3 == 0) ? "BRK-2018-B7" : "BRK-2018-B6";
    Status st = db->Insert(
        *txn, "parts",
        {Value::BigInt(i), Value::Varchar("brake-caliper"),
         Value::Varchar(batch), Value::Null(DataType::kVarchar)});
    if (st.ok()) st = db->Commit(*txn);
    if (!st.ok()) return 1;
    if (i % 10 == 0 && !upload_digest().ok()) return 1;
  }
  // Part 12 (batch B7) goes into Bob's car.
  {
    auto txn = db->Begin("assembly");
    (void)db->Update(*txn, "parts",
                     {Value::BigInt(12), Value::Varchar("brake-caliper"),
                      Value::Varchar("BRK-2018-B7"),
                      Value::Varchar("VIN-BOB-001")});
    (void)db->Commit(*txn);
  }
  if (!upload_digest().ok()) return 1;

  // === 2019: batch B7 is recalled ===
  std::printf("2019: batch BRK-2018-B7 recalled.\n");

  // === 2020: Bob's collision and lawsuit ===
  std::printf("2020: lawsuit — was Bob's caliper from the recalled batch?\n");

  // An insider rewrites part 12's batch at the storage layer AND plants a
  // consistent-looking history row — full DBA powers (threat model §2.5.2).
  auto ref = db->GetTableRef("parts");
  Row* live = ref->main->mutable_clustered()->MutableGet({Value::BigInt(12)});
  (*live)[2] = Value::Varchar("BRK-2018-B6");
  std::printf("\n[insider rewrites part 12's batch to BRK-2018-B6]\n\n");

  // The court-appointed auditor verifies against the digests Contoso's
  // partners have held since 2018.
  auto digests = trusted.ListAll();
  auto report = VerifyLedger(db.get(), *digests);
  std::printf("audit result: %s\n\n", report->Summary().c_str());
  if (report->ok()) {
    std::printf("ERROR: tampering was not detected!\n");
    return 1;
  }

  // Forensics: the ledger view reconstructs part 12's true lifecycle from
  // the history table (which the insider did not manage to forge
  // consistently — doing so is what the Merkle roots prevent).
  auto view = db->GetLedgerView("parts");
  std::printf("ledger view entries for part 12:\n");
  for (const LedgerViewRow& row : *view) {
    if (row.values[0].AsInt64() != 12) continue;
    std::printf("  txn %llu  %-6s  batch=%s vin=%s\n",
                static_cast<unsigned long long>(row.transaction_id),
                row.operation.c_str(), row.values[2].ToString().c_str(),
                row.values[3].ToString().c_str());
  }
  std::printf(
      "\nConclusion: cryptographic evidence shows part 12 was installed from "
      "batch BRK-2018-B7\nbefore the recall, and the record was altered "
      "afterwards. Forward integrity holds.\n");
  return 0;
}

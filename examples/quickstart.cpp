// Quickstart: create a ledger table, run transactions, generate a digest,
// tamper with the data below the API, and catch it with verification.
//
//   ./quickstart

#include <cstdio>

#include "ledger/ledger_database.h"
#include "ledger/verifier.h"

using namespace sqlledger;

int main() {
  // 1. Open an (ephemeral) ledger database.
  LedgerDatabaseOptions options;
  options.database_id = "quickstart";
  options.block_size = 4;  // tiny blocks so the demo shows several
  auto db_result = LedgerDatabase::Open(std::move(options));
  if (!db_result.ok()) {
    std::printf("open failed: %s\n", db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*db_result);

  // 2. Create an updateable ledger table (paper Figure 2's schema).
  Schema accounts;
  accounts.AddColumn("name", DataType::kVarchar, /*nullable=*/false, 32);
  accounts.AddColumn("balance", DataType::kBigInt, false);
  accounts.SetPrimaryKey({0});
  Status st = db->CreateTable("accounts", accounts, TableKind::kUpdateable);
  if (!st.ok()) {
    std::printf("create table failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. Run a few transactions.
  auto run = [&](const char* who, auto body) {
    auto txn = db->Begin(who);
    Status s = body(*txn);
    if (!s.ok()) {
      db->Abort(*txn);
      std::printf("txn failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    s = db->Commit(*txn);
    if (!s.ok()) std::exit(1);
  };
  run("alice", [&](Transaction* txn) {
    return db->Insert(txn, "accounts",
                      {Value::Varchar("Nick"), Value::BigInt(50)});
  });
  run("alice", [&](Transaction* txn) {
    return db->Insert(txn, "accounts",
                      {Value::Varchar("John"), Value::BigInt(500)});
  });
  run("bob", [&](Transaction* txn) {
    return db->Update(txn, "accounts",
                      {Value::Varchar("Nick"), Value::BigInt(100)});
  });

  // 4. Generate a Database Digest — this is what you store OUTSIDE the
  // database (immutable blob storage, a WORM device, a public blockchain).
  auto digest = db->GenerateDigest();
  std::printf("digest: %s\n", digest->ToJson().c_str());

  // 5. The ledger view shows every row operation with its transaction.
  auto view = db->GetLedgerView("accounts");
  auto ref = db->GetTableRef("accounts");
  std::printf("\nledger view:\n%s\n",
              FormatLedgerView(*ref->plan, *view).c_str());

  // 6. Verification passes on the untampered database...
  auto report = VerifyLedger(db.get(), {*digest});
  std::printf("%s\n", report->Summary().c_str());

  // 7. ...then an "attacker with storage access" edits a balance directly,
  // bypassing the database API entirely.
  TableStore* store = db->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({Value::Varchar("John")});
  (*row)[1] = Value::BigInt(5000000);
  std::printf("\n[attacker sets John's balance to 5000000 in storage]\n\n");

  // 8. Verification against the externally held digest exposes it.
  report = VerifyLedger(db.get(), {*digest});
  std::printf("%s\n", report->Summary().c_str());
  return report->ok() ? 1 : 0;  // we EXPECT the tampering to be caught
}

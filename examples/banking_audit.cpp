// Banking audit example: a small core-banking ledger with accounts and an
// append-only transfer journal, periodic digest uploads to (simulated)
// immutable blob storage, transaction receipts for customers, and an
// auditor pass at the end.
//
//   ./banking_audit [data_dir]

#include <cstdio>
#include <filesystem>

#include "ledger/digest_store.h"
#include "ledger/receipt.h"
#include "ledger/verifier.h"
#include "util/random.h"

using namespace sqlledger;

namespace {
Status Transfer(LedgerDatabase* db, int64_t from, int64_t to, int64_t amount,
                int64_t journal_id, uint64_t* txn_id_out) {
  auto txn = db->Begin("teller");
  if (!txn.ok()) return txn.status();
  *txn_id_out = (*txn)->id();
  auto fail = [&](Status st) {
    db->Abort(*txn);
    return st;
  };

  auto src = db->Get(*txn, "accounts", {Value::BigInt(from)});
  if (!src.ok()) return fail(src.status());
  auto dst = db->Get(*txn, "accounts", {Value::BigInt(to)});
  if (!dst.ok()) return fail(dst.status());
  if ((*src)[1].AsInt64() < amount)
    return fail(Status::InvalidArgument("insufficient funds"));

  Status st = db->Update(*txn, "accounts",
                         {Value::BigInt(from),
                          Value::BigInt((*src)[1].AsInt64() - amount)});
  if (!st.ok()) return fail(st);
  st = db->Update(*txn, "accounts",
                  {Value::BigInt(to),
                   Value::BigInt((*dst)[1].AsInt64() + amount)});
  if (!st.ok()) return fail(st);
  // The journal is append-only: even DBAs cannot quietly rewrite it.
  st = db->Insert(*txn, "transfer_journal",
                  {Value::BigInt(journal_id), Value::BigInt(from),
                   Value::BigInt(to), Value::BigInt(amount),
                   Value::Timestamp(db->NowMicros())});
  if (!st.ok()) return fail(st);
  return db->Commit(*txn);
}
}  // namespace

int main(int argc, char** argv) {
  LedgerDatabaseOptions options;
  options.database_id = "corebank";
  options.block_size = 16;
  if (argc > 1) options.data_dir = argv[1];
  auto db_result = LedgerDatabase::Open(std::move(options));
  if (!db_result.ok()) {
    std::printf("open failed: %s\n", db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*db_result);

  Schema accounts;
  accounts.AddColumn("account_id", DataType::kBigInt, false);
  accounts.AddColumn("balance", DataType::kBigInt, false);
  accounts.SetPrimaryKey({0});
  Schema journal;
  journal.AddColumn("journal_id", DataType::kBigInt, false);
  journal.AddColumn("from_account", DataType::kBigInt, false);
  journal.AddColumn("to_account", DataType::kBigInt, false);
  journal.AddColumn("amount", DataType::kBigInt, false);
  journal.AddColumn("at", DataType::kTimestamp, false);
  journal.SetPrimaryKey({0});

  if (!db->CreateTable("accounts", accounts, TableKind::kUpdateable).ok() ||
      !db->CreateTable("transfer_journal", journal, TableKind::kAppendOnly)
           .ok()) {
    std::printf("schema setup failed\n");
    return 1;
  }

  // Open 10 accounts with 1000 each.
  {
    auto txn = db->Begin("onboarding");
    for (int64_t i = 1; i <= 10; i++) {
      if (!db->Insert(*txn, "accounts", {Value::BigInt(i), Value::BigInt(1000)})
               .ok()) {
        return 1;
      }
    }
    if (!db->Commit(*txn).ok()) return 1;
  }

  // Digest protection through the upload pipeline. A durable database keeps
  // its outbox under data_dir; an in-memory one needs a scratch directory.
  InMemoryDigestStore trusted_store;
  DigestPipelineOptions protection;
  if (argc <= 1) {
    std::filesystem::path outbox = std::filesystem::temp_directory_path() /
                                   "sqlledger_banking_audit_outbox";
    std::filesystem::remove_all(outbox);
    protection.outbox_dir = outbox.string();
  }
  if (!db->StartDigestProtection(&trusted_store, protection).ok()) return 1;
  DigestUploadPipeline* pipeline = db->digest_pipeline();
  Random rng(2024);
  uint64_t receipt_txn = 0;
  int64_t journal_id = 1;
  for (int batch = 0; batch < 5; batch++) {
    for (int i = 0; i < 20; i++) {
      int64_t from = rng.UniformRange(1, 10);
      int64_t to = rng.UniformRange(1, 10);
      if (from == to) continue;
      uint64_t txn_id = 0;
      Status st = Transfer(db.get(), from, to, rng.UniformRange(1, 50),
                           journal_id++, &txn_id);
      if (st.ok()) receipt_txn = txn_id;
    }
    // Digests every "few seconds" (paper §2.4); the pipeline performs the
    // fork check against the previous digest before queueing the upload.
    Status st = pipeline->GenerateAndSubmit();
    if (st.ok()) st = pipeline->DrainFully();
    if (!st.ok()) {
      std::printf("digest upload failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("uploaded digest for block %llu\n",
                static_cast<unsigned long long>(
                    db->latest_durable_digest()->block_id));
  }

  // A customer asks for a receipt proving their transfer happened.
  auto receipt = MakeTransactionReceipt(db.get(), receipt_txn);
  if (!receipt.ok()) {
    std::printf("receipt failed: %s\n", receipt.status().ToString().c_str());
    return 1;
  }
  bool receipt_ok = VerifyTransactionReceipt(*receipt, db->signer());
  std::printf("\nreceipt for txn %llu verifies offline: %s\n",
              static_cast<unsigned long long>(receipt_txn),
              receipt_ok ? "yes" : "NO");
  std::printf("receipt JSON (%zu bytes, O(log block) proof)\n",
              receipt->ToJson().size());

  // Total balance must be conserved across all transfers.
  {
    auto txn = db->Begin("auditor");
    auto rows = db->Scan(*txn, "accounts");
    int64_t total = 0;
    for (const Row& row : *rows) total += row[1].AsInt64();
    (void)db->Commit(*txn);
    std::printf("total balance: %lld (expected 10000)\n",
                static_cast<long long>(total));
  }

  // The annual audit: verify everything against every digest ever issued.
  auto digests = trusted_store.ListAll();
  auto report = VerifyLedger(db.get(), *digests);
  std::printf("\naudit: %s\n", report->Summary().c_str());
  return report->ok() && receipt_ok ? 0 : 1;
}

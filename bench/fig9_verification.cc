// Figure 9 reproduction: ledger verification time for different numbers of
// transactions. Each transaction updates five rows of a ledger table;
// every row is 260 bytes wide (paper §4.2).
//
// Paper result: verification time grows linearly with the number of
// transactions (and row versions) processed. We reproduce the linear
// scaling; absolute times differ (testbed vs container). Verification hash
// recomputation partitions *within* the single table, so the sweep also
// reports the parallel (4-thread) wall time next to the serial one.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "crypto/sha256.h"
#include "ledger/verifier.h"

using namespace sqlledger;

namespace {

Schema WideSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 244);
  s.SetPrimaryKey({0});
  return s;
}

struct Timings {
  double serial_s = 0;
  double parallel_s = 0;
};

Timings VerificationSeconds(int txns) {
  LedgerDatabaseOptions options;
  options.block_size = 100000;
  options.database_id = "fig9";
  auto opened = LedgerDatabase::Open(std::move(options));
  if (!opened.ok()) std::exit(1);
  auto db = std::move(*opened);
  if (!db->CreateTable("t", WideSchema(), TableKind::kUpdateable).ok())
    std::exit(1);

  const std::string payload(244, 'x');
  int64_t next_id = 1;
  for (int i = 0; i < txns; i++) {
    auto txn = db->Begin("load");
    for (int r = 0; r < 5; r++) {  // five rows per transaction (paper)
      Status st = db->Insert(*txn, "t",
                             {Value::BigInt(next_id++), Value::BigInt(r),
                              Value::Varchar(payload)});
      if (!st.ok()) std::exit(1);
    }
    if (!db->Commit(*txn).ok()) std::exit(1);
  }
  auto digest = db->GenerateDigest();
  if (!digest.ok()) std::exit(1);

  Timings t;
  for (unsigned parallelism : {1u, 4u}) {
    VerificationOptions vopts;
    vopts.parallelism = parallelism;
    auto start = std::chrono::steady_clock::now();
    auto report = VerifyLedger(db.get(), {*digest}, vopts);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (!report.ok() || !report->ok()) {
      std::printf("unexpected verification failure\n");
      std::exit(1);
    }
    (parallelism == 1 ? t.serial_s : t.parallel_s) = elapsed;
  }
  return t;
}

}  // namespace

int main() {
  std::printf("=== Figure 9: ledger verification time vs transaction count "
              "===\n");
  std::printf("(each transaction updates five 260-byte rows; sha256 kernel: "
              "%s)\n\n", Sha256::KernelName());
  std::printf("%14s %14s %14s %18s\n", "Transactions", "Serial (s)",
              "4 threads (s)", "us per txn (p=1)");

  for (int txns : {500, 1000, 2000, 4000, 8000, 16000}) {
    Timings t = VerificationSeconds(txns);
    std::printf("%14d %14.3f %14.3f %18.1f\n", txns, t.serial_s,
                t.parallel_s, t.serial_s / txns * 1e6);
  }
  std::printf("\npaper: verification time proportional to the number of "
              "transactions\n");
  std::printf("expected shape: us-per-transaction roughly constant across "
              "the sweep\n");
  return 0;
}

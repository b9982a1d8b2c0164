// Figure 7 reproduction: throughput of SQL Ledger compared to the
// traditional engine (no ledger), for a TPC-C-like (update-intensive) and a
// TPC-E-like (read-heavy) workload.
//
// Paper result (72-core Xeon): TPC-C -30.6%, TPC-E -6.9%. We reproduce the
// *shape*: the ledger overhead is several times larger for TPC-C than for
// TPC-E, because the overhead is tied to row modifications (history insert
// + SHA-256 per version).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "ledger/ledger_database.h"
#include "util/random.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

using namespace sqlledger;

namespace {

std::unique_ptr<LedgerDatabase> OpenDb(bool enable_ledger) {
  LedgerDatabaseOptions options;
  options.enable_ledger = enable_ledger;
  options.block_size = 100000;  // the paper's block size
  options.database_id = "fig7";
  // Durable configuration: commits append to the WAL, as in the paper's
  // system (group fsync disabled, like an OS-cached log device).
  std::string dir = (std::filesystem::temp_directory_path() /
                     (enable_ledger ? "sl_fig7_ledger" : "sl_fig7_plain"))
                        .string();
  std::filesystem::remove_all(dir);
  options.data_dir = dir;
  auto db = LedgerDatabase::Open(std::move(options));
  if (!db.ok()) std::exit(1);
  return std::move(*db);
}

template <typename Workload, typename Config, typename Stats>
double RunTps(bool ledger, Config config, int txns) {
  auto db = OpenDb(ledger);
  config.ledger_tables = ledger;
  Workload workload(db.get(), config);
  Status st = workload.Setup();
  if (!st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  Random rng(42);
  Stats stats;
  // Warm-up.
  for (int i = 0; i < txns / 10; i++) (void)workload.RunTransaction(&rng, &stats);

  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < txns; i++) {
    st = workload.RunTransaction(&rng, &stats);
    if (!st.ok()) {
      std::printf("txn failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return static_cast<double>(txns) / elapsed;
}

}  // namespace

int main() {
  const int kTxns = 4000;

  std::printf("=== Figure 7: throughput of SQL Ledger vs traditional engine "
              "===\n\n");

  double tpcc_ledger =
      RunTps<TpccWorkload, TpccConfig, TpccStats>(true, TpccConfig{}, kTxns);
  double tpcc_plain =
      RunTps<TpccWorkload, TpccConfig, TpccStats>(false, TpccConfig{}, kTxns);

  TpceConfig tpce_config;
  double tpce_ledger = RunTps<TpceWorkload, TpceConfig, TpceStats>(
      true, tpce_config, kTxns);
  double tpce_plain = RunTps<TpceWorkload, TpceConfig, TpceStats>(
      false, tpce_config, kTxns);

  double tpcc_diff = (tpcc_ledger - tpcc_plain) / tpcc_plain * 100.0;
  double tpce_diff = (tpce_ledger - tpce_plain) / tpce_plain * 100.0;

  std::printf("%-10s %14s %14s %22s\n", "Workload", "Ledger (tps)",
              "Regular (tps)", "Performance difference");
  std::printf("%-10s %14.0f %14.0f %21.1f%%\n", "TPC-C", tpcc_ledger,
              tpcc_plain, tpcc_diff);
  std::printf("%-10s %14.0f %14.0f %21.1f%%\n", "TPC-E", tpce_ledger,
              tpce_plain, tpce_diff);
  std::printf("\npaper (72-core testbed): TPC-C -30.6%%, TPC-E -6.9%%\n");
  std::printf("expected shape: both negative; TPC-C overhead several times "
              "TPC-E overhead\n");
  return 0;
}

// verify_tool: the auditor's command-line workflow. Points at a database
// directory and an immutable digest-store directory, downloads every digest
// for the database, runs full verification (optionally parallel / table
// subset), and prints the report. Exit code 0 = intact, 2 = tampering
// detected — suitable for cron-driven continuous monitoring (paper §2.3:
// "executed hourly or daily, for cases where the integrity of the database
// needs to be continuously monitored").
//
// --incremental resumes from the watermark a previous clean run persisted
// in <data_dir>/verify_state.sldb (DESIGN.md §11): identical verdicts,
// O(delta) cost — the steady state for that cron-driven auditor.
//
// --stats additionally dumps the metrics-registry snapshot as JSON after
// the report (DESIGN.md §13) — verification phase timings, fallback causes
// and recovery durations of exactly this run.
//
//   ./verify_tool [--incremental] [--stats] <data_dir> <digest_store_dir>
//                 [database_id] [table ...]

#include <cstdio>
#include <cstring>

#include "ledger/digest_store.h"
#include "ledger/verifier.h"
#include "util/metrics.h"

using namespace sqlledger;

int main(int argc, char** argv) {
  bool incremental = false;
  bool stats_json = false;
  int arg = 1;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strcmp(argv[arg], "--incremental") == 0) {
      incremental = true;
    } else if (std::strcmp(argv[arg], "--stats") == 0) {
      stats_json = true;
    } else {
      std::printf("unknown flag: %s\n", argv[arg]);
      return 64;
    }
    arg++;
  }
  if (argc - arg < 2) {
    std::printf(
        "usage: %s [--incremental] [--stats] <data_dir> <digest_store_dir> "
        "[database_id] [table ...]\n",
        argv[0]);
    return 64;
  }
  std::string data_dir = argv[arg++];
  std::string store_dir = argv[arg++];
  std::string database_id = arg < argc ? argv[arg++] : "sqlledger";

  LedgerDatabaseOptions options;
  options.data_dir = data_dir;
  options.database_id = database_id;
  auto db = LedgerDatabase::Open(std::move(options));
  if (!db.ok()) {
    std::printf("cannot open database: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto store = ImmutableBlobDigestStore::Open(store_dir);
  if (!store.ok()) {
    std::printf("cannot open digest store: %s\n",
                store.status().ToString().c_str());
    return 1;
  }

  VerificationOptions verify_options;
  verify_options.parallelism = 4;
  for (; arg < argc; arg++) verify_options.tables.push_back(argv[arg]);

  std::printf("database: %s (incarnation %s)\n\n", database_id.c_str(),
              (*db)->create_time().c_str());

  auto report = VerifyLedgerAgainstStore(db->get(), **store, verify_options,
                                         incremental);
  if (!report.ok()) {
    std::printf("verification could not run: %s\n",
                report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->Summary().c_str());
  if (stats_json)
    std::printf("\n%s\n",
                MetricsToJson((*db)->MetricsSnapshot()).DumpPretty().c_str());
  return report->ok() ? 0 : 2;
}

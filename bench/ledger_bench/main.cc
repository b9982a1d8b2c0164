// ledger_bench: one run of one workload.
//
//   ledger_bench --workload <tpcc|tpcc_plain|tpce|audit> --seed <n>
//                --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//                [--git-sha <sha>]
//
// Prints one JSON line on stdout: the correctness verdict, request counts,
// every metric the workload measured by name with its sample count, the
// errors of failed checks and the environment record. run.py turns it into the benchmark's
// result format. Exits 0 only if every correctness check passed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using ledger_bench::BenchOptions;
using ledger_bench::RunResult;
using sqlledger::JsonValue;

int Usage(const char* why) {
  std::fprintf(stderr,
               "ledger_bench: %s\nusage: ledger_bench --workload "
               "<tpcc|tpcc_plain|tpce|audit> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out-dir <dir>] [--git-sha <sha>]\n",
               why);
  return 64;
}

bool ParseArgs(int argc, char** argv, BenchOptions* o, std::string* error) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    if (size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    if (arg == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        *error = "missing value for " + arg;
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      o->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (arg == "--out-dir") {
      o->out_dir = value;
    } else if (arg == "--git-sha") {
      o->git_sha = value;
    } else {
      *error = "unknown argument " + arg;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad number for " + arg + ": " + value;
      return false;
    }
  }
  if (o->workload != "tpcc" && o->workload != "tpcc_plain" &&
      o->workload != "tpce" && o->workload != "audit") {
    *error = "unknown workload '" + o->workload + "'";
    return false;
  }
  if (!(o->seconds > 0 && o->seconds <= 600)) {
    *error = "--seconds must be in (0, 600]";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) return Usage(error.c_str());

  const std::string work_dir = options.out_dir + "/work-" + options.workload +
                               "-" + std::to_string(::getpid());
  ledger_bench::RemoveTree(work_dir);
  if (!ledger_bench::MakeDirs(work_dir)) {
    std::fprintf(stderr, "ledger_bench: cannot create %s\n", work_dir.c_str());
    return 1;
  }
  RunResult r = options.workload == "audit"
                    ? ledger_bench::RunAudit(options, work_dir)
                    : ledger_bench::RunOltp(options, work_dir);
  ledger_bench::RemoveTree(work_dir);
  // rss_peak_mb is the serving phase's peak (taken before the recovery
  // reopen); the whole process's peak includes recovery's transient copy.
  r.details.Set("rss_peak_mb_process",
                JsonValue::Double(ledger_bench::PeakRssMb()));

  JsonValue doc = JsonValue::Object();
  doc.Set("workload", JsonValue::Str(options.workload));
  doc.Set("seed", JsonValue::Int(static_cast<int64_t>(options.seed)));
  doc.Set("trace", JsonValue::Bool(options.trace));
  doc.Set("correct", JsonValue::Bool(r.correct));
  doc.Set("attempted", JsonValue::Int(static_cast<int64_t>(r.attempted)));
  doc.Set("failed", JsonValue::Int(static_cast<int64_t>(r.failed)));
  JsonValue values = JsonValue::Object();
  for (const auto& [name, v] : r.values) values.Set(name, JsonValue::Double(v));
  doc.Set("values", std::move(values));
  JsonValue samples = JsonValue::Object();
  for (const auto& [name, n] : r.samples)
    samples.Set(name, JsonValue::Int(static_cast<int64_t>(n)));
  doc.Set("samples", std::move(samples));
  JsonValue errors = JsonValue::Array();
  for (const std::string& e : r.errors) errors.Append(JsonValue::Str(e));
  doc.Set("errors", std::move(errors));
  doc.Set("details", std::move(r.details));
  std::printf("%s\n", doc.Dump().c_str());
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "ledger_bench: CHECK FAILED: %s\n", e.c_str());
  return r.correct ? 0 : 1;
}

// Simulator throughput: ops/second the differential harness sustains, with
// and without the adversarial mix. This bounds how much coverage a nightly
// budget buys (ops_per_sec * wall_budget = explored ops). The simulated
// database syncs its WAL, so wall ops/s mostly follows the disk's fsync
// latency; the process CPU time per op beside it does not, and is the
// number that flags regressions in the harness itself — a 2x slowdown
// halves nightly coverage just as surely as a generator bug would.
//
// Usage: sim_throughput [ops_per_run]   (default 2000; 3 seeds per mix)

#include <time.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "sim/driver.h"

namespace {

double ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

struct RunStats {
  double wall_secs = 0;
  double cpu_micros = 0;
};

RunStats RunOnce(const std::string& dir, uint64_t seed, size_t ops,
                 bool adversarial) {
  sqlledger::sim::SimConfig config;
  config.seed = seed;
  config.gen.ops = ops;
  config.data_dir = dir;
  config.gen.enable_crash = adversarial;
  config.gen.enable_tamper = adversarial;
  config.gen.enable_truncate = adversarial;

  const double cpu_start = ProcessCpuMicros();
  auto start = std::chrono::steady_clock::now();
  sqlledger::sim::SimResult result = sqlledger::sim::RunSim(config);
  RunStats stats;
  stats.wall_secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  stats.cpu_micros = ProcessCpuMicros() - cpu_start;
  if (!result.ok) {
    std::fprintf(stderr, "DIVERGED (seed %llu): %s\n",
                 static_cast<unsigned long long>(seed),
                 result.message.c_str());
    std::exit(1);
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  size_t ops = 2000;
  if (argc > 1) ops = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));
  std::string dir =
      (std::filesystem::temp_directory_path() / "sqlledger_sim_bench")
          .string();

  std::printf("%-28s %12s %14s\n", "configuration", "ops/sec",
              "cpu_us_per_op");
  for (bool adversarial : {false, true}) {
    double ops_per_sec = 0;
    double cpu_micros = 0;
    const int kSeeds = 3;
    for (int s = 1; s <= kSeeds; s++) {
      RunStats stats = RunOnce(dir, static_cast<uint64_t>(s), ops, adversarial);
      ops_per_sec += static_cast<double>(ops) / stats.wall_secs;
      cpu_micros += stats.cpu_micros;
    }
    std::printf("%-28s %12.0f %14.1f\n",
                adversarial ? "adversarial (crash+tamper)" : "clean workload",
                ops_per_sec / kSeeds,
                cpu_micros / (static_cast<double>(ops) * kSeeds));
  }
  std::filesystem::remove_all(dir);
  return 0;
}

// Hashing-pipeline smoke benchmark: a fast, machine-readable summary of the
// hardware-accelerated hashing layer. Runs in seconds (CI-friendly) and
// writes BENCH_hashing.json with:
//
//   - single-shot SHA-256 MB/s for every kernel available on this machine
//     (scalar always; sha-ni / armv8-ce when the hardware has them);
//   - leaf hashing (one MerkleLeafHash call per leaf) leaves/s and MB/s;
//   - streaming Merkle root throughput;
//   - fig9-style ledger verification wall time at parallelism 1 and 4,
//     with row-versions/s.
//
// The JSON lets CI and before/after comparisons consume the numbers without
// scraping stdout.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernel.h"
#include "ledger/verifier.h"
#include "util/json.h"

using namespace sqlledger;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs fn repeatedly until ~min_seconds elapse; returns seconds per call.
template <typename Fn>
double TimeIt(Fn fn, double min_seconds = 0.2) {
  fn();  // warm-up
  int iters = 0;
  double start = NowSeconds();
  double elapsed = 0;
  do {
    fn();
    iters++;
    elapsed = NowSeconds() - start;
  } while (elapsed < min_seconds);
  return elapsed / iters;
}

JsonValue BenchKernels() {
  JsonValue out = JsonValue::Array();
  const size_t kBytes = 1 << 20;  // 1 MiB per digest call
  std::string data(kBytes, 'x');
  for (const Sha256Kernel& kernel : AvailableSha256Kernels()) {
    volatile uint8_t sink = 0;
    double secs = TimeIt([&] {
      Hash256 h = Sha256DigestWithKernel(kernel, Slice(), Slice(data));
      sink = static_cast<uint8_t>(sink ^ h.bytes[0]);
    });
    double mb_per_s = (kBytes / (1024.0 * 1024.0)) / secs;
    JsonValue entry = JsonValue::Object();
    entry.Set("kernel", JsonValue::Str(kernel.name));
    entry.Set("mb_per_s", JsonValue::Double(mb_per_s));
    out.Append(std::move(entry));
    std::printf("  sha256 kernel %-8s : %10.1f MB/s\n", kernel.name,
                mb_per_s);
  }
  return out;
}

JsonValue BenchLeafHashing() {
  // 64 KiB of 260-byte leaves, the fig9 row width.
  const size_t kLeafBytes = 260;
  const size_t kLeaves = 16384;
  std::vector<uint8_t> arena(kLeaves * kLeafBytes);
  for (size_t i = 0; i < arena.size(); i++)
    arena[i] = static_cast<uint8_t>(i * 1315423911u >> 3);
  std::vector<Hash256> out_hashes(kLeaves);

  double secs = TimeIt([&] {
    for (size_t i = 0; i < kLeaves; i++)
      out_hashes[i] =
          MerkleLeafHash(Slice(arena.data() + i * kLeafBytes, kLeafBytes));
  });
  double leaves_per_s = kLeaves / secs;
  double mb_per_s = (kLeaves * kLeafBytes) / (1024.0 * 1024.0) / secs;
  std::printf("  leaf hashing           : %10.0f leaves/s  (%.1f MB/s)\n",
              leaves_per_s, mb_per_s);

  JsonValue entry = JsonValue::Object();
  entry.Set("leaf_bytes", JsonValue::Int(kLeafBytes));
  entry.Set("leaves_per_s", JsonValue::Double(leaves_per_s));
  entry.Set("mb_per_s", JsonValue::Double(mb_per_s));
  return entry;
}

JsonValue BenchMerkleRoot() {
  const size_t kLeaves = 65536;
  std::vector<Hash256> leaves(kLeaves);
  for (size_t i = 0; i < kLeaves; i++) {
    std::string data = "leaf-" + std::to_string(i);
    leaves[i] = MerkleLeafHash(Slice(data));
  }
  double streaming_secs = TimeIt([&] {
    MerkleBuilder builder;
    for (const Hash256& leaf : leaves) builder.AddLeafHash(leaf);
    volatile uint8_t sink = builder.Root().bytes[0];
    (void)sink;
  });
  double materialized_secs = TimeIt([&] {
    MerkleTree tree(leaves);
    volatile uint8_t sink = tree.Root().bytes[0];
    (void)sink;
  });
  std::printf("  streaming Merkle root  : %10.0f leaves/s\n",
              kLeaves / streaming_secs);
  std::printf("  materialized tree      : %10.0f leaves/s\n",
              kLeaves / materialized_secs);

  JsonValue entry = JsonValue::Object();
  entry.Set("leaves", JsonValue::Int(static_cast<int64_t>(kLeaves)));
  entry.Set("streaming_leaves_per_s",
            JsonValue::Double(kLeaves / streaming_secs));
  entry.Set("materialized_leaves_per_s",
            JsonValue::Double(kLeaves / materialized_secs));
  return entry;
}

Schema WideSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 244);
  s.SetPrimaryKey({0});
  return s;
}

JsonValue BenchVerification(int txns) {
  LedgerDatabaseOptions options;
  options.block_size = 100000;
  options.database_id = "bench-hashing";
  auto opened = LedgerDatabase::Open(std::move(options));
  if (!opened.ok()) std::exit(1);
  auto db = std::move(*opened);
  if (!db->CreateTable("t", WideSchema(), TableKind::kUpdateable).ok())
    std::exit(1);

  const std::string payload(244, 'x');
  int64_t next_id = 1;
  for (int i = 0; i < txns; i++) {
    auto txn = db->Begin("load");
    for (int r = 0; r < 5; r++) {
      Status st = db->Insert(*txn, "t",
                             {Value::BigInt(next_id++), Value::BigInt(r),
                              Value::Varchar(payload)});
      if (!st.ok()) std::exit(1);
    }
    if (!db->Commit(*txn).ok()) std::exit(1);
  }
  auto digest = db->GenerateDigest();
  if (!digest.ok()) std::exit(1);

  JsonValue runs = JsonValue::Array();
  uint64_t row_versions = 0;
  for (unsigned parallelism : {1u, 4u}) {
    VerificationOptions vopts;
    vopts.parallelism = parallelism;
    double start = NowSeconds();
    auto report = VerifyLedger(db.get(), {*digest}, vopts);
    double secs = NowSeconds() - start;
    if (!report.ok() || !report->ok()) {
      std::printf("unexpected verification failure (parallelism=%u)\n",
                  parallelism);
      std::exit(1);
    }
    row_versions = report->row_versions_checked;
    std::printf(
        "  verify %6d txns  p=%u : %8.3f s  (%.0f row-versions/s)\n", txns,
        parallelism, secs, report->row_versions_checked / secs);
    JsonValue run = JsonValue::Object();
    run.Set("parallelism", JsonValue::Int(parallelism));
    run.Set("seconds", JsonValue::Double(secs));
    run.Set("row_versions_per_s",
            JsonValue::Double(report->row_versions_checked / secs));
    runs.Append(std::move(run));
  }

  JsonValue entry = JsonValue::Object();
  entry.Set("transactions", JsonValue::Int(txns));
  entry.Set("row_versions", JsonValue::Int(static_cast<int64_t>(row_versions)));
  entry.Set("runs", std::move(runs));
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hashing.json";
  int verify_txns = 2000;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--txns=", 7) == 0)
      verify_txns = std::atoi(argv[i] + 7);
  }

  std::printf("=== Hashing pipeline smoke benchmark ===\n");
  std::printf("  active kernel          : %s\n\n", Sha256::KernelName());

  JsonValue doc = JsonValue::Object();
  doc.Set("active_kernel", JsonValue::Str(Sha256::KernelName()));
  doc.Set("sha256_kernels", BenchKernels());
  doc.Set("leaf_hashing", BenchLeafHashing());
  doc.Set("merkle_root", BenchMerkleRoot());
  std::printf("\n");
  doc.Set("verification", BenchVerification(verify_txns));

  std::ofstream out(out_path);
  out << doc.DumpPretty() << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

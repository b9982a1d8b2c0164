// §3.2.1 microbenchmark: the streaming Merkle-root algorithm. Confirms
// O(N) time (ns/leaf flat as N grows) and O(log N) space, plus the cost of
// proof generation/verification on the materialized tree, and leaf-hash
// throughput (one MerkleLeafHash call per leaf, as every caller does). Run
// with SQLLEDGER_FORCE_SCALAR_SHA=1 to compare against the scalar kernel.
// BM_Crc32c/<kernel> puts every CRC-32C kernel this CPU can run beside
// SHA-256, since every durable file is checksummed with it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernel.h"
#include "util/crc32c_kernel.h"

using namespace sqlledger;

namespace {

std::vector<Hash256> MakeLeaves(int64_t n) {
  std::vector<Hash256> leaves;
  leaves.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    std::string data = "leaf-" + std::to_string(i);
    leaves.push_back(MerkleLeafHash(Slice(data)));
  }
  return leaves;
}

void BM_StreamingRoot(benchmark::State& state) {
  std::vector<Hash256> leaves = MakeLeaves(state.range(0));
  size_t peak_pending = 0;
  for (auto _ : state) {
    MerkleBuilder builder;
    for (const Hash256& leaf : leaves) builder.AddLeafHash(leaf);
    if (builder.pending_nodes() > peak_pending)
      peak_pending = builder.pending_nodes();
    benchmark::DoNotOptimize(builder.Root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["pending_nodes"] = static_cast<double>(peak_pending);
}

void BM_MaterializedRoot(benchmark::State& state) {
  std::vector<Hash256> leaves = MakeLeaves(state.range(0));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SavepointSnapshot(benchmark::State& state) {
  // Cost of capturing the O(log N) Merkle state — what a transaction
  // savepoint pays (paper §3.2.1).
  std::vector<Hash256> leaves = MakeLeaves(state.range(0));
  MerkleBuilder builder;
  for (const Hash256& leaf : leaves) builder.AddLeafHash(leaf);
  for (auto _ : state) {
    MerkleBuilderState snapshot = builder.GetState();
    benchmark::DoNotOptimize(snapshot);
  }
}

void BM_ProveAndVerify(benchmark::State& state) {
  std::vector<Hash256> leaves = MakeLeaves(state.range(0));
  MerkleTree tree(leaves);
  Hash256 root = tree.Root();
  uint64_t index = static_cast<uint64_t>(state.range(0)) / 2;
  for (auto _ : state) {
    MerkleProof proof = tree.Prove(index);
    bool ok = MerkleTree::VerifyProof(leaves[index], proof, root);
    if (!ok) state.SkipWithError("proof failed");
    benchmark::DoNotOptimize(ok);
  }
}

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(Slice(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_Crc32c(benchmark::State& state, Crc32cKernel kernel) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.extend(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_LeafHash(benchmark::State& state) {
  // One MerkleLeafHash call per 260-byte leaf, the fig9 row width.
  const size_t n = static_cast<size_t>(state.range(0));
  std::string data(260, 'x');
  std::vector<Hash256> out(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; i++) out[i] = MerkleLeafHash(Slice(data));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_StreamingRoot)->Range(256, 262144);
BENCHMARK(BM_MaterializedRoot)->Range(256, 65536);
BENCHMARK(BM_SavepointSnapshot)->Range(256, 262144);
BENCHMARK(BM_ProveAndVerify)->Range(256, 65536);
BENCHMARK(BM_Sha256)->Range(64, 65536);
BENCHMARK(BM_LeafHash)->Range(1024, 65536);

}  // namespace

int main(int argc, char** argv) {
  std::printf("sha256 kernel: %s  crc32c kernel: %s\n",
              sqlledger::Sha256::KernelName(),
              sqlledger::ActiveCrc32cKernel().name);
  for (const sqlledger::Crc32cKernel& kernel :
       sqlledger::AvailableCrc32cKernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Crc32c/") + kernel.name).c_str(), BM_Crc32c, kernel)
        ->Range(64, 1 << 20);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

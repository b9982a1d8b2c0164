// Kernel-equivalence tests for the runtime-dispatched SHA-256 pipeline:
// every kernel available on this machine (scalar always; sha-ni / armv8-ce
// when present) must produce bit-identical digests — NIST FIPS 180-4
// vectors, padding-boundary straddles, and randomized messages up to 4 KiB.
// A folded domain-separation prefix (how MerkleLeafHash / MerkleNodeHash
// call the kernel) must match hashing the concatenation, and the incremental
// context split at a random offset must match the one-shot path.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/sha256_kernel.h"

namespace sqlledger {
namespace {

struct NistVector {
  const char* input;
  const char* digest_hex;
};

constexpr NistVector kNistVectors[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
};

TEST(Sha256KernelTest, AtLeastScalarAvailable) {
  auto kernels = AvailableSha256Kernels();
  ASSERT_FALSE(kernels.empty());
  bool has_scalar = false;
  for (const Sha256Kernel& k : kernels)
    if (std::string(k.name) == "scalar") has_scalar = true;
  EXPECT_TRUE(has_scalar);
}

TEST(Sha256KernelTest, ActiveKernelIsListed) {
  const Sha256Kernel& active = ActiveSha256Kernel();
  bool listed = false;
  for (const Sha256Kernel& k : AvailableSha256Kernels())
    if (std::string(k.name) == active.name) listed = true;
  EXPECT_TRUE(listed) << "active kernel: " << active.name;
  EXPECT_STREQ(Sha256::KernelName(), active.name);
}

TEST(Sha256KernelTest, NistVectorsOnEveryKernel) {
  for (const Sha256Kernel& kernel : AvailableSha256Kernels()) {
    for (const NistVector& v : kNistVectors) {
      Hash256 got = Sha256DigestWithKernel(
          kernel, Slice(), Slice(v.input, std::strlen(v.input)));
      EXPECT_EQ(got.ToHex(), v.digest_hex)
          << "kernel " << kernel.name << ", input \"" << v.input << "\"";
    }
  }
}

TEST(Sha256KernelTest, MillionAsOnEveryKernel) {
  std::string data(1000000, 'a');
  for (const Sha256Kernel& kernel : AvailableSha256Kernels()) {
    EXPECT_EQ(Sha256DigestWithKernel(kernel, Slice(), Slice(data)).ToHex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << "kernel " << kernel.name;
  }
}

TEST(Sha256KernelTest, PaddingBoundaryStraddles) {
  // Lengths that straddle the 55/56 padding split and the 64-byte block
  // boundary — the classic off-by-one territory for compression kernels.
  auto kernels = AvailableSha256Kernels();
  for (size_t n : {0u, 1u, 54u, 55u, 56u, 57u, 62u, 63u, 64u, 65u, 111u,
                   119u, 120u, 127u, 128u, 129u}) {
    std::string data(n, static_cast<char>('A' + n % 26));
    Hash256 reference = Sha256DigestWithKernel(kernels[0], Slice(), Slice(data));
    for (size_t k = 1; k < kernels.size(); k++) {
      EXPECT_EQ(Sha256DigestWithKernel(kernels[k], Slice(), Slice(data)),
                reference)
          << "kernel " << kernels[k].name << ", length " << n;
    }
    // And against the incremental context (which routes through the active
    // kernel's compress function via a different buffering path).
    EXPECT_EQ(Sha256::Digest(Slice(data)), reference) << "length " << n;
  }
}

TEST(Sha256KernelTest, PrefixFoldingMatchesConcatenation) {
  // Sha256DigestWithKernel(prefix, data) must equal hashing prefix||data.
  auto kernels = AvailableSha256Kernels();
  std::mt19937 rng(42);
  for (size_t n : {0u, 1u, 31u, 54u, 55u, 62u, 63u, 64u, 65u, 200u, 4096u}) {
    std::string data(n, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    std::string with_prefix = std::string(1, '\0') + data;
    Hash256 reference = Sha256::Digest(Slice(with_prefix));
    for (const Sha256Kernel& kernel : kernels) {
      uint8_t prefix = 0x00;
      EXPECT_EQ(Sha256DigestWithKernel(kernel, Slice(&prefix, 1), Slice(data)),
                reference)
          << "kernel " << kernel.name << ", length " << n;
    }
  }
}

TEST(Sha256KernelTest, RandomizedEquivalenceFuzz) {
  auto kernels = AvailableSha256Kernels();
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < 400; iter++) {
    size_t n = rng() % 4097;  // 0..4096 inclusive
    std::string data(n, '\0');
    for (char& c : data) c = static_cast<char>(rng());

    Hash256 reference = Sha256DigestWithKernel(kernels[0], Slice(), Slice(data));
    for (size_t k = 1; k < kernels.size(); k++) {
      ASSERT_EQ(Sha256DigestWithKernel(kernels[k], Slice(), Slice(data)),
                reference)
          << "kernel " << kernels[k].name << ", length " << n;
    }
    // Incremental with a random split point.
    size_t split = n == 0 ? 0 : rng() % (n + 1);
    Sha256 ctx;
    ctx.Update(Slice(data.data(), split));
    ctx.Update(Slice(data.data() + split, n - split));
    ASSERT_EQ(ctx.Finish(), reference) << "length " << n << " split " << split;
  }
}

}  // namespace
}  // namespace sqlledger

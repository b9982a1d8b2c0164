// SHA-256 compression-kernel dispatch. The FIPS 180-4 compression function
// has hardware implementations on modern x86 (SHA-NI) and ARMv8 (crypto
// extensions) that run an order of magnitude faster than the portable
// scalar loop. Since every row version, transaction entry and block hash
// funnels through this one function (paper §4: hashing dominates ledger
// overhead), the kernel is selected once at startup and every Sha256
// context calls through the selected function pointer.
//
// Selection order: SHA-NI > ARMv8-CE > scalar. Hardware kernels are only
// candidates when (a) the compiler could build them (per-file ISA flags,
// see src/CMakeLists.txt) and (b) the CPU reports the feature at runtime.
// The CMake option SQLLEDGER_FORCE_SCALAR_SHA pins the scalar kernel — used
// by CI to keep both dispatch arms tested.

#ifndef SQLLEDGER_CRYPTO_SHA256_KERNEL_H_
#define SQLLEDGER_CRYPTO_SHA256_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/sha256.h"
#include "util/slice.h"

namespace sqlledger {

/// Applies the SHA-256 compression function to `n_blocks` consecutive
/// 64-byte blocks starting at `blocks`, updating `state` in place.
/// `blocks` need not be aligned.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  size_t n_blocks);

struct Sha256Kernel {
  const char* name;  // "scalar", "sha-ni", "armv8-ce"
  Sha256CompressFn compress;
};

/// The kernel every Sha256 context uses. Resolved once, on first call.
const Sha256Kernel& ActiveSha256Kernel();

/// Every kernel usable on this machine, scalar always included. Exposed so
/// equivalence tests and benches can compare implementations directly.
std::vector<Sha256Kernel> AvailableSha256Kernels();

/// One-shot digest through a specific kernel (kernel-equivalence tests and
/// A/B benches). `prefix` (may be empty) is hashed before `data`, which is
/// how Merkle domain-separation bytes are folded in without concatenating.
Hash256 Sha256DigestWithKernel(const Sha256Kernel& kernel, Slice prefix,
                               Slice data);

// ---- Individual kernels (internal; prefer ActiveSha256Kernel). ----

/// Portable scalar compression — the reference all others must match.
void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks,
                          size_t n_blocks);

#if defined(SQLLEDGER_HAVE_SHA_NI)
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks,
                         size_t n_blocks);
#endif

#if defined(SQLLEDGER_HAVE_ARMV8_SHA)
void Sha256CompressArmv8(uint32_t state[8], const uint8_t* blocks,
                         size_t n_blocks);
/// Runtime check for the ARMv8 SHA2 crypto extension (HWCAP probe).
bool Armv8ShaSupported();
#endif

}  // namespace sqlledger

#endif  // SQLLEDGER_CRYPTO_SHA256_KERNEL_H_

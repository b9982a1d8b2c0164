// CRC-32C kernel dispatch. Every durable file (WAL frames, checkpoints, the
// digest outbox, digest blobs, the verification watermark) is guarded by
// CRC-32C, so its per-byte cost sits on the group-commit leader, inside the
// checkpoint quiesce and on recovery. x86 has had a CRC-32C instruction
// since SSE4.2 that runs an order of magnitude faster than the portable
// table loop. Shaped like the SHA-256 dispatch (crypto/sha256_kernel.h):
// the kernel is selected once at startup and Crc32c/Crc32cExtend in
// util/coding.h call through it.
//
// Selection order: SSE4.2 > table. The SSE4.2 kernel is only a candidate
// when (a) the compiler could build it (per-file ISA flag, see
// src/CMakeLists.txt) and (b) the CPU reports the feature at runtime.

#ifndef SQLLEDGER_UTIL_CRC32C_KERNEL_H_
#define SQLLEDGER_UTIL_CRC32C_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sqlledger {

/// Extends the finalized CRC-32C `crc` of some prefix with `n` more bytes at
/// `data` and returns the finalized CRC of the whole. `crc` = 0 starts a
/// fresh checksum. `data` need not be aligned.
using Crc32cExtendFn = uint32_t (*)(uint32_t crc, const uint8_t* data,
                                    size_t n);

struct Crc32cKernel {
  const char* name;  // "table", "sse4.2"
  Crc32cExtendFn extend;
};

/// The kernel Crc32c and Crc32cExtend use. Resolved once, on first call.
const Crc32cKernel& ActiveCrc32cKernel();

/// Every kernel usable on this machine, table always included. Exposed so
/// equivalence tests and benches can compare implementations directly.
std::vector<Crc32cKernel> AvailableCrc32cKernels();

// ---- Individual kernels (internal; prefer ActiveCrc32cKernel). ----

/// Portable byte-at-a-time table loop — the reference all others must match.
uint32_t Crc32cExtendTable(uint32_t crc, const uint8_t* data, size_t n);

#if defined(SQLLEDGER_HAVE_SSE42_CRC)
/// SSE4.2 `crc32` instruction, eight bytes per step.
uint32_t Crc32cExtendSse42(uint32_t crc, const uint8_t* data, size_t n);
#endif

}  // namespace sqlledger

#endif  // SQLLEDGER_UTIL_CRC32C_KERNEL_H_

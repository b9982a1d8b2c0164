// x86 SSE4.2 CRC-32C kernel. Compiled with -msse4.2 (see src/CMakeLists.txt);
// only ever *called* when __builtin_cpu_supports("sse4.2") says the CPU has
// the instruction, so building it on any x86-64 toolchain is safe. The
// `crc32` instruction computes exactly the reflected Castagnoli CRC the
// table kernel does, eight bytes per step on little-endian loads. Loads go
// through memcpy, so unaligned input is well defined (and UBSan-clean).

#include "util/crc32c_kernel.h"

#if defined(SQLLEDGER_HAVE_SSE42_CRC)

#include <nmmintrin.h>

#include <cstring>

namespace sqlledger {

uint32_t Crc32cExtendSse42(uint32_t crc, const uint8_t* data, size_t n) {
  uint64_t l = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    l = _mm_crc32_u64(l, word);
  }
  uint32_t l32 = static_cast<uint32_t>(l);
  if (n >= 4) {
    uint32_t word;
    std::memcpy(&word, data, sizeof(word));
    l32 = _mm_crc32_u32(l32, word);
    data += 4;
    n -= 4;
  }
  for (; n > 0; data++, n--) l32 = _mm_crc32_u8(l32, *data);
  return l32 ^ 0xFFFFFFFFu;
}

}  // namespace sqlledger

#endif  // SQLLEDGER_HAVE_SSE42_CRC

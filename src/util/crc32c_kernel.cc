#include "util/crc32c_kernel.h"

namespace sqlledger {

namespace {

// Table for the reflected Castagnoli polynomial, generated at first use.
struct Crc32cTable {
  uint32_t table[256];
  Crc32cTable() {
    const uint32_t poly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
      }
      table[i] = crc;
    }
  }
};

Crc32cKernel SelectKernel() {
#if defined(SQLLEDGER_HAVE_SSE42_CRC)
  if (__builtin_cpu_supports("sse4.2"))
    return Crc32cKernel{"sse4.2", &Crc32cExtendSse42};
#endif
  return Crc32cKernel{"table", &Crc32cExtendTable};
}

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const uint8_t* data, size_t n) {
  static const Crc32cTable t;
  uint32_t l = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    l = t.table[(l ^ data[i]) & 0xFF] ^ (l >> 8);
  }
  return l ^ 0xFFFFFFFFu;
}

const Crc32cKernel& ActiveCrc32cKernel() {
  static const Crc32cKernel kernel = SelectKernel();
  return kernel;
}

std::vector<Crc32cKernel> AvailableCrc32cKernels() {
  std::vector<Crc32cKernel> kernels;
  kernels.push_back(Crc32cKernel{"table", &Crc32cExtendTable});
#if defined(SQLLEDGER_HAVE_SSE42_CRC)
  if (__builtin_cpu_supports("sse4.2"))
    kernels.push_back(Crc32cKernel{"sse4.2", &Crc32cExtendSse42});
#endif
  return kernels;
}

}  // namespace sqlledger

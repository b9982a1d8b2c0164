// Binary encoding primitives: fixed-width little-endian integers, LEB128
// varints and zigzag-mapped signed varints, plus length-prefixed byte
// strings. Used by the WAL, the canonical row serialization format, and
// checkpoint files.

#ifndef SQLLEDGER_UTIL_CODING_H_
#define SQLLEDGER_UTIL_CODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace sqlledger {

// ---- Appenders (to std::vector<uint8_t>) ----

void PutFixed16(std::vector<uint8_t>* dst, uint16_t v);
void PutFixed32(std::vector<uint8_t>* dst, uint32_t v);
void PutFixed64(std::vector<uint8_t>* dst, uint64_t v);
void PutVarint32(std::vector<uint8_t>* dst, uint32_t v);
void PutVarint64(std::vector<uint8_t>* dst, uint64_t v);
/// Varint length prefix followed by the raw bytes.
void PutLengthPrefixed(std::vector<uint8_t>* dst, Slice value);

/// Zigzag mapping of a signed integer onto an unsigned one, so that values
/// near zero of either sign get short varints: 0, -1, 1, -2, ... map to
/// 0, 1, 2, 3, ... Unsigned shifts keep both directions free of UB.
inline uint64_t ZigZagEncode64(int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  return (u << 1) ^ (0 - (u >> 63));
}
inline int64_t ZigZagDecode64(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
}

// ---- Decoders ----
// A Decoder consumes from a Slice front-to-back and fails with Corruption on
// truncated input rather than reading out of bounds.

class Decoder {
 public:
  explicit Decoder(Slice input) : input_(input), pos_(0) {}

  size_t remaining() const { return input_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  size_t position() const { return pos_; }

  Result<uint16_t> GetFixed16();
  Result<uint32_t> GetFixed32();
  Result<uint64_t> GetFixed64();
  Result<uint32_t> GetVarint32();
  Result<uint64_t> GetVarint64();
  /// Returns a view into the underlying buffer (no copy).
  Result<Slice> GetLengthPrefixed();
  Result<Slice> GetBytes(size_t n);

 private:
  Slice input_;
  size_t pos_;
};

// ---- CRC-32C ----

/// CRC-32C (Castagnoli) through the kernel chosen once at startup (SSE4.2
/// where the CPU has it, else a table loop; util/crc32c_kernel.h). Guards
/// every durable file against torn writes and storage rot: WAL frames,
/// checkpoints, the digest outbox, digest blobs and the verification
/// watermark.
uint32_t Crc32c(const uint8_t* data, size_t n);
inline uint32_t Crc32c(Slice s) { return Crc32c(s.data(), s.size()); }

/// Extends `crc`, the Crc32c of some prefix, with `n` more bytes: the CRC of
/// a buffer checksummed in pieces equals its one-shot Crc32c.
/// Crc32cExtend(0, data, n) == Crc32c(data, n).
uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n);

}  // namespace sqlledger

#endif  // SQLLEDGER_UTIL_CODING_H_

// SHA-256 (FIPS 180-4), implemented from scratch. Every row version,
// transaction entry and block in the ledger is hashed with this primitive
// (paper §2.1), so it sits on the hot path of all DML. The compression
// function is runtime-dispatched to a hardware kernel (x86 SHA-NI or ARMv8
// crypto extensions) when available — see crypto/sha256_kernel.h. Callers
// hash each input where it is produced, one call per input: Digest (or
// MerkleLeafHash / MerkleNodeHash in crypto/merkle.h) pads on the stack and
// skips the incremental context's buffering.

#ifndef SQLLEDGER_CRYPTO_SHA256_H_
#define SQLLEDGER_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>

#include "util/constant_time.h"
#include "util/slice.h"

namespace sqlledger {

/// A 256-bit hash value. Comparable and hashable so it can key maps.
/// Equality is constant-time by construction (util/constant_time.h): hash
/// values are routinely compared against trusted digests, MACs and receipt
/// roots, and a short-circuiting compare would leak the first differing
/// byte through timing. operator< is NOT constant-time; it exists only for
/// deterministic container ordering and must never gate trust decisions.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Hash256& o) const {
    return ConstantTimeEqual(bytes, o.bytes);
  }
  bool operator!=(const Hash256& o) const { return !(*this == o); }
  bool operator<(const Hash256& o) const { return bytes < o.bytes; }

  bool IsZero() const {
    for (uint8_t b : bytes)
      if (b != 0) return false;
    return true;
  }

  Slice AsSlice() const { return Slice(bytes.data(), bytes.size()); }
  /// 64-character lowercase hex.
  std::string ToHex() const;
  /// Parse a 64-character hex string; returns all-zero hash on bad input
  /// via the bool flag.
  static bool FromHex(const std::string& hex, Hash256* out);
};

/// Explicit constant-time comparison of two hash values. Identical to
/// operator== (which already routes through ConstantTimeEqual); use this
/// spelling at sites where the comparison gates a trust decision so the
/// timing discipline is visible at the call site.
inline bool ConstantTimeEqual(const Hash256& a, const Hash256& b) {
  return ConstantTimeEqual(a.bytes, b.bytes);
}

/// Incremental SHA-256 context. Usage: Update(...) any number of times,
/// then Finish(). Reset() restores the initial state for reuse.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(Slice data);
  void Update(const uint8_t* data, size_t n) { Update(Slice(data, n)); }
  /// Finalizes and returns the digest. The context must be Reset() before
  /// further use.
  Hash256 Finish();

  /// One-shot convenience. Pads on the stack instead of buffering, so it is
  /// also the fastest single-input path.
  static Hash256 Digest(Slice data);

  /// Name of the compression kernel in use: "scalar", "sha-ni", "armv8-ce".
  static const char* KernelName();

 private:
  uint32_t state_[8];
  uint64_t total_len_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_CRYPTO_SHA256_H_

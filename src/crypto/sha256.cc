#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_kernel.h"
#include "util/hex.h"

namespace sqlledger {

std::string Hash256::ToHex() const { return HexEncode(AsSlice()); }

bool Hash256::FromHex(const std::string& hex, Hash256* out) {
  auto decoded = HexDecode(hex);
  if (!decoded.ok() || decoded->size() != 32) return false;
  std::memcpy(out->bytes.data(), decoded->data(), 32);
  return true;
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(Slice data) {
  const Sha256CompressFn compress = ActiveSha256Kernel().compress;
  const uint8_t* p = data.data();
  size_t n = data.size();
  total_len_ += n;

  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > n) take = n;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  size_t whole = n / 64;
  if (whole > 0) {
    compress(state_, p, whole);
    p += whole * 64;
    n -= whole * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

Hash256 Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian length.
  uint8_t pad[72];
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; i++)
    pad[pad_len + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  Update(Slice(pad, pad_len + 8));

  Hash256 out;
  for (int i = 0; i < 8; i++) {
    out.bytes[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out.bytes[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.bytes[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.bytes[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256::Digest(Slice data) {
  return Sha256DigestWithKernel(ActiveSha256Kernel(), Slice(), data);
}

const char* Sha256::KernelName() { return ActiveSha256Kernel().name; }

}  // namespace sqlledger

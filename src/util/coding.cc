#include "util/coding.h"

#include "util/crc32c_kernel.h"

namespace sqlledger {

void PutFixed16(std::vector<uint8_t>* dst, uint16_t v) {
  dst->push_back(static_cast<uint8_t>(v));
  dst->push_back(static_cast<uint8_t>(v >> 8));
}

void PutFixed32(std::vector<uint8_t>* dst, uint32_t v) {
  for (int i = 0; i < 4; i++) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutFixed64(std::vector<uint8_t>* dst, uint64_t v) {
  for (int i = 0; i < 8; i++) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutVarint32(std::vector<uint8_t>* dst, uint32_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

void PutVarint64(std::vector<uint8_t>* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

void PutLengthPrefixed(std::vector<uint8_t>* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->insert(dst->end(), value.data(), value.data() + value.size());
}

Result<uint16_t> Decoder::GetFixed16() {
  if (remaining() < 2) return Status::Corruption("truncated fixed16");
  uint16_t v = static_cast<uint16_t>(input_[pos_]) |
               static_cast<uint16_t>(input_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> Decoder::GetFixed32() {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  uint32_t v = 0;
  for (int i = 0; i < 4; i++) v |= static_cast<uint32_t>(input_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> Decoder::GetFixed64() {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) v |= static_cast<uint64_t>(input_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<uint32_t> Decoder::GetVarint32() {
  auto r = GetVarint64();
  if (!r.ok()) return r.status();
  if (*r > UINT32_MAX) return Status::Corruption("varint32 overflow");
  return static_cast<uint32_t>(*r);
}

Result<uint64_t> Decoder::GetVarint64() {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (done()) return Status::Corruption("truncated varint");
    uint8_t byte = input_[pos_++];
    // The 10th byte carries only bit 63: anything above 0x01 overflows
    // 64 bits (or continues past them).
    if (shift == 63 && byte > 0x01)
      return Status::Corruption("varint overflows 64 bits");
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

Result<Slice> Decoder::GetLengthPrefixed() {
  auto len = GetVarint64();
  if (!len.ok()) return len.status();
  return GetBytes(static_cast<size_t>(*len));
}

Result<Slice> Decoder::GetBytes(size_t n) {
  if (remaining() < n) return Status::Corruption("truncated byte string");
  Slice out(input_.data() + pos_, n);
  pos_ += n;
  return out;
}

uint32_t Crc32c(const uint8_t* data, size_t n) {
  return ActiveCrc32cKernel().extend(0, data, n);
}

uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n) {
  return ActiveCrc32cKernel().extend(crc, data, n);
}

}  // namespace sqlledger

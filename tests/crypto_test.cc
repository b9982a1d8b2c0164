// SHA-256 against the NIST FIPS 180-4 vectors, incremental hashing, and
// HMAC-SHA256 against the RFC 4231 vectors.

#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sqlledger {
namespace {

std::string DigestHex(const std::string& input) {
  return Sha256::Digest(Slice(input)).ToHex();
}

TEST(Sha256Test, NistEmptyString) {
  EXPECT_EQ(DigestHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, NistAbc) {
  EXPECT_EQ(DigestHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistTwoBlockMessage) {
  EXPECT_EQ(
      DigestHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, NistMillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) ctx.Update(Slice(chunk));
  EXPECT_EQ(ctx.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data =
      "The exact split points of Update calls must not affect the digest.";
  Hash256 oneshot = Sha256::Digest(Slice(data));
  for (size_t split = 0; split <= data.size(); split += 7) {
    Sha256 ctx;
    ctx.Update(Slice(data.data(), split));
    ctx.Update(Slice(data.data() + split, data.size() - split));
    EXPECT_EQ(ctx.Finish(), oneshot) << "split at " << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding boundary cases.
  for (size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string data(n, 'x');
    Sha256 a;
    a.Update(Slice(data));
    Sha256 b;
    for (char c : data) b.Update(Slice(&c, 1));
    EXPECT_EQ(a.Finish(), b.Finish()) << "length " << n;
  }
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 h = Sha256::Digest(Slice(std::string("x")));
  Hash256 parsed;
  ASSERT_TRUE(Hash256::FromHex(h.ToHex(), &parsed));
  EXPECT_EQ(parsed, h);
}

TEST(Hash256Test, FromHexRejectsBadInput) {
  Hash256 h;
  EXPECT_FALSE(Hash256::FromHex("deadbeef", &h));          // too short
  EXPECT_FALSE(Hash256::FromHex(std::string(64, 'z'), &h));  // not hex
}

TEST(Hash256Test, IsZero) {
  Hash256 zero;
  EXPECT_TRUE(zero.IsZero());
  zero.bytes[31] = 1;
  EXPECT_FALSE(zero.IsZero());
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  Hash256 mac = HmacSha256(Slice(key), Slice(std::string("Hi There")));
  EXPECT_EQ(mac.ToHex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  std::string key = "Jefe";
  Hash256 mac =
      HmacSha256(Slice(key), Slice(std::string("what do ya want for nothing?")));
  EXPECT_EQ(mac.ToHex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd.
TEST(HmacTest, Rfc4231Case3) {
  std::vector<uint8_t> key(20, 0xaa);
  std::vector<uint8_t> data(50, 0xdd);
  Hash256 mac = HmacSha256(Slice(key), Slice(data));
  EXPECT_EQ(mac.ToHex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size gets hashed first.
TEST(HmacTest, Rfc4231Case6LongKey) {
  std::vector<uint8_t> key(131, 0xaa);
  Hash256 mac = HmacSha256(
      Slice(key),
      Slice(std::string("Test Using Larger Than Block-Size Key - Hash Key "
                        "First")));
  EXPECT_EQ(mac.ToHex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSignerTest, SignVerifyRoundTrip) {
  HmacSigner signer("key-1", {1, 2, 3, 4});
  Hash256 digest = Sha256::Digest(Slice(std::string("block root")));
  std::vector<uint8_t> sig = signer.Sign(digest);
  EXPECT_TRUE(signer.Verify(digest, Slice(sig)));
}

TEST(HmacSignerTest, RejectsTamperedSignature) {
  HmacSigner signer("key-1", {1, 2, 3, 4});
  Hash256 digest = Sha256::Digest(Slice(std::string("block root")));
  std::vector<uint8_t> sig = signer.Sign(digest);
  sig[5] ^= 0x80;
  EXPECT_FALSE(signer.Verify(digest, Slice(sig)));
}

TEST(HmacSignerTest, RejectsWrongKey) {
  HmacSigner a("a", {1, 2, 3});
  HmacSigner b("b", {9, 9, 9});
  Hash256 digest = Sha256::Digest(Slice(std::string("x")));
  EXPECT_FALSE(b.Verify(digest, Slice(a.Sign(digest))));
}

TEST(HmacSignerTest, RejectsWrongLength) {
  HmacSigner signer("k", {1});
  Hash256 digest;
  std::vector<uint8_t> sig = signer.Sign(digest);
  sig.pop_back();
  EXPECT_FALSE(signer.Verify(digest, Slice(sig)));
}

}  // namespace
}  // namespace sqlledger

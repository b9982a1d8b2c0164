// Unit tests for util: Status/Result, coding, CRC32C, hex, JSON, Random.

#include <gtest/gtest.h>

#include "util/coding.h"
#include "util/crc32c_kernel.h"
#include "util/hex.h"
#include "util/json.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace sqlledger {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::NotFound("row 42");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: row 42");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Corruption("").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::IOError("").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotSupported("").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::Aborted("").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::IntegrityViolation("").code(),
            StatusCode::kIntegrityViolation);
  EXPECT_EQ(Status::PermissionDenied("").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(Status::Busy("").code(), StatusCode::kBusy);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(CodingTest, FixedRoundTrip) {
  std::vector<uint8_t> buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  Decoder dec{Slice(buf)};
  EXPECT_EQ(*dec.GetFixed16(), 0xBEEF);
  EXPECT_EQ(*dec.GetFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetFixed64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(dec.done());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0,       1,          127,        128,
                                  16383,   16384,      UINT32_MAX, 1ULL << 42,
                                  UINT64_MAX};
  std::vector<uint8_t> buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec{Slice(buf)};
  for (uint64_t v : values) {
    auto got = dec.GetVarint64();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(dec.done());
}

TEST(CodingTest, TruncatedInputIsCorruption) {
  std::vector<uint8_t> buf;
  PutFixed64(&buf, 1);
  buf.pop_back();
  Decoder dec{Slice(buf)};
  EXPECT_EQ(dec.GetFixed64().status().code(), StatusCode::kCorruption);
}

TEST(CodingTest, TruncatedVarintIsCorruption) {
  std::vector<uint8_t> buf = {0x80, 0x80};  // continuation bits, no terminator
  Decoder dec{Slice(buf)};
  EXPECT_EQ(dec.GetVarint64().status().code(), StatusCode::kCorruption);
}

// A 10th varint byte may carry only bit 63. Anything above 0x01 used to
// decode as OK with its high bits dropped.
TEST(CodingTest, OverflowingVarintIsCorruption) {
  std::vector<uint8_t> max(9, 0xFF);
  max.push_back(0x01);  // UINT64_MAX exactly
  Decoder ok_dec{Slice(max)};
  auto got = ok_dec.GetVarint64();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, UINT64_MAX);
  for (uint8_t last : {0x02, 0x7F, 0x81}) {
    std::vector<uint8_t> buf(9, 0xFF);
    buf.push_back(last);
    buf.push_back(0x00);  // terminates the 0x81 continuation
    Decoder dec{Slice(buf)};
    EXPECT_EQ(dec.GetVarint64().status().code(), StatusCode::kCorruption)
        << "10th byte " << static_cast<int>(last);
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::vector<uint8_t> buf;
  PutLengthPrefixed(&buf, Slice(std::string("hello world")));
  PutLengthPrefixed(&buf, Slice(std::string("")));
  Decoder dec{Slice(buf)};
  EXPECT_EQ(dec.GetLengthPrefixed()->ToString(), "hello world");
  EXPECT_EQ(dec.GetLengthPrefixed()->ToString(), "");
  EXPECT_TRUE(dec.done());
}

// Every CRC-32C kernel this CPU can run is checked, the table-driven
// reference included, alongside the Crc32c entry point that dispatches to
// the active one.

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

uint32_t KernelCrc(const Crc32cKernel& kernel, const std::vector<uint8_t>& v) {
  return kernel.extend(0, v.data(), v.size());
}

TEST(Crc32cTest, ActiveKernelIsAvailable) {
  const std::vector<Crc32cKernel> kernels = AvailableCrc32cKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels[0].name, "table");
  bool found = false;
  for (const Crc32cKernel& k : kernels)
    found |= std::string(k.name) == ActiveCrc32cKernel().name;
  EXPECT_TRUE(found) << ActiveCrc32cKernel().name;
#if defined(SQLLEDGER_HAVE_SSE42_CRC)
  // The hardware kernel wins whenever the CPU has it.
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_STREQ(ActiveCrc32cKernel().name, "sse4.2");
  }
#endif
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 §B.4, plus the customary check value of "123456789".
  std::vector<uint8_t> ascending(32), descending(32);
  for (int i = 0; i < 32; i++) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const std::string check = "123456789";
  const std::vector<std::pair<std::vector<uint8_t>, uint32_t>> vectors = {
      {std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {std::vector<uint8_t>(check.begin(), check.end()), 0xE3069283u},
  };
  for (const auto& [bytes, want] : vectors) {
    EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), want);
    for (const Crc32cKernel& k : AvailableCrc32cKernels())
      EXPECT_EQ(KernelCrc(k, bytes), want) << k.name;
  }
}

TEST(Crc32cTest, EveryKernelMatchesTableAtEveryLengthAndOffset) {
  // Lengths 0..256 at start offsets 0..7 walk every alignment and every
  // tail length of the wide-step kernels.
  const std::vector<uint8_t> buf = RandomBytes(256 + 8, 11);
  const std::vector<Crc32cKernel> kernels = AvailableCrc32cKernels();
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t len = 0; len <= 256; len++) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t want = Crc32cExtendTable(0, p, len);
      for (const Crc32cKernel& k : kernels) {
        ASSERT_EQ(k.extend(0, p, len), want)
            << k.name << " offset=" << offset << " len=" << len;
      }
    }
  }
}

TEST(Crc32cTest, EveryKernelMatchesTableOnOneMebibyte) {
  const std::vector<uint8_t> buf = RandomBytes(size_t{1} << 20, 12);
  const uint32_t want = Crc32cExtendTable(0, buf.data(), buf.size());
  for (const Crc32cKernel& k : AvailableCrc32cKernels())
    EXPECT_EQ(KernelCrc(k, buf), want) << k.name;
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), want);
}

TEST(Crc32cTest, ExtendAtEverySplitEqualsOneShot) {
  const std::vector<uint8_t> buf = RandomBytes(1024, 13);
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split++) {
    const uint32_t head = Crc32c(buf.data(), split);
    ASSERT_EQ(Crc32cExtend(head, buf.data() + split, buf.size() - split),
              whole)
        << "split=" << split;
    for (const Crc32cKernel& k : AvailableCrc32cKernels()) {
      ASSERT_EQ(k.extend(k.extend(0, buf.data(), split), buf.data() + split,
                         buf.size() - split),
                whole)
          << k.name << " split=" << split;
    }
  }
}

TEST(Crc32cTest, DetectsBitFlip) {
  std::vector<uint8_t> buf = RandomBytes(64, 14);
  for (const Crc32cKernel& k : AvailableCrc32cKernels()) {
    const uint32_t before = KernelCrc(k, buf);
    for (size_t bit = 0; bit < buf.size() * 8; bit++) {
      buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_NE(KernelCrc(k, buf), before) << k.name << " bit=" << bit;
      buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

TEST(HexTest, RoundTrip) {
  std::vector<uint8_t> data = {0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0xFF};
  std::string hex = HexEncode(Slice(data));
  EXPECT_EQ(hex, "00deadbeefff");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST(HexTest, AcceptsUppercase) {
  auto decoded = HexDecode("DEADBEEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0], 0xDE);
}

TEST(HexTest, RejectsMalformed) {
  EXPECT_FALSE(HexDecode("abc").ok());   // odd length
  EXPECT_FALSE(HexDecode("zz").ok());    // not hex
}

TEST(JsonTest, RoundTripObject) {
  JsonValue doc = JsonValue::Object();
  doc.Set("id", JsonValue::Int(123456789012345));
  doc.Set("name", JsonValue::Str("ledger \"x\"\n"));
  doc.Set("ok", JsonValue::Bool(true));
  doc.Set("missing", JsonValue::Null());
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::Double(2.5));
  doc.Set("values", std::move(arr));

  auto parsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetInt("id"), 123456789012345);
  EXPECT_EQ(*parsed->GetString("name"), "ledger \"x\"\n");
  EXPECT_TRUE(parsed->Get("ok").bool_value());
  EXPECT_TRUE(parsed->Get("missing").is_null());
  EXPECT_EQ(parsed->Get("values").size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->Get("values")[1].double_value(), 2.5);
}

TEST(JsonTest, Int64RoundTripsExactly) {
  JsonValue doc = JsonValue::Object();
  doc.Set("big", JsonValue::Int(INT64_MAX));
  auto parsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetInt("big"), INT64_MAX);
}

TEST(JsonTest, ParsesNested) {
  auto parsed = JsonValue::Parse(
      R"({"a": {"b": [1, 2, {"c": "deep"}]}, "d": -3.5e2})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("a").Get("b")[2].Get("c").string_value(), "deep");
  EXPECT_DOUBLE_EQ(parsed->Get("d").double_value(), -350.0);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
}

TEST(JsonTest, UnicodeEscapes) {
  auto parsed = JsonValue::Parse(R"({"s": "aAé"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetString("s"), "aA\xC3\xA9");
}

TEST(JsonTest, FuzzedGarbageNeverCrashes) {
  // The parser sits on the trust boundary (digests/receipts arrive from
  // outside); arbitrary bytes must produce a clean error, never UB.
  Random rng(4242);
  const std::string kChars = "{}[]\",:.0123456789eE+-truefalsn\\u \n\tabc'";
  for (int i = 0; i < 3000; i++) {
    std::string garbage;
    size_t len = rng.Uniform(60);
    for (size_t j = 0; j < len; j++)
      garbage.push_back(kChars[rng.Uniform(kChars.size())]);
    auto parsed = JsonValue::Parse(garbage);
    if (parsed.ok()) {
      // Whatever parsed must re-serialize and re-parse to itself.
      auto reparsed = JsonValue::Parse(parsed->Dump());
      EXPECT_TRUE(reparsed.ok()) << garbage;
    }
  }
}

TEST(JsonTest, MutatedValidDocumentNeverCrashes) {
  JsonValue doc = JsonValue::Object();
  doc.Set("block_id", JsonValue::Int(42));
  doc.Set("hash", JsonValue::Str(std::string(64, 'a')));
  std::string base = doc.Dump();
  Random rng(7);
  for (int i = 0; i < 2000; i++) {
    std::string mutated = base;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    (void)JsonValue::Parse(mutated);  // must not crash; outcome irrelevant
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformRangeStaysInBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.UniformRange(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(RandomTest, NonUniformStaysInBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.NonUniform(255, 1, 3000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(RandomTest, AlphaStringHasRequestedLength) {
  Random rng(1);
  EXPECT_EQ(rng.AlphaString(0).size(), 0u);
  EXPECT_EQ(rng.AlphaString(17).size(), 17u);
}

}  // namespace
}  // namespace sqlledger

// Serialization round-trips and defensive-reader behaviour. Every wire
// format in the system sits on these primitives.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/bytes.h"
#include "common/guid.h"

namespace oftt {
namespace {

TEST(BinaryRoundTrip, Integers) {
  BinaryWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(std::numeric_limits<std::int64_t>::min());
  Buffer b = std::move(w).take();

  BinaryReader r(b);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(r.at_end());
  EXPECT_FALSE(r.failed());
}

TEST(BinaryRoundTrip, Doubles) {
  BinaryWriter w;
  w.f64(3.14159);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  Buffer b = std::move(w).take();
  BinaryReader r(b);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_DOUBLE_EQ(r.f64(), -0.0);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
}

TEST(BinaryRoundTrip, StringsAndBlobs) {
  BinaryWriter w;
  w.str("");
  w.str("hello OPC");
  w.str(std::string(10000, 'x'));
  w.blob(Buffer{1, 2, 3});
  Buffer b = std::move(w).take();
  BinaryReader r(b);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello OPC");
  EXPECT_EQ(r.str(), std::string(10000, 'x'));
  EXPECT_EQ(r.blob(), (Buffer{1, 2, 3}));
  EXPECT_FALSE(r.failed());
}

TEST(BinaryRoundTrip, EmbeddedNulBytesInStrings) {
  BinaryWriter w;
  std::string s("a\0b", 3);
  w.str(s);
  Buffer b = std::move(w).take();
  BinaryReader r(b);
  EXPECT_EQ(r.str(), s);
}

TEST(BinaryReader, TruncationSetsFailedInsteadOfCrashing) {
  BinaryWriter w;
  w.u64(7);
  Buffer b = std::move(w).take();
  b.resize(3);  // truncate mid-integer
  BinaryReader r(b);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_TRUE(r.failed());
  // Subsequent reads stay safe and zero-valued.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.failed());
}

TEST(BinaryReader, LyingLengthPrefixIsRejected) {
  BinaryWriter w;
  w.u32(0xFFFFFF);  // claims a 16 MiB string follows
  Buffer b = std::move(w).take();
  BinaryReader r(b);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.failed());
}

TEST(BinaryReader, RemainingTracksPosition) {
  BinaryWriter w;
  w.u32(1);
  w.u32(2);
  Buffer b = std::move(w).take();
  BinaryReader r(b);
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.at_end());
}

TEST(Fnv64, StableAndSensitive) {
  Buffer a{1, 2, 3};
  Buffer b{1, 2, 4};
  EXPECT_EQ(fnv64(a), fnv64(a));
  EXPECT_NE(fnv64(a), fnv64(b));
  EXPECT_NE(fnv64(a), fnv64(Buffer{}));
}

TEST(Crc32c, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_table(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // RFC 3720 (iSCSI) B.4 test vectors.
  EXPECT_EQ(crc32c(Buffer(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc32c(Buffer(32, 0xFF)), 0x62A8AB43u);
  Buffer ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);
}

Buffer pseudo_random_bytes(std::size_t n) {
  Buffer b(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& byte : b) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

// crc32c() runs on the SSE4.2 instruction where the CPU has it; it must
// agree with the portable table kernel on every length and alignment,
// or bytes written on one machine would fail their check on another.
TEST(Crc32c, DispatchedPathMatchesTableKernel) {
  const Buffer b = pseudo_random_bytes(1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc32c(b.data() + offset, len), detail::crc32c_table(b.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Long buffers run as three interleaved streams over 24 KiB chunks
  // on the hardware path; straddle the chunk edges and odd tails.
  const Buffer big = pseudo_random_bytes(6u << 20);
  for (std::size_t len : {24575u, 24576u, 24577u, 49159u, 73727u}) {
    EXPECT_EQ(crc32c(big.data() + 3, len), detail::crc32c_table(big.data() + 3, len))
        << "length " << len;
  }
  EXPECT_EQ(crc32c(big), detail::crc32c_table(big.data(), big.size()));
}

TEST(Crc32c, CombineEqualsCrcOfConcatenation) {
  const Buffer b = pseudo_random_bytes(100000);
  const std::uint32_t whole = crc32c(b);
  for (std::size_t split : {0u, 1u, 17u, 4096u, 24577u, 99999u, 100000u}) {
    const std::uint32_t a = crc32c(b.data(), split);
    const std::uint32_t rest = crc32c(b.data() + split, b.size() - split);
    EXPECT_EQ(crc32c_combine(a, rest, b.size() - split), whole) << "split at " << split;
  }
}

TEST(Guid, FromNameIsDeterministicAndDistinct) {
  Guid a = Guid::from_name("IID_IOPCServer");
  Guid b = Guid::from_name("IID_IOPCServer");
  Guid c = Guid::from_name("IID_IOPCGroup");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.is_null());
}

TEST(Guid, ToStringParsesBack) {
  Guid a = Guid::from_name("CLSID_CallTrack");
  EXPECT_EQ(Guid::parse(a.to_string()), a);
  // Braces optional.
  std::string s = a.to_string();
  EXPECT_EQ(Guid::parse(s.substr(1, s.size() - 2)), a);
}

TEST(Guid, ParseRejectsMalformed) {
  EXPECT_TRUE(Guid::parse("not-a-guid").is_null());
  EXPECT_TRUE(Guid::parse("{1234}").is_null());
  EXPECT_TRUE(Guid::parse("").is_null());
  // Wrong length (one hex digit short).
  EXPECT_TRUE(Guid::parse("{0000000-0000-0000-0000-000000000000}").is_null());
}

TEST(Guid, HashSpreads) {
  GuidHash h;
  EXPECT_NE(h(Guid::from_name("a")), h(Guid::from_name("b")));
}

TEST(Guid, OrderingIsTotal) {
  Guid a = Guid::from_name("a");
  Guid b = Guid::from_name("b");
  EXPECT_TRUE((a < b) != (b < a));
  EXPECT_TRUE(a == a);
}

}  // namespace
}  // namespace oftt

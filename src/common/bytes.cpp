#include "common/bytes.h"

#include <array>
#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define OFTT_CRC32C_SSE42 1
#endif

namespace oftt {

std::uint64_t fnv64(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv64(ByteView b) { return fnv64(b.data(), b.size()); }

namespace {

// Slicing-by-8 tables: t[0] is the classic byte table; t[k][i] is the
// CRC of byte i followed by k zero bytes, so eight table lookups fold
// one 64-bit word.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

std::uint32_t crc32c_table_update(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const auto& t = kCrc32cTables;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint64_t v = load_le64(p) ^ c;
    c = t[7][v & 0xFF] ^ t[6][(v >> 8) & 0xFF] ^ t[5][(v >> 16) & 0xFF] ^
        t[4][(v >> 24) & 0xFF] ^ t[3][(v >> 32) & 0xFF] ^ t[2][(v >> 40) & 0xFF] ^
        t[1][(v >> 48) & 0xFF] ^ t[0][v >> 56];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

// a * b mod P, both polynomials in the reflected bit order.
constexpr std::uint32_t crc32c_multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ 0x82F63B78u : b >> 1;
  }
  return p;
}

// x^(8 * 2^k) mod P for every k.
constexpr std::array<std::uint32_t, 64> make_crc32c_pow2_zeros() {
  std::array<std::uint32_t, 64> t{};
  std::uint32_t sq = 1u << 23;  // x^8: one zero byte
  for (auto& e : t) {
    e = sq;
    sq = crc32c_multmodp(sq, sq);
  }
  return t;
}

constexpr std::array<std::uint32_t, 64> kCrc32cPow2Zeros = make_crc32c_pow2_zeros();

// x^(8n) mod P: multiplying a CRC register by it is the same as feeding
// it n zero bytes. One multiplication per set bit of n.
constexpr std::uint32_t crc32c_zeros_op(std::size_t n) {
  std::uint32_t x = 1u << 31;  // x^0
  for (std::size_t k = 0; n != 0; n >>= 1, ++k) {
    if (n & 1) x = crc32c_multmodp(kCrc32cPow2Zeros[k], x);
  }
  return x;
}

#ifdef OFTT_CRC32C_SSE42
// The crc32 instruction takes three cycles, but a new one can start
// every cycle, so long buffers run as three independent streams over
// adjacent blocks.
// Feeding a block of zero bytes into a CRC register multiplies it by
// x^(8 * kCrcBlock) mod P; a 4x256 table does that multiplication, and
// folding the streams with it gives exactly the one-stream value.
constexpr std::size_t kCrcBlock = 8192;

using Crc32cShift = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr Crc32cShift make_crc32c_block_shift() {
  const std::uint32_t x = crc32c_zeros_op(kCrcBlock);
  Crc32cShift t{};
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) t[k][i] = crc32c_multmodp(x, i << (8 * k));
  }
  return t;
}

constexpr Crc32cShift kCrc32cBlockShift = make_crc32c_block_shift();

std::uint32_t crc32c_shift_block(std::uint32_t c) {
  const auto& t = kCrc32cBlockShift;
  return t[0][c & 0xFF] ^ t[1][(c >> 8) & 0xFF] ^ t[2][(c >> 16) & 0xFF] ^ t[3][c >> 24];
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42_update(std::uint32_t c,
                                                                    const std::uint8_t* p,
                                                                    std::size_t n) {
  for (; n >= 3 * kCrcBlock; n -= 3 * kCrcBlock, p += 2 * kCrcBlock) {
    std::uint64_t c0 = c;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (const std::uint8_t* end = p + kCrcBlock; p < end; p += 8) {
      c0 = _mm_crc32_u64(c0, load_le64(p));
      c1 = _mm_crc32_u64(c1, load_le64(p + kCrcBlock));
      c2 = _mm_crc32_u64(c2, load_le64(p + 2 * kCrcBlock));
    }
    c = crc32c_shift_block(static_cast<std::uint32_t>(c0)) ^ static_cast<std::uint32_t>(c1);
    c = crc32c_shift_block(c) ^ static_cast<std::uint32_t>(c2);
  }
  std::uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) c64 = _mm_crc32_u64(c64, load_le64(p));
  c = static_cast<std::uint32_t>(c64);
  for (; n > 0; --n, ++p) c = _mm_crc32_u8(c, *p);
  return c;
}
#endif

using Crc32cUpdate = std::uint32_t (*)(std::uint32_t, const std::uint8_t*, std::size_t);

Crc32cUpdate pick_crc32c() {
#ifdef OFTT_CRC32C_SSE42
  __builtin_cpu_init();  // the first call may come from a static initializer
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42_update;
#endif
  return crc32c_table_update;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n) {
  static const Crc32cUpdate update = pick_crc32c();
  return update(0xFFFFFFFFu, static_cast<const std::uint8_t*>(data), n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(ByteView b) { return crc32c(b.data(), b.size()); }

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b) {
  return crc32c_multmodp(crc32c_zeros_op(len_b), crc_a) ^ crc_b;
}

namespace detail {
std::uint32_t crc32c_table(const void* data, std::size_t n) {
  return crc32c_table_update(0xFFFFFFFFu, static_cast<const std::uint8_t*>(data), n) ^
         0xFFFFFFFFu;
}
}  // namespace detail

}  // namespace oftt

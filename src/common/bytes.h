// Byte buffers and binary serialization.
//
// Every wire format in the repo (ORPC marshaling, MSMQ payloads, OFTT
// checkpoint images, heartbeats) is built on BinaryWriter/BinaryReader:
// little-endian fixed-width integers, length-prefixed strings and blobs.
// Readers are defensive: reads past the end set an error flag rather
// than touching out-of-bounds memory, because a fault-tolerance layer
// must survive truncated messages from half-dead peers.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/guid.h"

namespace oftt {

using Buffer = std::vector<std::uint8_t>;
/// Read-only bytes owned elsewhere — a payload inside a frame, a record
/// inside a journal segment — so a layer can hand bytes on without
/// copying them. A Buffer converts to it implicitly.
using ByteView = std::span<const std::uint8_t>;

/// An unsigned integer between host and little-endian byte order: the
/// identity on little-endian hosts, a byte swap on big-endian ones.
template <typename T>
constexpr T to_le(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xFF));
    }
    return out;
  } else {
    return v;
  }
}

class BinaryWriter {
 public:
  BinaryWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void blob(ByteView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  void guid(const Guid& g) { raw(g.bytes.data(), g.bytes.size()); }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Overwrite four bytes already written at `at` (a length or a
  /// checksum known only once what follows is written).
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  /// Size the buffer once for a large frame, so appending never moves
  /// the bytes already written.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const Buffer& data() const& { return buf_; }
  Buffer take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  /// One capacity check and one copy per value, not one per byte.
  template <typename T>
  void append_le(T v) {
    v = to_le(v);
    raw(&v, sizeof v);
  }
  Buffer buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(ByteView buf) : data_(buf.data()), size_(buf.size()) {}
  BinaryReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() { return take_le<std::uint8_t>(); }
  std::uint16_t u16() { return take_le<std::uint16_t>(); }
  std::uint32_t u32() { return take_le<std::uint32_t>(); }
  std::uint64_t u64() { return take_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(take_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(take_le<std::uint64_t>()); }
  double f64() {
    std::uint64_t bits = take_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }

  std::string str() {
    std::uint32_t n = u32();
    if (!require(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  Buffer blob() {
    std::uint32_t n = u32();
    if (!require(n)) return {};
    Buffer b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }
  /// A blob read in place: the view points into the reader's bytes.
  ByteView blob_view() {
    std::uint32_t n = u32();
    if (!require(n)) return {};
    ByteView b(data_ + pos_, n);
    pos_ += n;
    return b;
  }
  Guid guid() {
    Guid g;
    if (!require(16)) return g;
    std::memcpy(g.bytes.data(), data_ + pos_, 16);
    pos_ += 16;
    return g;
  }

  /// True once any read ran past the end; all subsequent reads return
  /// zero values. Callers validate once at the end of a parse.
  bool failed() const { return failed_; }
  /// Reject the rest of the parse: a field was read but is not valid.
  void fail() { failed_ = true; }
  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  bool require(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }
  template <typename T>
  T take_le() {
    if (!require(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return to_le(v);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// FNV-1a hash. Not an integrity check: it names things (chaos schedule
/// ids) and is kept off every data path.
std::uint64_t fnv64(ByteView b);
std::uint64_t fnv64(const void* data, std::size_t n);

/// CRC-32C (Castagnoli polynomial, reflected): the one integrity check
/// on every byte boundary — the checkpoint image trailer on the wire and
/// the record frames of the durable journal. It detects all burst
/// errors up to 32 bits, which is what torn-write and bit-rot detection
/// on a log tail needs. On x86-64 CPUs with SSE4.2 it runs on the
/// `crc32` instruction (chosen once at run time); elsewhere on a
/// slicing-by-8 table. Both paths return identical values, so no byte
/// on disk or wire depends on the machine that wrote it.
std::uint32_t crc32c(const void* data, std::size_t n);
std::uint32_t crc32c(ByteView b);
/// crc32c(A followed by B) from crc32c(A), crc32c(B) and B's length,
/// without reading either: lets a checksum computed once travel with
/// its bytes into a larger frame. O(log len_b).
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b);

namespace detail {
/// The portable slicing-by-8 kernel behind crc32c(), exposed so tests
/// can hold the hardware path to it.
std::uint32_t crc32c_table(const void* data, std::size_t n);
}  // namespace detail

}  // namespace oftt

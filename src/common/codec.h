// Declarative wire codecs: one field list per message.
//
// A message describes its layout once, as a member template
//
//   template <class V> void fields(V& v) {
//     v.tag(MsgKind::kTakeover);  // fixed byte: kind, version
//     v(from_node);               // scalars, enums, strings, blobs, guids
//     v(reason);
//     v(items);                   // std::vector: u32 count + elements
//   }
//
// and the visitors below walk it. Writer emits the bytes (or, into a
// ByteCounter, just counts them: encoded_size); Reader parses them
// fail-closed; MinSize computes the smallest encoding of a type, which
// is what bounds a claimed element count against the bytes left.
// Reader rejects:
//   - a fixed byte (`tag`, `one_of`) with another value;
//   - an enum byte its `wire_valid()` predicate refuses. Every wire enum
//     has one, found by argument-dependent lookup next to the enum;
//   - a count larger than the bytes left over the element's minimum
//     encoded size — before anything is allocated;
//   - anything a BinaryReader rejects (truncation, lying lengths);
//   - and, for a whole frame (`decode`), trailing bytes.
// Decoding overwrites every listed field, so a message can be decoded
// into again and again: its vectors keep their capacity. After a failed
// decode its contents are unspecified.
// Field types: bool, integers (little-endian, their own width), enums
// (one byte), double, std::string and Buffer (u32 length + bytes), Guid,
// ByteView (a Buffer's encoding, decoded in place: the view points into
// the frame, which must outlive it),
// std::vector<T> (u32 count; `list<Count>` picks another width),
// std::map<K, V> (u32 count + key/value pairs, bounded like a vector;
// a repeated key keeps its last value), std::variant (u8 index +
// alternative), std::pair, and any type with its own fields(). Layouts
// are append-only: a field is never reordered or removed, since that
// changes the bytes every peer and pinned hash depends on.
//
// Layouts described this way: the control plane in core/wire.h, the
// swim::Update and MembershipView it embeds, the OPC notify frame and
// OpcValue/ItemState, the ORPC packets and dcom::InterfaceRef, the OPC
// and engine COM argument lists, the MSMQ packets and msmq::Message
// (wire and the queue manager's journal records), the transport DataFrame and AckFrame,
// CheckpointImage, nt::TaskContext, the diverter's JournaledSend, the
// FTIM policy record, the engine's role hint and opc::CallEvent.
// Two pieces stay hand-framed because neither is a field of the layout
// around it: the journal's record header (store/journal.cpp), built on
// the stack and gathered with the payload view so an image is never
// copied into a frame, and the checkpoint image's CRC-32C trailer,
// which covers the encoded fields and so is appended after them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/guid.h"

namespace oftt::codec {

namespace detail {
template <class T> struct is_vector : std::false_type {};
template <class T> struct is_vector<std::vector<T>> : std::true_type {};
template <class T> struct is_map : std::false_type {};
template <class K, class V> struct is_map<std::map<K, V>> : std::true_type {};
template <class T> struct is_variant : std::false_type {};
template <class... A> struct is_variant<std::variant<A...>> : std::true_type {};
template <class T> struct is_pair : std::false_type {};
template <class A, class B> struct is_pair<std::pair<A, B>> : std::true_type {};

// Bytes, strings and guids have dedicated BinaryWriter/Reader calls;
// every other scalar goes by its width.
template <class T>
inline constexpr bool is_scalar_v =
    std::is_arithmetic_v<T> || std::is_enum_v<T> || std::is_same_v<T, std::monostate>;

template <class T, bool = std::is_enum_v<T>> struct unsigned_of {
  using type = std::make_unsigned_t<T>;
};
template <class T> struct unsigned_of<T, true> {
  using type = std::make_unsigned_t<std::underlying_type_t<T>>;
};
}  // namespace detail

template <class T> std::size_t min_size();

/// Counts the bytes a BinaryWriter would append, writing none: the
/// sink behind encoded_size().
class ByteCounter {
 public:
  std::size_t bytes = 0;

  void u8(std::uint8_t) { bytes += 1; }
  void u16(std::uint16_t) { bytes += 2; }
  void u32(std::uint32_t) { bytes += 4; }
  void u64(std::uint64_t) { bytes += 8; }
  void f64(double) { bytes += 8; }
  void boolean(bool) { bytes += 1; }
  void str(std::string_view s) { bytes += 4 + s.size(); }
  void blob(ByteView b) { bytes += 4 + b.size(); }
  void guid(const Guid&) { bytes += 16; }
};

/// Emits a field list into `Out`: a BinaryWriter, or a ByteCounter.
template <class Out>
class BasicWriter {
 public:
  explicit BasicWriter(Out& w) : w_(w) {}

  template <class K> void tag(K k) { w_.u8(static_cast<std::uint8_t>(k)); }
  template <class E> void one_of(const E& e, std::initializer_list<E>) { tag(e); }
  template <class T> void optional(const T& x, bool present) {
    w_.boolean(present);
    if (present) (*this)(x);
  }
  template <class Count, class T> void list(const std::vector<T>& xs) {
    (*this)(static_cast<Count>(xs.size()));
    for (const T& x : xs) (*this)(x);
  }

  template <class T> void operator()(const T& x) {
    if constexpr (std::is_same_v<T, std::monostate>) {
    } else if constexpr (std::is_same_v<T, bool>) {
      w_.boolean(x);
    } else if constexpr (std::is_same_v<T, double>) {
      w_.f64(x);
    } else if constexpr (detail::is_scalar_v<T>) {
      static_assert(!std::is_enum_v<T> || sizeof(T) == 1, "wire enums are one byte");
      const auto u = static_cast<typename detail::unsigned_of<T>::type>(x);
      if constexpr (sizeof(T) == 1) w_.u8(u);
      else if constexpr (sizeof(T) == 2) w_.u16(u);
      else if constexpr (sizeof(T) == 4) w_.u32(u);
      else w_.u64(u);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(x);
    } else if constexpr (std::is_same_v<T, Buffer> || std::is_same_v<T, ByteView>) {
      w_.blob(x);
    } else if constexpr (std::is_same_v<T, Guid>) {
      w_.guid(x);
    } else if constexpr (detail::is_vector<T>::value) {
      list<std::uint32_t>(x);
    } else if constexpr (detail::is_map<T>::value) {
      (*this)(static_cast<std::uint32_t>(x.size()));
      for (const auto& [k, val] : x) {
        (*this)(k);
        (*this)(val);
      }
    } else if constexpr (detail::is_variant<T>::value) {
      tag(x.index());
      std::visit([this](const auto& alt) { (*this)(alt); }, x);
    } else if constexpr (detail::is_pair<T>::value) {
      (*this)(x.first);
      (*this)(x.second);
    } else {
      // Writing never mutates; fields() is non-const only so Reader can
      // share it.
      const_cast<T&>(x).fields(*this);
    }
  }

 private:
  Out& w_;
};

using Writer = BasicWriter<BinaryWriter>;

/// Parses a field list fail-closed: any rejection marks the underlying
/// BinaryReader failed, and every later read yields zero values.
class Reader {
 public:
  explicit Reader(BinaryReader& r) : r_(r) {}

  template <class K> void tag(K k) {
    if (r_.u8() != static_cast<std::uint8_t>(k)) r_.fail();
  }
  template <class E> void one_of(E& e, std::initializer_list<E> allowed) {
    const std::uint8_t raw = r_.u8();
    for (E a : allowed) {
      if (raw == static_cast<std::uint8_t>(a)) {
        e = a;
        return;
      }
    }
    r_.fail();
  }
  template <class T> void optional(T& x, bool /*present: decided by the wire*/) {
    x = T{};
    if (r_.boolean()) (*this)(x);
  }
  template <class Count, class T> void list(std::vector<T>& xs) {
    Count n{};
    (*this)(n);
    if (r_.failed()) return;
    if (n > r_.remaining() / std::max<std::size_t>(1, min_size<T>())) {
      r_.fail();
      return;
    }
    // Elements already there are overwritten in place, so decoding
    // into a used message keeps its nested vectors' capacity.
    xs.resize(n);
    for (T& x : xs) {
      (*this)(x);
      if (r_.failed()) return;
    }
  }

  template <class T> void operator()(T& x) {
    if constexpr (std::is_same_v<T, std::monostate>) {
    } else if constexpr (std::is_same_v<T, bool>) {
      x = r_.boolean();
    } else if constexpr (std::is_same_v<T, double>) {
      x = r_.f64();
    } else if constexpr (std::is_enum_v<T>) {
      const T e = static_cast<T>(r_.u8());
      if (wire_valid(e)) x = e;
      else r_.fail();
    } else if constexpr (detail::is_scalar_v<T>) {
      typename detail::unsigned_of<T>::type u{};
      if constexpr (sizeof(T) == 1) u = r_.u8();
      else if constexpr (sizeof(T) == 2) u = r_.u16();
      else if constexpr (sizeof(T) == 4) u = r_.u32();
      else u = r_.u64();
      x = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = r_.str();
    } else if constexpr (std::is_same_v<T, Buffer>) {
      x = r_.blob();
    } else if constexpr (std::is_same_v<T, ByteView>) {
      x = r_.blob_view();
    } else if constexpr (std::is_same_v<T, Guid>) {
      x = r_.guid();
    } else if constexpr (detail::is_vector<T>::value) {
      list<std::uint32_t>(x);
    } else if constexpr (detail::is_map<T>::value) {
      read_map(x);
    } else if constexpr (detail::is_variant<T>::value) {
      read_variant(x, std::make_index_sequence<std::variant_size_v<T>>{});
    } else if constexpr (detail::is_pair<T>::value) {
      (*this)(x.first);
      (*this)(x.second);
    } else {
      x.fields(*this);
    }
  }

 private:
  template <class K, class V> void read_map(std::map<K, V>& m) {
    m.clear();
    std::uint32_t n = 0;
    (*this)(n);
    if (r_.failed()) return;
    if (n > r_.remaining() / std::max<std::size_t>(1, min_size<K>() + min_size<V>())) {
      r_.fail();
      return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      K k{};
      V val{};
      (*this)(k);
      (*this)(val);
      if (r_.failed()) return;
      // Keys arrive sorted from an encoded map, so the end hint makes
      // each insert constant time.
      m.insert_or_assign(m.end(), std::move(k), std::move(val));
    }
  }

  template <class V, std::size_t... I> void read_variant(V& v, std::index_sequence<I...>) {
    const std::uint8_t index = r_.u8();
    if (index >= sizeof...(I)) {
      r_.fail();
      return;
    }
    ((index == I ? (*this)(v.template emplace<I>()) : void()), ...);
  }

  BinaryReader& r_;
};

/// Sums the smallest encoding of a field list: counts, lengths and
/// presence flags at zero, a variant at its smallest alternative.
class MinSize {
 public:
  std::size_t bytes = 0;

  template <class K> void tag(K) { bytes += 1; }
  template <class E> void one_of(E&, std::initializer_list<E>) { bytes += 1; }
  template <class T> void optional(T&, bool) { bytes += 1; }
  template <class Count, class T> void list(std::vector<T>&) { bytes += sizeof(Count); }

  template <class T> void operator()(T& x) {
    if constexpr (std::is_same_v<T, std::monostate>) {
    } else if constexpr (detail::is_scalar_v<T>) {
      bytes += sizeof(T);
    } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, ByteView> ||
                         detail::is_vector<T>::value || detail::is_map<T>::value) {
      bytes += 4;  // Buffer is a vector too: u32 length
    } else if constexpr (std::is_same_v<T, Guid>) {
      bytes += 16;
    } else if constexpr (detail::is_variant<T>::value) {
      bytes += 1 + smallest_alternative(static_cast<T*>(nullptr));
    } else if constexpr (detail::is_pair<T>::value) {
      (*this)(x.first);
      (*this)(x.second);
    } else {
      x.fields(*this);
    }
  }

 private:
  template <class... A> static std::size_t smallest_alternative(std::variant<A...>*) {
    return std::min({min_size<A>()...});
  }
};

/// Smallest encoding of T, computed once per type from its field list.
template <class T> std::size_t min_size() {
  static const std::size_t n = [] {
    MinSize m;
    T x{};
    m(x);
    return m.bytes;
  }();
  return n;
}

/// Append fields to a writer (an embedded layout, no framing).
template <class... T> void write(BinaryWriter& w, const T&... xs) {
  Writer v(w);
  (v(xs), ...);
}

/// Read fields from the reader's position; true unless the reader
/// failed (now or earlier). Trailing bytes are the caller's business.
template <class... T> bool read(BinaryReader& r, T&... xs) {
  Reader v(r);
  (v(xs), ...);
  return !r.failed();
}

/// Exact encoded size of the fields: what write() would append.
template <class... T> std::size_t encoded_size(const T&... xs) {
  ByteCounter c;
  BasicWriter<ByteCounter> v(c);
  (v(xs), ...);
  return c.bytes;
}

/// Fields into a fresh buffer, sized once: one allocation per frame
/// instead of one per doubling.
template <class... T> Buffer encode(const T&... xs) {
  BinaryWriter w;
  w.reserve(encoded_size(xs...));
  write(w, xs...);
  return std::move(w).take();
}

/// Whole-frame decode: every field valid and no byte left over.
template <class T> bool decode(ByteView b, T& out) {
  BinaryReader r(b);
  return read(r, out) && r.at_end();
}

/// CRTP base giving a message with fields() the `msg.encode()` /
/// `T::decode(buf, out)` pair.
template <class T> struct Message {
  Buffer encode() const { return codec::encode(static_cast<const T&>(*this)); }
  static bool decode(ByteView b, T& out) { return codec::decode(b, out); }
};

}  // namespace oftt::codec

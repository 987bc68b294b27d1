// OpcValue: the VARIANT analogue carried by OPC items, plus quality and
// timestamp (the OPC DA triple).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "sim/time.h"

namespace oftt::opc {

enum class Quality : std::uint8_t { kBad = 0, kUncertain = 1, kGood = 3 };

constexpr bool wire_valid(Quality q) {
  return q == Quality::kBad || q == Quality::kUncertain || q == Quality::kGood;
}

class OpcValue {
 public:
  OpcValue() = default;
  static OpcValue from_bool(bool v) { return OpcValue(Storage(v)); }
  static OpcValue from_int(std::int32_t v) { return OpcValue(Storage(v)); }
  static OpcValue from_real(double v) { return OpcValue(Storage(v)); }
  static OpcValue from_string(std::string v) { return OpcValue(Storage(std::move(v))); }

  bool empty() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int32_t>(v_); }
  bool is_real() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  bool as_bool(bool fallback = false) const;
  std::int32_t as_int(std::int32_t fallback = 0) const;
  /// Numeric coercion: bool/int/real all convert.
  double as_real(double fallback = 0.0) const;
  std::string as_string() const;

  bool operator==(const OpcValue&) const = default;

  /// Wire layout: u8 type tag (the variant index; an unknown tag fails
  /// the read) followed by the value.
  template <class V> void fields(V& v) { v(v_); }

  std::string to_string() const;

 private:
  using Storage = std::variant<std::monostate, bool, std::int32_t, double, std::string>;
  explicit OpcValue(Storage v) : v_(std::move(v)) {}
  Storage v_;
};

/// One item's state as shipped in reads and OnDataChange updates.
struct ItemState {
  std::string item_id;
  OpcValue value;
  Quality quality = Quality::kBad;
  sim::SimTime timestamp = 0;

  bool operator==(const ItemState&) const = default;

  template <class V> void fields(V& v) {
    v(item_id); v(value); v(quality); v(timestamp);
  }
};

}  // namespace oftt::opc

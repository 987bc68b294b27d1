#include "opc/value.h"

#include "common/strings.h"

namespace oftt::opc {

bool OpcValue::as_bool(bool fallback) const {
  if (auto* b = std::get_if<bool>(&v_)) return *b;
  if (auto* i = std::get_if<std::int32_t>(&v_)) return *i != 0;
  return fallback;
}

std::int32_t OpcValue::as_int(std::int32_t fallback) const {
  if (auto* i = std::get_if<std::int32_t>(&v_)) return *i;
  if (auto* b = std::get_if<bool>(&v_)) return *b ? 1 : 0;
  if (auto* d = std::get_if<double>(&v_)) return static_cast<std::int32_t>(*d);
  return fallback;
}

double OpcValue::as_real(double fallback) const {
  if (auto* d = std::get_if<double>(&v_)) return *d;
  if (auto* i = std::get_if<std::int32_t>(&v_)) return *i;
  if (auto* b = std::get_if<bool>(&v_)) return *b ? 1.0 : 0.0;
  return fallback;
}

std::string OpcValue::as_string() const {
  if (auto* s = std::get_if<std::string>(&v_)) return *s;
  return to_string();
}

std::string OpcValue::to_string() const {
  switch (v_.index()) {
    case 1: return std::get<bool>(v_) ? "true" : "false";
    case 2: return cat(std::get<std::int32_t>(v_));
    case 3: return cat(std::get<double>(v_));
    case 4: return std::get<std::string>(v_);
    default: return "(empty)";
  }
}

}  // namespace oftt::opc

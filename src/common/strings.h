// String helpers shared by all OFTT modules.
//
// gcc 12 does not ship std::format, so `cat(...)` provides the small
// subset we need: stream-style concatenation into a std::string.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace oftt {

/// Concatenate all arguments using operator<< into one string.
template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  ((os << std::forward<Args>(args)), ...);
  return os.str();
}

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

/// Render a byte count like "4.0 KiB" / "16 MiB" for human-facing tables.
std::string human_bytes(std::uint64_t bytes);

}  // namespace oftt

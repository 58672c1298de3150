// bbsim -- small string helpers shared across subsystems.
#pragma once

#include <charconv>
#include <string>
#include <system_error>
#include <vector>

#include "util/error.hpp"

namespace bbsim::util {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep);

/// Remove leading/trailing ASCII whitespace.
std::string trim(const std::string& text);

/// Join the parts with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `text` begins with `prefix`.
bool starts_with(const std::string& text, const std::string& prefix);

/// True if `text` ends with `suffix`.
bool ends_with(const std::string& text, const std::string& suffix);

/// Lower-case an ASCII string.
std::string to_lower(std::string text);

/// Parse all of `text` as a number (std::stod syntax). Anything else -- an
/// empty string, trailing characters ("1.5x"), a value out of range --
/// throws a ConfigError naming `what`, the flag or key the text came from.
double to_number(const std::string& text, const std::string& what);

/// Integer form of to_number(): all of `text` must be a base-10 Int, so a
/// fraction ("2.9"), a sign on an unsigned Int ("-1") or a value outside
/// Int's range is a ConfigError naming `what`.
template <typename Int>
Int to_integer(const std::string& text, const std::string& what) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    throw ConfigError("bad integer '" + text + "' for " + what);
  }
  return value;
}

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace bbsim::util

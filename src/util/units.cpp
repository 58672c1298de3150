#include "util/units.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bbsim::util {

namespace {

/// Splits "1.5 GB/s" into the numeric prefix and the (trimmed) suffix.
struct NumberWithSuffix {
  double value = 0.0;
  std::string suffix;
};

NumberWithSuffix split_number(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  const std::size_t start = i;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          text[i] == 'e' || text[i] == 'E' ||
          ((text[i] == '+' || text[i] == '-') && i > start &&
           (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
    ++i;
  }
  // The whole prefix must be one number: "1.2.3GB" or "1e" is malformed,
  // not 1.2 GB or 1 B.
  NumberWithSuffix out;
  try {
    out.value = to_number(text.substr(start, i - start), text);
  } catch (const ConfigError&) {
    throw ParseError("malformed number in '" + text + "'");
  }
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  std::size_t end = text.size();
  while (end > i && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  out.suffix = text.substr(i, end - i);
  return out;
}

double size_multiplier(const std::string& suffix) {
  static const std::map<std::string, double> kTable = {
      {"", 1.0},      {"B", 1.0},     {"b", 1.0},     {"kB", KB},   {"KB", KB},
      {"MB", MB},     {"GB", GB},     {"TB", TB},     {"KiB", KiB}, {"MiB", MiB},
      {"GiB", GiB},   {"TiB", TiB},   {"k", KB},      {"K", KB},    {"M", MB},
      {"G", GB},      {"T", TB}};
  const auto it = kTable.find(suffix);
  if (it == kTable.end()) throw ParseError("unknown size suffix '" + suffix + "'");
  return it->second;
}

}  // namespace

double parse_size(const std::string& text) {
  const auto [value, suffix] = split_number(text);
  const double bytes = value * size_multiplier(suffix);
  if (bytes < 0) throw ParseError("negative size '" + text + "'");
  return bytes;
}

double parse_bandwidth(const std::string& text) {
  auto [value, suffix] = split_number(text);
  // Strip a trailing "/s", "ps" or "Bps"-style rate marker.
  if (suffix.size() >= 2 && suffix.substr(suffix.size() - 2) == "/s") {
    suffix = suffix.substr(0, suffix.size() - 2);
  } else if (suffix.size() >= 2 && suffix.substr(suffix.size() - 2) == "ps") {
    suffix = suffix.substr(0, suffix.size() - 2);
  }
  const double rate = value * size_multiplier(suffix);
  if (rate < 0) throw ParseError("negative bandwidth '" + text + "'");
  return rate;
}

namespace {
std::string format_scaled(double value, const char* unit) {
  static const struct {
    double factor;
    const char* prefix;
  } kScales[] = {{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""}};
  for (const auto& s : kScales) {
    if (std::fabs(value) >= s.factor || s.factor == 1.0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.2f %s%s", value / s.factor, s.prefix, unit);
      return buf;
    }
  }
  return "0 " + std::string(unit);
}
}  // namespace

std::string format_size(double bytes) { return format_scaled(bytes, "B"); }

std::string format_bandwidth(double bytes_per_sec) {
  return format_scaled(bytes_per_sec, "B/s");
}

std::string format_time(double seconds) {
  char buf[64];
  if (seconds == 0.0) return "0 s";
  const double a = std::fabs(seconds);
  if (a < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
  } else if (a < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else if (a < 600.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f min", seconds / 60.0);
  }
  return buf;
}

}  // namespace bbsim::util

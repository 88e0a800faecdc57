// parse.h — the one strict parser for numeric command-line values.
//
// Every numeric flag of the CLIs is a non-negative count, seed or
// tolerance, and a value that is not exactly one must be a usage error,
// never a silent reinterpretation: strtoull reads "-1" as 2^64 - 1,
// saturates on overflow, and stops at the first stray byte ("12x" is
// 12, "abc" is 0). These parsers accept the whole string or nothing.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace divsec::util {

/// Unsigned decimal integer: one or more digits and nothing else — no
/// sign, no whitespace, no trailing bytes, no value above 2^64 - 1.
/// (std::from_chars reads no sign into an unsigned type.)
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

/// Non-negative finite decimal number ("0.01", "720", "1e-3"): no sign,
/// no whitespace, no trailing bytes, no nan/inf, nothing that overflows
/// a double.
/// (std::from_chars reads a leading '-' but never a '+'.)
inline std::optional<double> parse_f64(std::string_view text) {
  if (text.starts_with('-')) return std::nullopt;
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last || !std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace divsec::util

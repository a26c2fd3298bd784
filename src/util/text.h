#pragma once
// Small text helpers shared by parsers and report printers.

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace symcolor {

/// Split `input` on any run of characters from `delims`; empty tokens are
/// dropped.
std::vector<std::string> split_tokens(std::string_view input,
                                      std::string_view delims = " \t\r\n");

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s) noexcept;

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Render seconds with sensible precision for report tables ("12.3", "0.04",
/// or "T/O" when `timed_out`).
std::string format_seconds(double seconds, bool timed_out = false);

/// Render a large count compactly, e.g. 1.1e+168 style for symmetry-group
/// orders that overflow any integer type (input is log10 of the count).
std::string format_pow10(double log10_count);

/// Strict numeric flag value for the command-line tools: the whole token
/// must parse as a finite T no smaller than `min`; anything else (missing,
/// empty, trailing junk, overflow, NaN/inf) is nullopt.
template <typename T>
std::optional<T> parse_number(const char* text,
                              T min = std::numeric_limits<T>::lowest()) {
  if (text == nullptr) return std::nullopt;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value < min) return std::nullopt;
  return value;
}

}  // namespace symcolor

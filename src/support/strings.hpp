// Small string formatting helpers.
//
// libstdc++ 12 does not ship std::format, so we provide the handful of
// formatting utilities the library needs. `format` wraps vsnprintf for the
// one-off lines (CLI tables, wait-condition reasons). The writers that run
// per session or per arc (metrics JSON, DOT, the HTML report) append with
// the printf-free helpers below instead: std::to_chars for numbers and one
// bulk-copying append per escaping rule.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace wst::support {

/// printf-style formatting into a std::string. Renders into a stack buffer
/// and formats a second time only when the text does not fit.
[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...);

/// Append the decimal form of an integer, as printf's %d / %llu / %zu
/// print it.
template <std::integral T>
void appendInt(std::string& out, T value) {
  char buf[std::numeric_limits<T>::digits10 + 2];  // every digit + a sign
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// Append `value` exactly as printf's "%.3f" prints it: the exact binary
/// value rounded to three decimals, ties to even.
void appendFixed3(std::string& out, double value);

/// Append `value` with thousands separators: 1234567 -> "1,234,567".
void appendWithCommas(std::string& out, std::uint64_t value);

/// Append `text` escaped for HTML text content (& < > ").
void appendHtmlEscaped(std::string& out, std::string_view text);

/// Append `text` escaped for a JSON double-quoted string: the two mandatory
/// escapes (`"`, `\`), the common short forms (\b \f \n \r \t), and \u00xx
/// for every remaining control character below 0x20 — RFC 8259 requires all
/// of them, and an unescaped control character makes the whole document
/// unparsable.
void appendJsonEscaped(std::string& out, std::string_view text);

/// Append `text` escaped for a DOT double-quoted identifier (`"`, `\`).
void appendDotEscaped(std::string& out, std::string_view text);

/// Join elements with a separator: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Human-readable engineering formatting of a nanosecond duration,
/// e.g. 1'234'567 -> "1.235 ms".
std::string formatDurationNs(std::uint64_t ns);

/// appendWithCommas into a new string.
std::string withCommas(std::uint64_t value);

/// appendHtmlEscaped into a new string.
std::string htmlEscape(std::string_view text);

/// appendJsonEscaped into a new string.
std::string jsonEscape(std::string_view text);

/// appendDotEscaped into a new string.
std::string dotEscape(std::string_view text);

}  // namespace wst::support

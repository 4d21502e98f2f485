#include "support/strings.hpp"

#include <array>
#include <cstdarg>
#include <cstdio>

#include "support/assert.hpp"

namespace wst::support {

namespace {

/// Append `text` with one escaping rule: `escape(c)` is the replacement for
/// a character the rule escapes and empty for every other one. Runs of text
/// that need no escape are copied in one piece.
template <typename Escape>
void appendEscaped(std::string& out, std::string_view text, Escape escape) {
  std::size_t run = 0;  // start of the pending escape-free run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const std::string_view replacement = escape(text[i]);
    if (replacement.empty()) continue;
    out.append(text.data() + run, i - run);
    out.append(replacement);
    run = i + 1;
  }
  out.append(text.data() + run, text.size() - run);
}

/// "\u00xx" for each control character below 0x20.
constexpr auto kJsonControlEscapes = [] {
  constexpr char kHex[] = "0123456789abcdef";
  std::array<std::array<char, 6>, 0x20> table{};
  for (std::size_t c = 0; c < table.size(); ++c) {
    table[c] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
  }
  return table;
}();

}  // namespace

std::string format(const char* fmt, ...) {
  // Nearly every caller formats one short line, which fits here without a
  // separate sizing pass.
  char stack[256];
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);
  const int needed = std::vsnprintf(stack, sizeof stack, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    const auto size = static_cast<std::size_t>(needed);
    if (size < sizeof stack) {
      out.assign(stack, size);
    } else {
      out.resize(size);
      std::vsnprintf(out.data(), size + 1, fmt, retry);
    }
  }
  va_end(retry);
  return out;
}

void appendFixed3(std::string& out, double value) {
  // A sign, max_exponent10 + 1 integer digits, the point and three decimals:
  // room for any finite double (inf and nan are shorter).
  char buf[1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + 3];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, value, std::chars_format::fixed, 3);
  WST_ASSERT(r.ec == std::errc{}, "appendFixed3: buffer too small");
  out.append(buf, r.ptr);
}

void appendWithCommas(std::string& out, std::uint64_t value) {
  char digits[std::numeric_limits<std::uint64_t>::digits10 + 1];
  const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  const auto n = static_cast<std::size_t>(end - digits);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
}

void appendHtmlEscaped(std::string& out, std::string_view text) {
  appendEscaped(out, text, [](char c) -> std::string_view {
    switch (c) {
      case '&': return "&amp;";
      case '<': return "&lt;";
      case '>': return "&gt;";
      case '"': return "&quot;";
      default: return {};
    }
  });
}

void appendJsonEscaped(std::string& out, std::string_view text) {
  appendEscaped(out, text, [](char c) -> std::string_view {
    switch (c) {
      case '"': return "\\\"";
      case '\\': return "\\\\";
      case '\b': return "\\b";
      case '\f': return "\\f";
      case '\n': return "\\n";
      case '\r': return "\\r";
      case '\t': return "\\t";
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u >= kJsonControlEscapes.size()) return {};
        return {kJsonControlEscapes[u].data(), kJsonControlEscapes[u].size()};
      }
    }
  });
}

void appendDotEscaped(std::string& out, std::string_view text) {
  appendEscaped(out, text, [](char c) -> std::string_view {
    switch (c) {
      case '"': return "\\\"";
      case '\\': return "\\\\";
      default: return {};
    }
  });
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string formatDurationNs(std::uint64_t ns) {
  if (ns < 1'000ULL) return format("%llu ns", static_cast<unsigned long long>(ns));
  if (ns < 1'000'000ULL) return format("%.3f us", static_cast<double>(ns) / 1e3);
  if (ns < 1'000'000'000ULL) return format("%.3f ms", static_cast<double>(ns) / 1e6);
  return format("%.3f s", static_cast<double>(ns) / 1e9);
}

std::string withCommas(std::uint64_t value) {
  std::string out;
  appendWithCommas(out, value);
  return out;
}

std::string htmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  appendHtmlEscaped(out, text);
  return out;
}

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  appendJsonEscaped(out, text);
  return out;
}

std::string dotEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  appendDotEscaped(out, text);
  return out;
}

}  // namespace wst::support

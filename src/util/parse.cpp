#include "src/util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace tsc::util {

std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  // strtod skips leading whitespace and accepts "inf"/"nan"; reject both up
  // front so a token is exactly what it looks like.
  const unsigned char first = static_cast<unsigned char>(text.front());
  if (std::isspace(first)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;  // trailing garbage
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL))
    return std::nullopt;  // overflow (underflow to denormal/0 is fine)
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  for (char c : text)
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::optional<std::int64_t> parse_i64(const std::string& text) {
  std::string digits = text;
  bool negative = false;
  if (!digits.empty() && (digits.front() == '-' || digits.front() == '+')) {
    negative = digits.front() == '-';
    digits.erase(digits.begin());
  }
  const auto magnitude = parse_u64(digits);
  if (!magnitude) return std::nullopt;
  if (negative) {
    if (*magnitude > 9223372036854775808ULL) return std::nullopt;
    return static_cast<std::int64_t>(-*magnitude);
  }
  if (*magnitude > 9223372036854775807ULL) return std::nullopt;
  return static_cast<std::int64_t>(*magnitude);
}

std::optional<std::vector<std::uint64_t>> parse_u64_list(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::vector<std::uint64_t> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const auto item = parse_u64(text.substr(start, end - start));
    if (!item) return std::nullopt;
    values.push_back(*item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

double require_double(const std::string& text, const std::string& what) {
  const auto value = parse_double(text);
  if (!value)
    throw std::invalid_argument(what + ": expected a finite number, got \"" +
                                text + "\"");
  return *value;
}

std::uint64_t require_u64(const std::string& text, const std::string& what) {
  const auto value = parse_u64(text);
  if (!value)
    throw std::invalid_argument(what + ": expected a non-negative integer, got \"" +
                                text + "\"");
  return *value;
}

}  // namespace tsc::util

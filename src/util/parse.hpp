// Strict numeric parsing for CLI arguments and scenario-file tokens.
//
// The std::atof / std::atoi family silently turns typos into 0 and
// std::stod accepts trailing garbage ("3.5x" parses as 3.5), so every
// user-facing number in the tools and the scenario reader goes through
// these helpers instead: the WHOLE token must be a valid, in-range number
// or the parse fails (std::nullopt). Callers attach their own context
// (usage message, scenario line number) to the failure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tsc::util {

/// Parses `text` as a finite double. The full token must be consumed:
/// empty strings, leading/trailing garbage or whitespace, overflow
/// (e.g. "1e999"), and non-finite spellings ("inf", "nan") all fail.
std::optional<double> parse_double(const std::string& text);

/// Parses `text` as a base-10 unsigned integer. Rejects empty strings,
/// any non-digit character (including sign and whitespace), and overflow.
std::optional<std::uint64_t> parse_u64(const std::string& text);

/// Parses `text` as a base-10 signed integer (optional leading '-').
std::optional<std::int64_t> parse_i64(const std::string& text);

/// Parses a comma-separated list of unsigned integers ("1,2,3").
/// Empty list, empty items, and any invalid item fail.
std::optional<std::vector<std::uint64_t>> parse_u64_list(const std::string& text);

/// parse_double / parse_u64 for callers without their own usage message:
/// a malformed token throws std::invalid_argument whose message names
/// `what` (the argument or environment variable) and quotes the token.
double require_double(const std::string& text, const std::string& what);
std::uint64_t require_u64(const std::string& text, const std::string& what);

}  // namespace tsc::util

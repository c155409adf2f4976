#pragma once
// Strict string→number parsing for operator-facing surfaces (CLI flags,
// config fields). The C conversions the tools used before (atoi/atof) have
// exactly the wrong failure mode for a campaign launcher: "--threads=abc"
// silently becomes 0 (= all cores) and "--seeds=junk" becomes 0 (= empty
// matrix). These helpers accept a value only when the ENTIRE string is a
// well-formed number that fits the target type, and return std::nullopt
// otherwise — the caller decides how to report it.

#include <cstdint>
#include <optional>
#include <string_view>

namespace gshe {

/// Decimal unsigned 64-bit integer. Rejects empty input, signs, whitespace,
/// trailing characters and values above UINT64_MAX.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Unsigned 64-bit seed: decimal as parse_u64, or hexadecimal after a
/// "0x"/"0X" prefix (seeds are printed in hex, e.g. campaign_seed=0x6a0b5eed).
/// Rejects a bare prefix, non-hex digits and values above UINT64_MAX.
std::optional<std::uint64_t> parse_seed(std::string_view s);

/// Decimal signed 64-bit integer (optional leading '-'). Rejects empty
/// input, whitespace, trailing characters and out-of-range values.
std::optional<std::int64_t> parse_i64(std::string_view s);

/// Finite floating-point number in the forms strtod accepts ("0.5",
/// "1e-3", "-2"). Rejects empty input, leading/trailing characters
/// (including whitespace), inf and nan.
std::optional<double> parse_double(std::string_view s);

}  // namespace gshe

#include "common/parse.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

namespace gshe {

std::optional<std::uint64_t> parse_u64(std::string_view s) {
    if (s.empty()) return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') return std::nullopt;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
        value = value * 10 + digit;
    }
    return value;
}

std::optional<std::uint64_t> parse_seed(std::string_view s) {
    if (s.size() < 2 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X'))
        return parse_u64(s);
    s.remove_prefix(2);
    if (s.empty()) return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : s) {
        int digit = 0;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        else return std::nullopt;
        if (value > (UINT64_MAX >> 4)) return std::nullopt;  // overflow
        value = value << 4 | static_cast<std::uint64_t>(digit);
    }
    return value;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
    const bool negative = !s.empty() && s.front() == '-';
    const auto magnitude = parse_u64(negative ? s.substr(1) : s);
    if (!magnitude) return std::nullopt;
    if (negative) {
        // |INT64_MIN| does not fit an int64_t, so compare then negate in
        // unsigned space.
        if (*magnitude > static_cast<std::uint64_t>(INT64_MAX) + 1)
            return std::nullopt;
        return static_cast<std::int64_t>(~*magnitude + 1);
    }
    if (*magnitude > static_cast<std::uint64_t>(INT64_MAX)) return std::nullopt;
    return static_cast<std::int64_t>(*magnitude);
}

std::optional<double> parse_double(std::string_view s) {
    if (s.empty()) return std::nullopt;
    // strtod accepts leading whitespace and "inf"/"nan"; a CLI flag value
    // should be a plain finite number, so reject those up front.
    const char front = s.front();
    if (!(front == '-' || front == '+' || front == '.' ||
          (front >= '0' && front <= '9')))
        return std::nullopt;
    // strtod also speaks hex floats ("0x10" = 16.0); a CLI value that
    // looks hexadecimal is far more likely a mistake than intent, and
    // parse_u64 already rejects it — stay consistent.
    for (const char c : s)
        if (c == 'x' || c == 'X') return std::nullopt;
    const std::string buf(s);  // strtod needs a terminated string
    char* end = nullptr;
    const double value = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) return std::nullopt;
    if (!std::isfinite(value)) return std::nullopt;
    return value;
}

}  // namespace gshe

// Checked numeric flag values for the command-line tools (mlpart,
// mlpart_serve, mlpart_bench, fuzz_invariants).
//
// A flag value must parse as a whole: "12x", "", "abc", and out-of-range
// values are usage errors naming the flag, never a silently truncated
// number or an uncaught std::stoi exception. Header-only so a tool source
// can be compiled on its own without an extra library.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <system_error>

namespace mlpart::cli {

/// Flag-value parser bound to one tool's usage(): a malformed value calls
/// `fail` with a message naming the flag, and `fail` prints it and exits 2
/// without returning.
struct FlagParser {
    void (*fail)(const std::string& msg);

    /// The whole of `s` as a T, or fail("<flag>: malformed number '<s>'").
    template <typename T>
    T number(const std::string& flag, const std::string& s) const {
        T v{};
        const char* end = s.data() + s.size();
        const auto [ptr, ec] = std::from_chars(s.data(), end, v);
        if (s.empty() || ec != std::errc() || ptr != end)
            fail(flag + ": malformed number '" + s + "'");
        return v;
    }

    /// "512m" style byte counts: a decimal count with an optional binary
    /// k/m/g suffix.
    std::uint64_t byteSize(const std::string& flag, const std::string& s) const {
        std::uint64_t mult = 1;
        std::string digits = s;
        if (!s.empty() && std::isalpha(static_cast<unsigned char>(s.back()))) {
            switch (std::tolower(static_cast<unsigned char>(s.back()))) {
                case 'k': mult = std::uint64_t{1} << 10; break;
                case 'm': mult = std::uint64_t{1} << 20; break;
                case 'g': mult = std::uint64_t{1} << 30; break;
                default:
                    fail(flag + ": unknown suffix '" + s.substr(s.size() - 1) +
                         "' (want k/m/g)");
            }
            digits.pop_back();
        }
        const std::uint64_t v = number<std::uint64_t>(flag, digits);
        if (v > std::numeric_limits<std::uint64_t>::max() / mult)
            fail(flag + ": byte count '" + s + "' overflows 64 bits");
        return v * mult;
    }
};

} // namespace mlpart::cli

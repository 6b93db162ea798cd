#ifndef PROST_COMMON_STR_UTIL_H_
#define PROST_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace prost {

/// printf-style formatting into a std::string. Used instead of std::format,
/// which is unavailable in the toolchain this project targets (GCC 12).
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `input` on `delimiter`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view input, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view input);

/// Joins `parts` with `separator`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view separator);

/// Formats a byte count as a human-readable string ("2.1 GB", "532 KB").
std::string HumanBytes(uint64_t bytes);

/// Formats milliseconds as a human-readable duration ("3h 11m 44s",
/// "25m 32s", "1,195ms").
std::string HumanDuration(double millis);

/// Formats an integer with thousands separators ("2,195,322").
std::string WithThousands(uint64_t value);

}  // namespace prost

#endif  // PROST_COMMON_STR_UTIL_H_

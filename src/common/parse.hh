/**
 * @file
 * Strict command-line number parsing shared by the bench CLI and the
 * operator tools. A value is accepted only when the whole text is one
 * decimal number that fits the target: "2x", "abc", "", " 3" and
 * out-of-range values are rejected instead of silently reading as 2,
 * 0 or a wrapped-around count.
 */

#ifndef PTH_COMMON_PARSE_HH
#define PTH_COMMON_PARSE_HH

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace pth
{

/**
 * Parse text as exactly one decimal integer, optionally negative.
 * Returns false (out untouched) on empty text, a leading '+' or
 * space, any trailing character, or overflow.
 */
inline bool
parseDecimal(const char *text, long long &out)
{
    if (!text || (*text != '-' && (*text < '0' || *text > '9')))
        return false;
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (errno == ERANGE || end == text || *end != '\0')
        return false;
    out = value;
    return true;
}

/** parseDecimal restricted to [0, UINT_MAX]: a count. */
inline bool
parseCount(const char *text, unsigned &out)
{
    long long value = 0;
    if (!parseDecimal(text, value) || value < 0 || value > UINT_MAX)
        return false;
    out = static_cast<unsigned>(value);
    return true;
}

/**
 * Parse text as a finite, non-negative decimal: digits with at most
 * one '.' ("10", "2.5", ".5"). Signs, exponents, hex, "nan", "inf",
 * spaces and empty text are rejected (out untouched), so a typo can
 * neither read as 0 nor disarm a threshold.
 */
inline bool
parseNonNegativeReal(const char *text, double &out)
{
    if (!text)
        return false;
    bool digit = false;
    bool dot = false;
    for (const char *c = text; *c; ++c) {
        if (*c >= '0' && *c <= '9')
            digit = true;
        else if (*c == '.' && !dot)
            dot = true;
        else
            return false;
    }
    if (!digit)
        return false;
    const double value = std::strtod(text, nullptr);
    if (!std::isfinite(value))
        return false;
    out = value;
    return true;
}

} // namespace pth

#endif // PTH_COMMON_PARSE_HH

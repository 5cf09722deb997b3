/**
 * @file
 * The one strict number parser for text from outside the program:
 * command-line values, environment variables, and the key=value specs
 * of --arrival and --churn. The token must be consumed in full, so
 * "2x" is not 2 and "abc" is not 0, which is what atoi/atof would
 * make of them. Lint rule `raw-number-parse` keeps every other file
 * off the C library's number parsers.
 */

#ifndef COSCALE_COMMON_NUMBER_PARSE_HH
#define COSCALE_COMMON_NUMBER_PARSE_HH

#include <cstdint>
#include <string>

namespace coscale {

/**
 * Parse @p text as a finite double, consumed in full. False on an
 * empty or partial token, overflow, or inf/nan; @p out is then left
 * untouched.
 */
bool parseDouble(const std::string &text, double *out);

/**
 * Parse @p text as an unsigned decimal integer, consumed in full. The
 * token must start with a digit: strtoull alone skips whitespace and
 * accepts a sign, wrapping " -5" to 2^64 - 5. False on junk or
 * overflow; @p out is then left untouched.
 */
bool parseU64(const std::string &text, std::uint64_t *out);

} // namespace coscale

#endif // COSCALE_COMMON_NUMBER_PARSE_HH

// The sanctioned shape: one strict parser, and a caller that turns
// its refusal into a structured error. Names that merely contain the
// banned spellings stay silent.
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/number_parse.hh"

namespace coscale {

double
scale(const std::string &text)
{
    double v = 0.0;
    if (!parseDouble(text, &v))
        throw std::invalid_argument("bad scale '" + text + "'");
    return v;
}

std::uint64_t
restore(std::uint64_t stored, const std::string &text)
{
    std::uint64_t v = stored;
    return parseU64(text, &v) ? v : stored;
}

} // namespace coscale

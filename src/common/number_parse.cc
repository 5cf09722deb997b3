#include "common/number_parse.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace coscale {

bool
parseDouble(const std::string &text, double *out)
{
    errno = 0;
    const char *begin = text.c_str();
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE
        || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
}

} // namespace coscale

// Hand-rolled flag parsing: each call reads "2x" as 2, "abc" as 0, or
// "-5" as 2^64 - 5, or throws std::invalid_argument on junk.
#include <cstdint>
#include <cstdlib>
#include <string>

namespace coscale {

int
cores(const char *text)
{
    return std::atoi(text);
}

double
scale(const char *text)
{
    return atof(text);
}

std::uint64_t
seed(const char *text)
{
    return std::strtoull(text, nullptr, 10);
}

double
bound(const std::string &text)
{
    return std::stod(text) + static_cast<double>(std::stoi(text));
}

} // namespace coscale

#include "cluster/arrival.hh"

#include <cmath>
#include <limits>
#include <vector>

namespace coscale {
namespace cluster {

namespace {

/** The --arrival keys, one row each over @p s's fields. */
std::vector<exp::Option>
arrivalRows(ArrivalSpec &s)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr exp::Range positive{0.0, inf, true};
    constexpr exp::Range unit{0.0, 1.0};
    std::vector<exp::Option> rows;
    rows.push_back({"rate", "", &s.ratePerSec, "", positive});
    rows.push_back({"diurnal", "", &s.diurnalAmp, "", unit});
    rows.push_back({"period", "", &s.diurnalPeriod, "", {1.0}});
    rows.push_back({"burst", "", &s.burstProb, "", unit});
    rows.push_back({"burstx", "", &s.burstMult, "", {1.0}});
    rows.push_back({"ipr", "", &s.instrPerRequest, "", {1.0}});
    rows.push_back({"slo", "", &s.sloSecs, "", positive});
    rows.push_back({"seed", "", &s.seed, ""});
    return rows;
}

} // namespace

ArrivalSpec
parseArrivalSpec(const std::string &text)
{
    ArrivalSpec spec;
    try {
        exp::parseSpec(arrivalRows(spec), text);
    } catch (const exp::SpecParseError &e) {
        throw ArrivalParseError(e);
    }
    return spec;
}

std::string
formatArrivalSpec(const ArrivalSpec &s)
{
    ArrivalSpec copy = s;
    return exp::formatSpec(arrivalRows(copy));
}

bool
isBurstEpoch(const ArrivalSpec &spec, std::uint64_t epoch)
{
    if (spec.burstProb <= 0.0)
        return false;
    return arrivalUniform(spec.seed, epoch, ArrivalStream::BurstGate)
           < spec.burstProb;
}

double
arrivalRatePerSec(const ArrivalSpec &spec, std::uint64_t epoch)
{
    double rate =
        spec.ratePerSec
        * (1.0
           + spec.diurnalAmp * diurnalWave(epoch, spec.diurnalPeriod));
    if (isBurstEpoch(spec, epoch))
        rate *= spec.burstMult;
    return rate;
}

std::uint64_t
arrivalsInEpoch(const ArrivalSpec &spec, std::uint64_t epoch,
                double epoch_secs)
{
    double expected = arrivalRatePerSec(spec, epoch) * epoch_secs;
    if (expected <= 0.0)
        return 0;
    double whole = std::floor(expected);
    std::uint64_t count = static_cast<std::uint64_t>(whole);
    // The fractional arrival resolves by a stateless coin, keeping
    // long-run throughput equal to the rate with zero carried state.
    if (arrivalUniform(spec.seed, epoch, ArrivalStream::CountFrac)
        < expected - whole) {
        count += 1;
    }
    return count;
}

} // namespace cluster
} // namespace coscale

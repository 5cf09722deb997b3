/**
 * @file
 * The cluster's open-loop request stream: a seeded arrival generator
 * with a diurnal load wave, probabilistic burst epochs, and
 * per-request latency SLOs — "millions of users" traffic rather than
 * a fixed SPEC trace (ROADMAP, fleet-scale item).
 *
 * Determinism contract: every arrival count is a pure function of
 * (spec, epoch) through the stateless splitmix64 hash from
 * fault/fault_plan.hh — never a sequential RNG — so the stream is
 * independent of worker count, node count, and evaluation order, and
 * identical across platforms. The diurnal wave is a piecewise
 * parabola (multiplications only, no libm transcendentals), because
 * std::sin is not bit-identical across C libraries and the stream
 * feeds golden fixtures.
 */

#ifndef COSCALE_CLUSTER_ARRIVAL_HH
#define COSCALE_CLUSTER_ARRIVAL_HH

#include <cstdint>
#include <string>

#include "exp/options.hh"
#include "fault/fault_plan.hh"

namespace coscale {
namespace cluster {

/** An --arrival spec failed to parse: its kind, token and offset. */
class ArrivalParseError : public exp::SpecParseError
{
  public:
    using SpecParseError::SpecParseError;
    explicit ArrivalParseError(const SpecParseError &e)
        : SpecParseError(e)
    {
    }
};

/**
 * One request stream: base rate modulated by a diurnal wave, with
 * burst epochs and a latency SLO per request. A plain value — two
 * equal specs generate bit-identical streams.
 */
struct ArrivalSpec
{
    /** Mean request arrival rate at zero diurnal phase. */
    double ratePerSec = 4000.0;

    /** Diurnal modulation amplitude in [0, 1]: rate swings between
     *  rate*(1-amp) and rate*(1+amp) over one period. */
    double diurnalAmp = 0.0;

    /** Diurnal period in cluster epochs ("one day"). */
    std::uint64_t diurnalPeriod = 64;

    /** Probability that an epoch is a burst epoch. */
    double burstProb = 0.0;

    /** Rate multiplier during a burst epoch (>= 1). */
    double burstMult = 4.0;

    /** Service demand per request, in instructions. */
    double instrPerRequest = 250e3;

    /** Per-request latency SLO in seconds. */
    double sloSecs = 2e-3;

    /** Stream seed (independent of the nodes' workload seeds). */
    std::uint64_t seed = 1;
};

/**
 * Parse a comma-separated key=value spec, e.g.
 *   "rate=4000,diurnal=0.4,period=64,burst=0.05,burstx=4,
 *    ipr=250000,slo=0.002,seed=7"
 * Unset keys keep their ArrivalSpec defaults. Throws
 * ArrivalParseError on malformed input.
 */
ArrivalSpec parseArrivalSpec(const std::string &text);

/** Round-trip: a spec string parseArrivalSpec() maps back to @p s. */
std::string formatArrivalSpec(const ArrivalSpec &s);

/**
 * Hash sub-streams of the cluster layer. Values start at 100 so they
 * can never collide with fault::FaultStream draws sharing a seed.
 */
enum class ArrivalStream : std::uint64_t
{
    BurstGate = 100, //!< is this epoch a burst epoch?
    CountFrac = 101, //!< fractional-arrival coin
    Route = 102,     //!< load-balancer tie-breaks (reserved)
    NodeSeed = 103,  //!< per-node workload seed derivation
};

/** Stateless hash for the cluster streams (splitmix64 chain). */
constexpr std::uint64_t
arrivalHash(std::uint64_t seed, std::uint64_t epoch, ArrivalStream s,
            std::uint64_t sub = 0)
{
    std::uint64_t x = fault::faultMix64(seed);
    x = fault::faultMix64(x ^ epoch);
    x = fault::faultMix64(x ^ static_cast<std::uint64_t>(s));
    return fault::faultMix64(x ^ sub);
}

/** Uniform double in [0, 1) from the stateless hash. */
constexpr double
arrivalUniform(std::uint64_t seed, std::uint64_t epoch, ArrivalStream s,
               std::uint64_t sub = 0)
{
    return static_cast<double>(arrivalHash(seed, epoch, s, sub) >> 11)
           * 0x1.0p-53;
}

/**
 * The diurnal wave at @p epoch for a cycle of @p period epochs: a
 * piecewise parabola through (0,0) -> (period/4, 1) ->
 * (period/2, 0) -> (3*period/4, -1) -> (period, 0), the libm-free
 * stand-in for sin(2*pi*epoch/period). Exact on every platform.
 */
constexpr double
diurnalWave(std::uint64_t epoch, std::uint64_t period)
{
    if (period == 0)
        return 0.0;
    double x = static_cast<double>(epoch % period)
               / static_cast<double>(period);
    return x < 0.5 ? 16.0 * x * (0.5 - x)
                   : -16.0 * (x - 0.5) * (1.0 - x);
}

/** True when @p epoch draws a burst under @p spec. */
bool isBurstEpoch(const ArrivalSpec &spec, std::uint64_t epoch);

/** Instantaneous arrival rate at @p epoch (diurnal + burst). */
double arrivalRatePerSec(const ArrivalSpec &spec, std::uint64_t epoch);

/**
 * Arrivals in cluster epoch @p epoch of @p epoch_secs: the integer
 * part of rate*epoch_secs plus a hash coin for the fractional part,
 * so long-run throughput matches the rate without any sequential
 * state.
 */
std::uint64_t arrivalsInEpoch(const ArrivalSpec &spec,
                              std::uint64_t epoch, double epoch_secs);

} // namespace cluster
} // namespace coscale

#endif // COSCALE_CLUSTER_ARRIVAL_HH

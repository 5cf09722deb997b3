/**
 * @file
 * Cluster-scale node churn: a seeded plan of crashes, reboots with
 * warm-up ramps, hang/straggler episodes, flapping, and telemetry
 * blackouts toward the allocator (DESIGN.md §12 "Failure domain &
 * self-healing").
 *
 * Determinism contract: every churn decision is a pure function of
 * (plan, seed, epoch, node) through the stateless splitmix64 hash
 * from fault/fault_plan.hh, on dedicated FaultStream lanes (200+)
 * that can never collide with the fault layer's (1..7) or the
 * arrival layer's (100+). All churn state evolves in the cluster's
 * serial pre-phase, so a churned run keeps the exact
 * bit-identical-under---jobs-N contract of a clean one.
 */

#ifndef COSCALE_CLUSTER_CHURN_HH
#define COSCALE_CLUSTER_CHURN_HH

#include <cstdint>
#include <string>

#include "exp/options.hh"
#include "fault/fault_plan.hh"

namespace coscale {
namespace cluster {

/** A --churn spec failed to parse: its kind, token and offset. */
class ChurnParseError : public exp::SpecParseError
{
  public:
    using SpecParseError::SpecParseError;
    explicit ChurnParseError(const SpecParseError &e)
        : SpecParseError(e)
    {
    }
};

/**
 * What can happen to a node and how often, plus the health monitor's
 * suspicion thresholds. A plain value: two equal plans produce
 * bit-identical churn. All probabilities are per node per cluster
 * epoch, drawn only while the node is up; a default-constructed plan
 * is "no churn" and the cluster skips the whole failure domain
 * (zero cost when off, like FaultPlan and obs/).
 */
struct ChurnPlan
{
    /** Churn-stream seed. 0 means "derive from the cluster seed". */
    std::uint64_t seed = 0;

    /** Probability a node crashes (power-loss reboot). */
    double crashProb = 0.0;

    /** Epochs a crashed node stays down before rebooting (>= 1). */
    int rebootEpochs = 3;

    /**
     * Warm-up ramp after a reboot: the node rejoins at the all-min
     * configuration and its grant is pinned to its power floor for
     * this many epochs before it resumes full participation.
     */
    int rampEpochs = 2;

    /** Probability of a flap: a crash with a 1-epoch downtime. */
    double flapProb = 0.0;

    /**
     * Probability a node starts a hang/straggler episode: it stays
     * powered (stuck drawing its last epoch's power) but retires
     * nothing, serves nothing, and misses its heartbeats.
     */
    double hangProb = 0.0;

    /** Maximum hang length; each episode draws 1..hangEpochs. */
    int hangEpochs = 2;

    /**
     * Probability of a telemetry blackout toward the allocator: the
     * node keeps running and heartbeating, but its envelope reports
     * do not arrive, so the allocator must budget it conservatively.
     */
    double blackoutProb = 0.0;

    /** Maximum blackout length; each draws 1..blackoutEpochs. */
    int blackoutEpochs = 1;

    /** Missed heartbeats before alive -> suspect (>= 1). */
    int suspectAfter = 1;

    /**
     * Missed heartbeats before suspect -> dead (>= suspectAfter).
     * Declaring a node dead fences it (a hung node is forcibly
     * powered off, STONITH-style), drains its queue, and reclaims
     * its power grant.
     */
    int deadAfter = 3;

    /** True when any failure mode is armed. */
    bool
    enabled() const
    {
        return crashProb > 0.0 || flapProb > 0.0 || hangProb > 0.0
               || blackoutProb > 0.0;
    }
};

/**
 * Parse a comma-separated key=value spec, e.g.
 *   "crash=0.05,reboot=3,ramp=2,flap=0.02,hang=0.05,hangx=2,
 *    blackout=0.1,blackoutx=1,suspect=1,dead=3,seed=7"
 * (formatChurnSpec()'s canonical key order; keys may appear in any
 * order on input).
 * Unset keys keep their ChurnPlan defaults. Throws ChurnParseError
 * on malformed input (including dead < suspect).
 */
ChurnPlan parseChurnSpec(const std::string &text);

/** Round-trip: a spec string parseChurnSpec() maps back to @p p. */
std::string formatChurnSpec(const ChurnPlan &p);

/** Per-kind event counts accumulated over a churned cluster run. */
struct ChurnSummary
{
    std::uint64_t crashes = 0;   //!< crash episodes started
    std::uint64_t flaps = 0;     //!< 1-epoch crash blips
    std::uint64_t hangs = 0;     //!< hang episodes started
    std::uint64_t blackouts = 0; //!< telemetry blackout episodes
    std::uint64_t fences = 0;    //!< dead verdicts that powered off
                                 //!< a still-drawing (hung) node
    std::uint64_t deaths = 0;    //!< dead verdicts declared
    std::uint64_t rejoins = 0;   //!< ramps completed back to alive
    std::uint64_t reroutedRequests = 0; //!< drained + re-routed
    std::uint64_t downNodeEpochs = 0;   //!< node-epochs spent down

    std::uint64_t
    total() const
    {
        return crashes + flaps + hangs + blackouts + fences + deaths
               + rejoins;
    }
};

/** Resolve the effective churn seed (plan seed, else derived). */
constexpr std::uint64_t
churnSeed(const ChurnPlan &p, std::uint64_t cluster_seed)
{
    if (p.seed)
        return p.seed;
    // Dedicated derivation lane: shifting the cluster seed before the
    // mix keeps churn draws decoupled from every (seed, epoch,
    // stream) tuple the arrival and fault layers can form.
    std::uint64_t s = fault::faultMix64(cluster_seed
                                        ^ 0x636872756e5f6370ULL);
    return s ? s : 1;
}

/** Does @p node crash at @p epoch (drawn only while it is up)? */
bool churnCrashAt(const ChurnPlan &p, std::uint64_t seed,
                  std::uint64_t epoch, std::uint64_t node);

/** Does @p node flap (1-epoch crash) at @p epoch? */
bool churnFlapAt(const ChurnPlan &p, std::uint64_t seed,
                 std::uint64_t epoch, std::uint64_t node);

/** Hang episode length starting at @p epoch: 0 = none, else 1..max. */
int churnHangLenAt(const ChurnPlan &p, std::uint64_t seed,
                   std::uint64_t epoch, std::uint64_t node);

/** Blackout length starting at @p epoch: 0 = none, else 1..max. */
int churnBlackoutLenAt(const ChurnPlan &p, std::uint64_t seed,
                       std::uint64_t epoch, std::uint64_t node);

} // namespace cluster
} // namespace coscale

#endif // COSCALE_CLUSTER_CHURN_HH

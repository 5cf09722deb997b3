/**
 * @file
 * Deterministic fault-injection plans (the "what can go wrong" side
 * of the resilience layer; DESIGN.md "Resilience & fault injection").
 *
 * A FaultPlan is a plain value describing which seams of the
 * simulation misbehave and how often. Every fault decision is a pure
 * function of (plan, seed, epoch, stream) through a stateless
 * splitmix64-style hash — never a sequential RNG — so injected faults
 * are independent of worker count and execution order, and a faulted
 * run keeps the exact determinism contract of a clean one: the same
 * request produces bit-identical results under --jobs 1 and
 * --jobs N.
 */

#ifndef COSCALE_FAULT_FAULT_PLAN_HH
#define COSCALE_FAULT_FAULT_PLAN_HH

#include <cstdint>

namespace coscale {

class JsonWriter;

namespace fault {

/**
 * Per-seam fault probabilities and magnitudes. All default to zero:
 * a default-constructed plan is "no faults" and the runner skips the
 * injector entirely (zero cost when off, like obs/).
 */
struct FaultPlan
{
    /**
     * Fault-stream seed. 0 means "derive from the run's config seed",
     * so a plan embedded in a RunRequest stays a pure function of the
     * request.
     */
    std::uint64_t seed = 0;

    // --- (a) performance-counter faults (profiling snapshot) ---

    /**
     * Multiplicative noise amplitude on the timing-related profile
     * fields the policies read: each noisy epoch scales them by
     * (1 + counterNoiseBias + counterNoiseAmp * u), u uniform in
     * [-1, 1) per core per epoch.
     */
    double counterNoiseAmp = 0.0;

    /**
     * Persistent relative bias on the *memory-stall channel* only
     * (beta, the per-miss stall time, and the DRAM wait counters).
     * This is the adversarial model-error direction: a uniform bias
     * on every field cancels out of the slack feasibility ratios
     * (reference and candidate TPIs inflate together), but skewing
     * the CPU-vs-memory split makes Eq. 1 systematically mis-rank
     * configurations — e.g. a positive bias makes core downclocking
     * look cheaper than it is. Applied on every noisy epoch.
     */
    double counterNoiseBias = 0.0;

    /**
     * Probability that a given epoch's counter read is noisy at all.
     * Defaults to "always" so setting just an amplitude works; lower
     * it to model occasional glitches.
     */
    double counterNoiseProb = 1.0;

    /**
     * Probability per epoch that one core's counters drop out: its
     * profile reads back as garbage (NaN), which must trip the
     * policies' model-output validation, not crash the search.
     */
    double counterDropoutProb = 0.0;

    /**
     * Probability per epoch that the profiling snapshot is stale: the
     * previous epoch's (clean) profile is served again.
     */
    double counterStaleProb = 0.0;

    // --- (b) DVFS transition faults ---

    /** Requested frequency change denied outright (keeps previous). */
    double transitionDenyProb = 0.0;

    /**
     * Requested change delayed one epoch: the previous configuration
     * runs this epoch and the request lands at the next epoch
     * boundary (during the next profiling phase).
     */
    double transitionDelayProb = 0.0;

    /**
     * Requested change lands one ladder rung short of the request in
     * every dimension that moved.
     */
    double transitionClampProb = 0.0;

    // --- (c) epoch-timer jitter ---

    /**
     * Epoch length jitter: each epoch runs for
     * epochLen * (1 + epochJitterFrac * u), u uniform in [-1, 1),
     * clamped so the epoch always outlasts its profiling phase.
     */
    double epochJitterFrac = 0.0;

    /** True when any seam is active. */
    bool
    enabled() const
    {
        return counterNoiseAmp > 0.0 || counterNoiseBias != 0.0
               || counterDropoutProb > 0.0 || counterStaleProb > 0.0
               || transitionDenyProb > 0.0
               || transitionDelayProb > 0.0
               || transitionClampProb > 0.0 || epochJitterFrac > 0.0;
    }
};

/** Per-kind event counts accumulated over a faulted run. */
struct FaultSummary
{
    std::uint64_t noisyEpochs = 0;
    std::uint64_t staleProfiles = 0;
    std::uint64_t counterDropouts = 0;
    std::uint64_t transitionsDenied = 0;
    std::uint64_t transitionsDelayed = 0;
    std::uint64_t transitionsClamped = 0;
    std::uint64_t jitteredEpochs = 0;

    std::uint64_t
    total() const
    {
        return noisyEpochs + staleProfiles + counterDropouts
               + transitionsDenied + transitionsDelayed
               + transitionsClamped + jitteredEpochs;
    }

    FaultSummary &
    operator+=(const FaultSummary &o)
    {
        noisyEpochs += o.noisyEpochs;
        staleProfiles += o.staleProfiles;
        counterDropouts += o.counterDropouts;
        transitionsDenied += o.transitionsDenied;
        transitionsDelayed += o.transitionsDelayed;
        transitionsClamped += o.transitionsClamped;
        jitteredEpochs += o.jitteredEpochs;
        return *this;
    }

    /** The run and fleet reports' "faults" object, written into @p j. */
    void writeJson(JsonWriter &j) const;
};

/**
 * Independent fault decision streams. Combined with the epoch number
 * (and a per-core sub-index where needed) into the stateless hash, so
 * adding a stream never perturbs the draws of another.
 */
enum class FaultStream : std::uint64_t
{
    NoiseGate = 1,   //!< is this epoch's counter read noisy?
    NoiseDraw = 2,   //!< per-core noise factor
    Dropout = 3,
    DropoutCore = 4,
    Stale = 5,
    Transition = 6,
    EpochJitter = 7,

    // Cluster churn lanes (cluster/churn.hh). Values start at 200 so
    // they can never collide with the single-machine streams above or
    // with cluster::ArrivalStream (100+) draws sharing a seed. The
    // sub-index is the node id.
    ChurnCrash = 200,       //!< does this node crash this epoch?
    ChurnFlap = 201,        //!< 1-epoch crash blip
    ChurnHang = 202,        //!< hang/straggler episode gate
    ChurnHangLen = 203,     //!< hang episode length draw
    ChurnBlackout = 204,    //!< telemetry blackout gate
    ChurnBlackoutLen = 205, //!< blackout length draw
};

/** One round of splitmix64's output mix (bijective, well-avalanched). */
constexpr std::uint64_t
faultMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * The stateless fault hash: a 64-bit value determined only by
 * (seed, epoch, stream, sub). This is the whole determinism story —
 * no draw depends on how many draws happened before it.
 */
constexpr std::uint64_t
faultHash(std::uint64_t seed, std::uint64_t epoch, FaultStream stream,
          std::uint64_t sub = 0)
{
    std::uint64_t x = faultMix64(seed);
    x = faultMix64(x ^ epoch);
    x = faultMix64(x ^ static_cast<std::uint64_t>(stream));
    return faultMix64(x ^ sub);
}

/** Uniform double in [0, 1) from the stateless hash. */
constexpr double
faultUniform(std::uint64_t seed, std::uint64_t epoch,
             FaultStream stream, std::uint64_t sub = 0)
{
    return static_cast<double>(faultHash(seed, epoch, stream, sub)
                               >> 11)
           * 0x1.0p-53;
}

/** Uniform double in [-1, 1) from the stateless hash. */
constexpr double
faultSigned(std::uint64_t seed, std::uint64_t epoch, FaultStream stream,
            std::uint64_t sub = 0)
{
    return 2.0 * faultUniform(seed, epoch, stream, sub) - 1.0;
}

} // namespace fault
} // namespace coscale

#endif // COSCALE_FAULT_FAULT_PLAN_HH

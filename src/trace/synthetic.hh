/**
 * @file
 * Synthetic application model substituting for the paper's SPEC
 * SimPoint traces (see DESIGN.md, "Substitutions").
 *
 * An application is a cyclic sequence of phases; each phase is a
 * stochastic process characterised by its compute CPI, L1 miss rate
 * (= LLC access rate), intended LLC miss ratio, write fraction,
 * spatial run length (sequential-streaming behaviour, which the
 * next-line prefetcher exploits), hot-set size (temporal reuse, which
 * the real simulated LLC turns into hits), and instruction mix.
 */

#ifndef COSCALE_TRACE_SYNTHETIC_HH
#define COSCALE_TRACE_SYNTHETIC_HH

#include <string>
#include <vector>

#include "common/intdiv.hh"
#include "common/rng.hh"
#include "trace/trace.hh"

namespace coscale {

/** Parameters of one application phase. */
struct AppPhase
{
    std::uint64_t instructions = 1'000'000; //!< phase length
    double baseCpi = 1.0;      //!< compute cycles per instruction
    double l1Mpki = 20.0;      //!< LLC accesses per kilo-instruction
    double llcMpki = 2.0;      //!< intended LLC misses per kilo-instr
    double writeFrac = 0.25;   //!< stores among LLC accesses
    double seqRunLen = 6.0;    //!< mean sequential streaming run
    std::uint64_t hotBlocks = 2048; //!< hot working set (blocks)
    double fAlu = 0.45;        //!< instruction-mix fractions
    double fFpu = 0.05;
    double fBranch = 0.15;
    double fMem = 0.35;

    bool operator==(const AppPhase &) const = default;
};

/** A named application: phases, cycled until the core's budget. */
struct AppSpec
{
    std::string name;
    std::vector<AppPhase> phases;

    bool operator==(const AppSpec &) const = default;
};

/** Generates TraceRecords from an AppSpec. Fully value-typed. */
class SyntheticTraceSource final : public TraceSource
{
  public:
    /**
     * @param spec the application model
     * @param addr_space distinct per core; block addresses are offset
     *        by addr_space << 34 so applications never share blocks
     * @param seed RNG seed (distinct per core for copy diversity)
     */
    SyntheticTraceSource(AppSpec spec, int addr_space,
                         std::uint64_t seed);

    TraceRecord next() override;
    std::unique_ptr<TraceSource> clone() const override;

    const AppSpec &spec() const { return app; }

  private:
    // The four helpers below are next()'s steps, defined always-inline
    // in synthetic.cc, so generating a record calls none of them.

    /**
     * Effective phase parameters, ramped linearly from the previous
     * phase over the first ~15% of the current phase (real programs
     * shift behaviour gradually, not as step functions). The returned
     * reference is valid until the next call or phase advance.
     */
    const AppPhase &blendedPhase() const;
    void advancePhase(std::uint64_t instrs);
    BlockAddr pickAddress(const AppPhase &p);
    void refreshRates(const AppPhase &p);

    AppSpec app;
    BlockAddr base = 0;         //!< address-space base (block index)
    Rng rng;
    size_t phaseIdx = 0;
    std::uint64_t phaseInstrsLeft = 0;
    bool anyPhaseCompleted = false; //!< no blending before 1st switch
    BlockAddr streamPtr = 0;    //!< streaming cursor within region
    std::uint64_t streamRunLeft = 0;
    mutable AppPhase blendBuf;  //!< blendedPhase() scratch (no copy
                                //!< on the common non-ramp path)

    // Memo for the per-record derived rates (three double divisions
    // otherwise recomputed from the same phase parameters millions of
    // times in a row). Keyed on the exact inputs and storing the exact
    // computed doubles, so reuse is bit-identical to recomputation.
    // Plain doubles keep the type trivially copyable (the Offline
    // oracle deep-copies every generator). l1Mpki is never negative,
    // so the -1 sentinel can't match a real key.
    double rateKeyL1 = -1.0;    //!< memo key: p.l1Mpki
    double rateKeyLlc = -1.0;   //!< memo key: p.llcMpki
    double memoGapMean = 0.0;   //!< 1000 / l1Mpki (or 1000)
    double memoGapP = 0.0;      //!< 1 / max(1, gapMean)
    double memoMissRatio = 0.0; //!< min(1, llcMpki / l1Mpki) (or 0)

    // Reciprocal for the hot-set reduction (one per reuse access);
    // the hot-set size only changes at phase boundaries. Exact (see
    // intdiv.hh), so results match the plain modulo bit for bit.
    InvariantMod hotMod;
};

} // namespace coscale

#endif // COSCALE_TRACE_SYNTHETIC_HH

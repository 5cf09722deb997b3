#include "trace/synthetic.hh"

#include <algorithm>

#include "check/contract.hh"
#include "common/log.hh"

namespace coscale {

namespace {

// Streaming region size per application: 2^24 blocks (1 GB), far
// larger than the LLC so streamed blocks never accidentally hit.
constexpr std::uint64_t streamRegionBlocks = std::uint64_t(1) << 24;

} // namespace

SyntheticTraceSource::SyntheticTraceSource(AppSpec spec, int addr_space,
                                           std::uint64_t seed)
    : app(std::move(spec)),
      base(static_cast<BlockAddr>(addr_space) << 34),
      rng(seed)
{
    COSCALE_CHECK(!app.phases.empty(), "app '%s' has no phases",
                  app.name.c_str());
    phaseInstrsLeft = app.phases[0].instructions;
    streamPtr = rng.range(streamRegionBlocks);
}

[[gnu::always_inline]] inline const AppPhase &
SyntheticTraceSource::blendedPhase() const
{
    const AppPhase &cur = app.phases[phaseIdx];
    if (app.phases.size() < 2 || !anyPhaseCompleted)
        return cur;

    std::uint64_t ramp = cur.instructions * 15 / 100;
    std::uint64_t progressed = cur.instructions - phaseInstrsLeft;
    if (ramp == 0 || progressed >= ramp)
        return cur;

    const AppPhase &prev =
        app.phases[(phaseIdx + app.phases.size() - 1)
                   % app.phases.size()];
    double t = static_cast<double>(progressed)
               / static_cast<double>(ramp);
    auto lerp = [t](double a, double b) { return a + t * (b - a); };

    blendBuf = cur;
    blendBuf.baseCpi = lerp(prev.baseCpi, cur.baseCpi);
    blendBuf.l1Mpki = lerp(prev.l1Mpki, cur.l1Mpki);
    blendBuf.llcMpki = lerp(prev.llcMpki, cur.llcMpki);
    blendBuf.writeFrac = lerp(prev.writeFrac, cur.writeFrac);
    return blendBuf;
}

[[gnu::always_inline]] inline void
SyntheticTraceSource::advancePhase(std::uint64_t instrs)
{
    while (instrs >= phaseInstrsLeft) {
        instrs -= phaseInstrsLeft;
        phaseIdx = (phaseIdx + 1) % app.phases.size();
        phaseInstrsLeft = app.phases[phaseIdx].instructions;
        anyPhaseCompleted = true;
    }
    phaseInstrsLeft -= instrs;
}

[[gnu::always_inline]] inline void
SyntheticTraceSource::refreshRates(const AppPhase &p)
{
    if (p.l1Mpki == rateKeyL1 && p.llcMpki == rateKeyLlc)
        return;
    rateKeyL1 = p.l1Mpki;
    rateKeyLlc = p.llcMpki;
    memoGapMean = p.l1Mpki > 0.0 ? 1000.0 / p.l1Mpki : 1000.0;
    memoGapP = 1.0 / std::max(1.0, memoGapMean);
    // Miss-intent ratio: what fraction of LLC accesses should stream
    // (and therefore miss in a cache they have never touched).
    memoMissRatio =
        p.l1Mpki > 0.0 ? std::min(1.0, p.llcMpki / p.l1Mpki) : 0.0;
}

[[gnu::always_inline]] inline BlockAddr
SyntheticTraceSource::pickAddress(const AppPhase &p)
{
    if (rng.bernoulli(memoMissRatio)) {
        // Streaming access: advance the sequential cursor; jump to a
        // random far location when the current run ends.
        if (streamRunLeft == 0) {
            streamRunLeft = rng.geometric(1.0 / std::max(1.0, p.seqRunLen));
            streamPtr = rng.range(streamRegionBlocks);
        }
        streamRunLeft -= 1;
        BlockAddr a = streamPtr;
        streamPtr = (streamPtr + 1) % streamRegionBlocks;
        // Hot region occupies the bottom of the space; keep streams
        // clear of it.
        return base + p.hotBlocks + a;
    }

    // Reuse access within the hot working set. Same draw, same
    // reduction as rng.range(hot) — just without the divide.
    std::uint64_t hot = std::max<std::uint64_t>(1, p.hotBlocks);
    if (hot != hotMod.d)
        hotMod.rebind(hot);
    return base + hotMod(rng.next());
}

TraceRecord
SyntheticTraceSource::next()
{
    // Reference, not copy: valid through this call since the phase
    // only advances at the very end.
    const AppPhase &p = blendedPhase();
    refreshRates(p);

    TraceRecord r;
    std::uint64_t gap = rng.geometric(memoGapP);
    gap = std::min<std::uint64_t>(gap, 100'000);
    r.gapInstrs = static_cast<std::uint32_t>(gap);

    // Mild CPI jitter so profiling windows are realistic predictors,
    // not perfect ones.
    double cpi = p.baseCpi * rng.uniform(0.95, 1.05);
    r.gapCycles = static_cast<std::uint32_t>(
        std::max(1.0, cpi * static_cast<double>(gap) + 0.5));

    auto mix_count = [&](double frac) {
        double v = frac * static_cast<double>(gap);
        std::uint64_t n = static_cast<std::uint64_t>(v);
        if (rng.bernoulli(v - static_cast<double>(n)))
            n += 1;
        return static_cast<std::uint16_t>(std::min<std::uint64_t>(n, 65535));
    };
    r.aluOps = mix_count(p.fAlu);
    r.fpuOps = mix_count(p.fFpu);
    r.branchOps = mix_count(p.fBranch);
    r.memOps = mix_count(p.fMem);

    r.addr = pickAddress(p);
    r.isWrite = rng.bernoulli(p.writeFrac) ? 1 : 0;

    advancePhase(gap);
    return r;
}

std::unique_ptr<TraceSource>
SyntheticTraceSource::clone() const
{
    return std::make_unique<SyntheticTraceSource>(*this);
}

} // namespace coscale

#include "policy/fastcap.hh"

#include <algorithm>

#include "model/knobs.hh"

namespace coscale {

namespace {

/**
 * Phase 1: start from all-max and greedily take the highest-utility
 * (delta power / delta performance) single step — one memory rung or
 * one rung on one core — until the predicted system power fits under
 * @p target_w. Sets *over_cap when even all-min cannot fit;
 * accumulates search telemetry into *candidates / *mem_steps.
 */
FreqConfig
greedyCapDescent(const SystemProfile &profile, const EnergyModel &em,
                 double target_w, bool *over_cap,
                 std::uint64_t *candidates, std::uint64_t *mem_steps)
{
    // The cap is a feasibility predicate over the knob space
    // (DESIGN.md §13), not a separate search mode: walk until the
    // vector becomes feasible.
    KnobSpace space = makeKnobSpace(em, profile, target_w);
    int n = space.numCores;
    FreqConfig cfg = FreqConfig::allMax(n);
    *over_cap = false;

    constexpr double eps = 1e-15;
    *candidates += 1;
    while (!space.underCap(em, profile, cfg)) {
        // Candidate steps: one memory step or one step on any core.
        double best_utility = -1.0;
        FreqConfig best_next = cfg;
        bool any = false;

        if (cfg.memIdx + 1 < space.memSteps) {
            FreqConfig next = cfg;
            next.memIdx += 1;
            double d_power = em.systemPower(profile, cfg)
                             - em.systemPower(profile, next);
            double d_perf = std::max(
                em.relativeTime(profile, next)
                    - em.relativeTime(profile, cfg),
                eps);
            double u = d_power / d_perf;
            *candidates += 1;
            if (u > best_utility) {
                best_utility = u;
                best_next = next;
                any = true;
            }
        }
        for (int i = 0; i < n; ++i) {
            if (cfg.coreIdx[static_cast<size_t>(i)] + 1
                >= space.coreSteps) {
                continue;
            }
            FreqConfig next = cfg;
            next.coreIdx[static_cast<size_t>(i)] += 1;
            double d_power = em.corePower(profile, i, cfg)
                             - em.corePower(profile, i, next);
            double d_perf = std::max(
                em.relativeTime(profile, next)
                    - em.relativeTime(profile, cfg),
                eps);
            double u = d_power / d_perf;
            *candidates += 1;
            if (u > best_utility) {
                best_utility = u;
                best_next = next;
                any = true;
            }
        }

        if (!any) {
            *over_cap = true;  // everything already at minimum
            break;
        }
        if (best_next.memIdx != cfg.memIdx)
            *mem_steps += 1;
        cfg = best_next;
    }
    return cfg;
}

} // namespace

FreqConfig
FastCapPolicy::decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &, Tick)
{
    // Phase 1 — fit, aiming slightly below the cap: the prediction is
    // model-based and the epoch's actual activity can run a little
    // hotter than the profiling window suggested.
    double target = capWatts * 0.96;
    std::uint64_t candidates = 0;
    std::uint64_t mem_steps = 0;
    FreqConfig cfg = greedyCapDescent(profile, em, target, &overCap,
                                      &candidates, &mem_steps);

    // Phase 2 — fairness upgrade (off for PowerCap, whose capping
    // walk optimises power fit only): the utility-greedy descent can
    // overshoot (its last, highest-utility step is not necessarily
    // the cheapest one that fits), leaving headroom another dimension
    // could use. Repeatedly take the single upgrade that most reduces
    // predicted relative time while still fitting under the target.
    // Each iteration raises one ladder index, so the loop is bounded
    // by the total rung count.
    constexpr double eps = 1e-12;
    KnobSpace space = makeKnobSpace(em, profile, target);
    while (fairnessPhase && !overCap) {
        int n = static_cast<int>(profile.cores.size());
        double cur_rel = em.relativeTime(profile, cfg);
        double best_rel = cur_rel - eps;
        FreqConfig best_next = cfg;
        bool any = false;

        if (cfg.memIdx > 0) {
            FreqConfig next = cfg;
            next.memIdx -= 1;
            candidates += 1;
            if (space.underCap(em, profile, next)) {
                double rel = em.relativeTime(profile, next);
                if (rel < best_rel) {
                    best_rel = rel;
                    best_next = next;
                    any = true;
                }
            }
        }
        for (int i = 0; i < n; ++i) {
            if (cfg.coreIdx[static_cast<size_t>(i)] == 0)
                continue;
            FreqConfig next = cfg;
            next.coreIdx[static_cast<size_t>(i)] -= 1;
            candidates += 1;
            if (space.underCap(em, profile, next)) {
                double rel = em.relativeTime(profile, next);
                if (rel < best_rel) {
                    best_rel = rel;
                    best_next = next;
                    any = true;
                }
            }
        }
        if (!any)
            break;
        if (best_next.memIdx != cfg.memIdx)
            mem_steps += 1;
        cfg = best_next;
    }

    if (obsEnabled())
        traceSearch(candidates, mem_steps, 0, 0, -1.0);
    return cfg;
}

void
FastCapPolicy::observeEpoch(const EpochObservation &obs,
                            const EnergyModel &em)
{
    // Honest all-max reference, like CoScale: the ledger records how
    // far the cap pushed each application behind its nominal pace.
    // Reporting only — decide() never reads it (see the header).
    if (!fairnessPhase)
        return;
    int n = static_cast<int>(obs.epochProfile.cores.size());
    double secs = ticksToSeconds(obs.epochTicks);
    for (int i = 0; i < n; ++i) {
        int app = appOf(obs.appOnCore, i);
        tracker.update(app, em.tpiAtMax(obs.epochProfile, i),
                       obs.instrs[static_cast<size_t>(i)], secs);
    }
}

} // namespace coscale

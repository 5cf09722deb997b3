#include "policy/coscale_policy.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/log.hh"
#include "model/knobs.hh"

namespace coscale {

namespace {

constexpr double perfEpsilon = 1e-15;

/** Accept a way transfer only on a strict SER descent. */
constexpr double wayDescentEps = 1e-12;

/** Sorted-list entry for the Fig. 3 group-formation sub-algorithm. */
struct CoreEntry
{
    int core;
    double dPerf;   //!< relative TPI increase of one step down
    double dPower;  //!< power reduction of one step down
};

/**
 * The starting way allocation for the pre-balance phase: the profiled
 * partition (the model's miss curves are anchored there), each count
 * clamped to [floor, W]; if clamping broke the budget, fall back to
 * the even split the System installs at construction.
 */
std::vector<int>
startingWays(const SystemProfile &profile, const KnobSpace &space)
{
    int n = space.numCores;
    int total = space.waysTotal;
    std::vector<int> way = profile.profiledWayIdx;
    int sum = 0;
    for (int &w : way) {
        w = std::min(std::max(w, space.wayFloor), total);
        sum += w;
    }
    if (sum > total) {
        int base = total / n;
        int rem = total - base * n;
        for (int i = 0; i < n; ++i)
            way[static_cast<size_t>(i)] = base + (i < rem ? 1 : 0);
    }
    return way;
}

/**
 * Phase A of the generalized walk: greedy single-way transfers at
 * all-max frequencies. Each iteration tries every (donor, recipient)
 * pair — the donor must stay above the QoS floor and meet its allowed
 * TPI after the loss — and applies the transfer with the lowest SER,
 * stopping when no transfer is a strict descent. The frequency walk
 * (Phase B) then runs at the resulting fixed allocation.
 * @return the number of SER evaluations spent.
 */
std::uint64_t
preBalanceWays(const SerEvaluator &ev, const KnobSpace &space,
               const std::vector<double> &allowed, FreqConfig &cfg,
               std::vector<SearchStep> *walk)
{
    int n = space.numCores;
    std::uint64_t cands = 0;
    double cur = ev.ser(cfg);
    cands += 1;
    int max_iters = n * space.waysTotal;
    for (int iter = 0; iter < max_iters; ++iter) {
        double step_ser = cur;
        int step_from = -1;
        int step_to = -1;
        for (int j = 0; j < n; ++j) {
            int w_j = cfg.wayIdx[static_cast<size_t>(j)];
            if (w_j <= space.wayFloor)
                continue;
            double t_down =
                ev.tpi(j, cfg.coreIdx[static_cast<size_t>(j)],
                       cfg.memIdx, w_j - 1);
            if (t_down > allowed[static_cast<size_t>(j)])
                continue;
            for (int k = 0; k < n; ++k) {
                if (k == j
                    || cfg.wayIdx[static_cast<size_t>(k)]
                           >= space.waysTotal) {
                    continue;
                }
                FreqConfig cand = cfg;
                cand.wayIdx[static_cast<size_t>(j)] -= 1;
                cand.wayIdx[static_cast<size_t>(k)] += 1;
                double s = ev.ser(cand);
                cands += 1;
                if (s < step_ser) {
                    step_ser = s;
                    step_from = j;
                    step_to = k;
                }
            }
        }
        if (step_from < 0 || step_ser >= cur - wayDescentEps)
            break;
        cfg.wayIdx[static_cast<size_t>(step_from)] -= 1;
        cfg.wayIdx[static_cast<size_t>(step_to)] += 1;
        cur = step_ser;
        if (walk)
            walk->push_back(SearchStep{cfg, cur, false, 0});
    }
    return cands;
}

} // namespace

FreqConfig
CoScalePolicy::decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &current, Tick epoch_len)
{
    (void)current;  // the walk restarts from all-max each epoch
    int n = static_cast<int>(profile.cores.size());
    walk.clear();

    // The space this system exposes; the way dimension joins the walk
    // only when the profile carries a usable partition snapshot.
    KnobSpace space = makeKnobSpace(em, profile);
    bool use_ways =
        opts.useWayPartitioning && space.llcWays
        && static_cast<int>(profile.profiledWayIdx.size()) == n
        && n * space.wayFloor <= space.waysTotal;

    FreqConfig all_max = FreqConfig::allMax(n);
    // The performance reference is the machine the measured bound is
    // taken against: all-max frequencies at the baseline partition
    // (the even split the System installs and the baseline policy
    // never moves). Anchoring at every core at full associativity
    // instead would compare against an unattainable machine and
    // strangle the walk exactly when the LLC is contended — the case
    // the way dimension exists for.
    FreqConfig ref_cfg = all_max;
    if (use_ways)
        ref_cfg.wayIdx = space.baselinePartition();
    std::vector<double> ref = refTpis(em, profile, ref_cfg);
    if (use_ways) {
        // Hold back the way-mode margin (see CoScaleOptions): the
        // even-split reference is extrapolated, not measured, once
        // the installed partition has moved away from it.
        for (double &r : ref)
            r *= 1.0 - opts.wayRefSafetyFrac;
    }
    std::vector<double> allowed =
        allowedTpis(tracker, ref, epoch_len, profile.appOnCore);

    // Everything walk-invariant (all-max TPIs, baseline power, the
    // traffic anchor) is cached once; the walk then evaluates each
    // candidate in O(N).
    SerEvaluator ev(em, profile);

    FreqConfig cfg = all_max;
    std::uint64_t way_candidates = 0;
    bool repartitioned = false;
    if (use_ways) {
        // Phase A: settle the way allocation at all-max frequencies,
        // then hold it fixed through the frequency walk below.
        cfg.wayIdx = startingWays(profile, space);
        way_candidates = preBalanceWays(ev, space, allowed, cfg,
                                        recording ? &walk : nullptr);
        repartitioned = cfg.wayIdx != profile.profiledWayIdx;
    }
    FreqConfig best = cfg;
    double best_ser = ev.ser(cfg);
    if (recording)
        walk.push_back(SearchStep{cfg, best_ser, false, 0});

    // A repartition epoch is a settling epoch: the recipients' new
    // ways are cold, so the epoch runs at all-max frequencies while
    // the refill transient plays out, and the next profile — which
    // prices the new allocation with measured counters — decides how
    // far the frequency walk may descend. Stacking a deep downclock
    // on top of an unpriced repartition is how bounds get blown.
    if (repartitioned) {
        if (obsEnabled())
            traceSearch(1 + way_candidates, 0, 0, 0, best_ser);
        return best;
    }

    // Candidate evaluation for the frequency walk: always the
    // profiled-partition arithmetic (the pre-refactor math, bit for
    // bit). A way transfer settled in Phase A pays a refill transient
    // this epoch — the recipient's new ways are cold — so the bound
    // checks must not bank the partition's steady-state benefit
    // before the profile confirms it next epoch. (At the profiled
    // allocation missScale is exactly 1, so evaluating there IS the
    // legacy arithmetic; the SER objective below still sees the
    // steady-state estimate through ev.ser's way-aware tables.)
    auto tpi_at = [&](int i, int c, int m) -> double {
        return ev.tpi(i, c, m);
    };
    auto core_power_at = [&](int i, int c, int m) -> double {
        return ev.corePower(i, c, m);
    };

    // Cached per-core TPI at the current walk position and at max.
    std::vector<double> tpi_cur(static_cast<size_t>(n));
    std::vector<double> tpi_max(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        tpi_cur[static_cast<size_t>(i)] = tpi_at(i, 0, 0);
        tpi_max[static_cast<size_t>(i)] = ev.tpiAtMax(i);
    }

    // Build / maintain the sorted eligible-core list (Fig. 3, 1-2).
    std::vector<CoreEntry> list;
    auto make_entry = [&](int i, CoreEntry &e) -> bool {
        int idx = cfg.coreIdx[static_cast<size_t>(i)];
        if (idx + 1 >= space.coreSteps)
            return false;
        double t_down = tpi_at(i, idx + 1, cfg.memIdx);
        if (t_down > allowed[static_cast<size_t>(i)])
            return false;
        e.core = i;
        e.dPerf = (t_down - tpi_cur[static_cast<size_t>(i)])
                  / std::max(tpi_max[static_cast<size_t>(i)], perfEpsilon);
        e.dPower = core_power_at(i, idx, cfg.memIdx)
                   - core_power_at(i, idx + 1, cfg.memIdx);
        return true;
    };
    auto insert_sorted = [&](const CoreEntry &e) {
        auto pos = std::lower_bound(
            list.begin(), list.end(), e,
            [](const CoreEntry &a, const CoreEntry &b) {
                return a.dPerf < b.dPerf;
            });
        list.insert(pos, e);
    };
    for (int i = 0; i < n; ++i) {
        CoreEntry e;
        if (make_entry(i, e))
            insert_sorted(e);
    }

    bool cores_dirty = true;
    bool mem_dirty = true;
    double marginal_mem = 0.0;
    double d_perf_mem = 0.0;
    double marginal_cores = 0.0;
    int best_group = 0;

    auto mem_feasible = [&]() -> bool {
        if (cfg.memIdx + 1 >= space.memSteps)
            return false;
        for (int i = 0; i < n; ++i) {
            if (tpi_at(i, cfg.coreIdx[static_cast<size_t>(i)],
                       cfg.memIdx + 1)
                > allowed[static_cast<size_t>(i)]) {
                return false;
            }
        }
        return true;
    };

    auto compute_mem_marginal = [&]() {
        FreqConfig down = cfg;
        down.memIdx += 1;
        d_perf_mem = perfEpsilon;
        for (int i = 0; i < n; ++i) {
            double d = (tpi_at(i, cfg.coreIdx[static_cast<size_t>(i)],
                               cfg.memIdx + 1)
                        - tpi_cur[static_cast<size_t>(i)])
                       / std::max(tpi_max[static_cast<size_t>(i)],
                                  perfEpsilon);
            d_perf_mem = std::max(d_perf_mem, d);
        }
        double d_power = ev.systemPower(cfg) - ev.systemPower(down);
        marginal_mem = d_power / d_perf_mem;
    };

    // Fig. 3: prefix-sum group utilities over the sorted list. With
    // grouping ablated, only the head of the list (the single
    // cheapest core) competes against the memory step.
    auto compute_group_marginal = [&]() {
        marginal_cores = -1.0;
        best_group = 0;
        double power_sum = 0.0;
        size_t limit =
            opts.coreGrouping ? list.size()
                              : std::min<size_t>(1, list.size());
        for (size_t g = 0; g < limit; ++g) {
            power_sum += list[g].dPower;
            // A single voltage domain only offers the all-cores step.
            if (opts.chipWideCpuDvfs && g + 1 < list.size())
                continue;
            double d_perf = std::max(list[g].dPerf, perfEpsilon);
            double utility = power_sum / d_perf;
            if (utility > marginal_cores) {
                marginal_cores = utility;
                best_group = static_cast<int>(g) + 1;
            }
        }
    };

    auto apply_mem_step = [&]() {
        cfg.memIdx += 1;
        for (int i = 0; i < n; ++i) {
            tpi_cur[static_cast<size_t>(i)] =
                tpi_at(i, cfg.coreIdx[static_cast<size_t>(i)],
                       cfg.memIdx);
        }
        mem_dirty = true;
        // Per Fig. 2 the core marginals are not recomputed on a
        // memory step (core delta-TPI is memory-independent in the
        // Eq. 1 model), but entries whose *feasibility* changed must
        // be dropped.
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](const CoreEntry &e) {
                                      CoreEntry probe;
                                      return !make_entry(e.core, probe);
                                  }),
                   list.end());
        cores_dirty = true;
    };

    auto apply_group_step = [&](int g) {
        std::vector<int> members;
        for (int k = 0; k < g; ++k)
            members.push_back(list[static_cast<size_t>(k)].core);
        list.erase(list.begin(), list.begin() + g);
        for (int i : members) {
            cfg.coreIdx[static_cast<size_t>(i)] += 1;
            tpi_cur[static_cast<size_t>(i)] =
                tpi_at(i, cfg.coreIdx[static_cast<size_t>(i)],
                       cfg.memIdx);
            CoreEntry e;
            if (make_entry(i, e))
                insert_sorted(e);
        }
        cores_dirty = true;
    };

    // Search telemetry (obs/): candidates = SER evaluations,
    // including the starting point and any way pre-balance spend.
    std::uint64_t candidates = 1 + way_candidates;
    std::uint64_t mem_steps = 0;
    std::uint64_t group_steps = 0;
    int max_group = 0;

    // Main loop of Fig. 2.
    while (true) {
        bool mem_ok = mem_feasible();
        bool cores_ok = !list.empty();
        if (opts.chipWideCpuDvfs) {
            // The chip can only step if *every* core that is not at
            // the ladder floor is eligible (slack-feasible).
            int scalable = 0;
            for (int idx : cfg.coreIdx) {
                if (idx + 1 < space.coreSteps)
                    scalable += 1;
            }
            cores_ok = scalable > 0
                       && static_cast<int>(list.size()) == scalable;
        }
        if (!mem_ok && !cores_ok)
            break;

        bool step_is_mem;
        int group = 1;
        if (mem_ok && cores_ok) {
            if (mem_dirty) {
                compute_mem_marginal();
                mem_dirty = false;
            }
            if (cores_dirty) {
                compute_group_marginal();
                cores_dirty = false;
            }
            step_is_mem = marginal_mem > marginal_cores;
            group = best_group;
        } else if (mem_ok) {
            step_is_mem = true;
        } else {
            if (cores_dirty) {
                compute_group_marginal();
                cores_dirty = false;
            }
            step_is_mem = false;
            group = best_group;
        }

        if (step_is_mem) {
            apply_mem_step();
            mem_steps += 1;
        } else {
            apply_group_step(group);
            group_steps += 1;
            max_group = std::max(max_group, group);
        }

        double ser = ev.ser(cfg);
        candidates += 1;
        if (recording) {
            walk.push_back(SearchStep{cfg, ser, step_is_mem,
                                      step_is_mem ? 0 : group});
        }
        if (ser < best_ser) {
            best_ser = ser;
            best = cfg;
        }
    }

    if (obsEnabled()) {
        traceSearch(candidates, mem_steps, group_steps, max_group,
                    best_ser);
    }
    return best;
}

void
CoScalePolicy::observeEpoch(const EpochObservation &obs,
                            const EnergyModel &em)
{
    if (!opts.carrySlack) {
        // Ablation: forget history; every epoch gets exactly gamma.
        tracker = SlackTracker(tracker.size(), tracker.gamma(), 0.0);
        return;
    }
    int n = static_cast<int>(obs.epochProfile.cores.size());
    FreqConfig all_max = FreqConfig::allMax(n);
    bool way_ref = opts.useWayPartitioning && obs.epochProfile.waysTotal > 0;
    if (way_ref) {
        // Slack accrues against the same baseline-partition reference
        // the walk's allowed TPIs were computed from.
        all_max.wayIdx = evenWaySplit(obs.epochProfile.waysTotal, n);
    }
    double secs = ticksToSeconds(obs.epochTicks);
    for (int i = 0; i < n; ++i) {
        double ref = em.tpi(obs.epochProfile, i, all_max);
        if (way_ref) {
            // Deflated like decide()'s allowed TPIs (wayRefSafetyFrac):
            // banking slack against the undeflated pace would hand the
            // next walk back the margin this option holds in reserve.
            ref *= 1.0 - opts.wayRefSafetyFrac;
        }
        tracker.update(appOf(obs.appOnCore, i), ref,
                       obs.instrs[static_cast<size_t>(i)], secs);
    }
}

} // namespace coscale

#include "policy/multiscale.hh"

#include <algorithm>

#include "common/log.hh"
#include "model/knobs.hh"

namespace coscale {

namespace {

/** Per-channel memory power at ladder index m, traffic-anchored. */
double
channelPower(const EnergyModel &em, const MemProfile &chan,
             double traffic_scale, int m)
{
    const PerfModel &perf = em.perfModel();
    Freq f = em.mem().freq(m);
    MemActivityRates rates;
    double traffic = chan.trafficPerSec * traffic_scale;
    rates.readsPs = traffic * (1.0 - chan.writeFrac);
    rates.writesPs = traffic * chan.writeFrac;
    double stretch = perf.busSecs(f) / perf.busSecs(chan.profiledBusFreq);
    rates.busUtil =
        std::min(1.0, chan.busUtil * traffic_scale * stretch);
    rates.rankActiveFrac =
        std::min(1.0, chan.rankActiveFrac * traffic_scale);
    return em.powerModel()
        .memPowerBreakdown(em.mem().voltage(m), f, rates, 1)
        .total();
}

} // namespace

double
MultiScalePolicy::refTpiOf(const SystemProfile &prof,
                           const EnergyModel &em, int i) const
{
    const CoreProfile &c = prof.cores[static_cast<size_t>(i)];
    const MemProfile &mem =
        (c.homeChannel >= 0
         && c.homeChannel < static_cast<int>(prof.channels.size()))
            ? prof.channels[static_cast<size_t>(c.homeChannel)]
            : prof.mem;
    return em.perfModel().tpiSecs(c, em.cores().fMax(), mem,
                                  em.mem().fMax());
}

FreqConfig
MultiScalePolicy::decide(const SystemProfile &profile,
                         const EnergyModel &em, const FreqConfig &current,
                         Tick epoch_len)
{
    (void)current;
    int n = static_cast<int>(profile.cores.size());
    int channels = static_cast<int>(profile.channels.size());
    const PerfModel &perf = em.perfModel();

    FreqConfig cfg = FreqConfig::allMax(n);

    // Admissible TPI per core, against its home channel's profile.
    double epoch_secs = ticksToSeconds(epoch_len);
    std::vector<double> allowed(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        allowed[static_cast<size_t>(i)] = tracker.allowedTpi(
            appOf(profile.appOnCore, i), refTpiOf(profile, em, i),
            epoch_secs);
    }

    if (channels == 0) {
        // No per-channel profile available: behave like MemScale.
        SearchStats stats;
        cfg.memIdx = memOnlyBest(em, profile, cfg.coreIdx, allowed,
                                 obsEnabled() ? &stats : nullptr);
        if (obsEnabled())
            traceSearch(stats.candidates, 0, 0, 0, stats.bestSer);
        return cfg;
    }

    SerEvaluator ev(em, profile);
    double p_base = ev.basePower();
    // Ladder bounds come from the knob space (DESIGN.md §13); the
    // per-channel dimension is this policy's native axis.
    int mem_steps = makeKnobSpace(em, profile).memSteps;

    // Precompute, per channel and frequency step: the worst relative
    // slowdown among the cores homed on it, its power, and per-core
    // admissibility. Channels are independent in performance (each
    // core's traffic goes to one channel), so a joint optimum is a
    // cap-scan: for every achievable worst-slowdown cap, each channel
    // independently drops as deep as the cap and the per-core bounds
    // allow, and the SER couples them through max() and sum().
    std::vector<std::vector<double>> t_rel(
        static_cast<size_t>(channels),
        std::vector<double>(static_cast<size_t>(mem_steps), 1.0));
    std::vector<std::vector<double>> p_ch(
        static_cast<size_t>(channels),
        std::vector<double>(static_cast<size_t>(mem_steps), 0.0));
    std::vector<int> deepest(static_cast<size_t>(channels), 0);
    std::vector<double> caps;
    caps.push_back(1.0);

    for (int ch = 0; ch < channels; ++ch) {
        const MemProfile &chan =
            profile.channels[static_cast<size_t>(ch)];
        std::vector<int> homed;
        for (int i = 0; i < n; ++i) {
            int home = profile.cores[static_cast<size_t>(i)].homeChannel;
            if (home == ch || home < 0)
                homed.push_back(i);
        }
        for (int m = 0; m < mem_steps; ++m) {
            Freq f = em.mem().freq(m);
            double worst = 1.0;
            double reads_now = 0.0;
            double reads_max = 0.0;
            bool feasible = true;
            for (int i : homed) {
                const CoreProfile &c =
                    profile.cores[static_cast<size_t>(i)];
                double t_max = perf.tpiSecs(c, em.cores().fMax(), chan,
                                            em.mem().fMax());
                double t = perf.tpiSecs(c, em.cores().fMax(), chan, f);
                if (t > allowed[static_cast<size_t>(i)]) {
                    feasible = false;
                    break;
                }
                worst = std::max(worst, t_max > 0.0 ? t / t_max : 1.0);
                reads_now += c.memReadPerInstr / t;
                reads_max += c.memReadPerInstr / t_max;
            }
            if (!feasible)
                break;
            double traffic_scale =
                reads_max > 0.0 ? reads_now / reads_max : 1.0;
            t_rel[static_cast<size_t>(ch)][static_cast<size_t>(m)] =
                worst;
            p_ch[static_cast<size_t>(ch)][static_cast<size_t>(m)] =
                channelPower(em, chan, traffic_scale, m);
            deepest[static_cast<size_t>(ch)] = m;
            caps.push_back(worst);
        }
    }
    std::sort(caps.begin(), caps.end());
    caps.erase(std::unique(caps.begin(), caps.end()), caps.end());

    double p_mem_max = 0.0;
    for (int ch = 0; ch < channels; ++ch)
        p_mem_max += p_ch[static_cast<size_t>(ch)][0];

    cfg.chanIdx.assign(static_cast<size_t>(channels), 0);
    double best_ser = 1.0;
    std::uint64_t candidates = 0;
    std::vector<int> pick(static_cast<size_t>(channels), 0);
    for (double cap : caps) {
        double worst = 1.0;
        double p_mem = 0.0;
        for (int ch = 0; ch < channels; ++ch) {
            size_t sc = static_cast<size_t>(ch);
            int m_pick = 0;
            for (int m = deepest[sc]; m >= 1; --m) {
                if (t_rel[sc][static_cast<size_t>(m)] <= cap) {
                    m_pick = m;
                    break;
                }
            }
            pick[sc] = m_pick;
            worst = std::max(
                worst, t_rel[sc][static_cast<size_t>(m_pick)]);
            p_mem += p_ch[sc][static_cast<size_t>(m_pick)];
        }
        double ser = worst * (p_base - p_mem_max + p_mem) / p_base;
        candidates += 1;
        if (ser < best_ser) {
            best_ser = ser;
            cfg.chanIdx = pick;
        }
    }

    // Report the shallowest channel as the nominal uniform index for
    // loggers that only understand memIdx.
    cfg.memIdx = *std::min_element(cfg.chanIdx.begin(),
                                   cfg.chanIdx.end());
    if (obsEnabled())
        traceSearch(candidates, 0, 0, 0, best_ser);
    return cfg;
}

void
MultiScalePolicy::observeEpoch(const EpochObservation &obs,
                               const EnergyModel &em)
{
    int n = static_cast<int>(obs.epochProfile.cores.size());
    double secs = ticksToSeconds(obs.epochTicks);
    for (int i = 0; i < n; ++i) {
        tracker.update(appOf(obs.appOnCore, i),
                       refTpiOf(obs.epochProfile, em, i),
                       obs.instrs[static_cast<size_t>(i)], secs);
    }
}

} // namespace coscale

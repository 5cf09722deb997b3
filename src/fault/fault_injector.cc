#include "fault/fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/json.hh"

namespace coscale {
namespace fault {

void
FaultSummary::writeJson(JsonWriter &j) const
{
    j.beginObject("faults");
    j.field("noisy_epochs", noisyEpochs);
    j.field("stale_profiles", staleProfiles);
    j.field("counter_dropouts", counterDropouts);
    j.field("transitions_denied", transitionsDenied);
    j.field("transitions_delayed", transitionsDelayed);
    j.field("transitions_clamped", transitionsClamped);
    j.field("jittered_epochs", jitteredEpochs);
    j.endObject();
}

namespace {

/**
 * Scale the timing-related fields of a core profile (the inputs of
 * Eq. 1): the CPU-side counters by @p cpu_factor and the memory-stall
 * channel by @p mem_factor (the bias knob targets only the latter —
 * see FaultPlan::counterNoiseBias). Rates for the power predictor are
 * left alone: the interesting failure channel is the latency/stall
 * counters the frequency search trusts.
 */
void
scaleCoreTimings(CoreProfile &c, double cpu_factor, double mem_factor)
{
    c.cyclesPerInstr *= cpu_factor;
    c.alpha *= cpu_factor;
    c.tpiL2Secs *= cpu_factor;
    c.beta *= mem_factor;
    c.measuredMemStallSecs *= mem_factor;
}

void
scaleMemTimings(MemProfile &m, double factor)
{
    m.wBankSecs *= factor;
    m.wBusSecs *= factor;
    m.measuredStallSecs *= factor;
}

void
poisonCore(CoreProfile &c)
{
    double nan = std::numeric_limits<double>::quiet_NaN();
    c.cyclesPerInstr = nan;
    c.alpha = nan;
    c.beta = nan;
    c.tpiL2Secs = nan;
    c.measuredMemStallSecs = nan;
}

} // namespace

FaultInjector::FaultInjector(const FaultPlan &plan,
                             std::uint64_t config_seed)
    : thePlan(plan),
      theSeed(plan.seed != 0 ? plan.seed : config_seed)
{
}

SystemProfile
FaultInjector::perturbProfile(const SystemProfile &clean,
                              std::uint64_t epoch, Tick now,
                              TraceSink *sink, MetricsRegistry *metrics)
{
    SystemProfile out = clean;

    // Staleness first: a stale read re-serves last epoch's clean
    // snapshot wholesale (dropout/noise model faults in the *current*
    // read, which a stale read never performed).
    bool stale = thePlan.counterStaleProb > 0.0 && havePrevProfile
                 && faultUniform(theSeed, epoch, FaultStream::Stale)
                        < thePlan.counterStaleProb;
    if (stale) {
        out = prevCleanProfile;
        counts.staleProfiles += 1;
        if (metrics)
            metrics->counter("fault.counter_stale").inc();
        if (sink) {
            sink->write(TraceEvent(now, "fault", "counter_stale")
                            .f("epoch", epoch));
        }
    }
    prevCleanProfile = clean;
    havePrevProfile = true;
    if (stale)
        return out;

    if (thePlan.counterDropoutProb > 0.0 && !out.cores.empty()
        && faultUniform(theSeed, epoch, FaultStream::Dropout)
               < thePlan.counterDropoutProb) {
        std::uint64_t pick =
            faultHash(theSeed, epoch, FaultStream::DropoutCore)
            % out.cores.size();
        poisonCore(out.cores[static_cast<size_t>(pick)]);
        counts.counterDropouts += 1;
        if (metrics)
            metrics->counter("fault.counter_dropout").inc();
        if (sink) {
            sink->write(TraceEvent(now, "fault", "counter_dropout")
                            .f("epoch", epoch)
                            .f("core", static_cast<int>(pick)));
        }
    }

    bool noisy =
        (thePlan.counterNoiseAmp > 0.0
         || thePlan.counterNoiseBias != 0.0)
        && faultUniform(theSeed, epoch, FaultStream::NoiseGate)
               < thePlan.counterNoiseProb;
    if (noisy) {
        double worst = 0.0;
        for (size_t i = 0; i < out.cores.size(); ++i) {
            double u = faultSigned(theSeed, epoch,
                                   FaultStream::NoiseDraw, i);
            double cpu_factor =
                std::max(1.0 + thePlan.counterNoiseAmp * u, 0.01);
            double mem_factor =
                std::max(cpu_factor + thePlan.counterNoiseBias, 0.01);
            scaleCoreTimings(out.cores[i], cpu_factor, mem_factor);
            worst = std::max(
                {worst, std::abs(cpu_factor - 1.0),
                 std::abs(mem_factor - 1.0)});
        }
        double um = faultSigned(theSeed, epoch, FaultStream::NoiseDraw,
                                out.cores.size());
        double mfactor = std::max(1.0 + thePlan.counterNoiseBias
                                      + thePlan.counterNoiseAmp * um,
                                  0.01);
        scaleMemTimings(out.mem, mfactor);
        for (MemProfile &ch : out.channels)
            scaleMemTimings(ch, mfactor);
        worst = std::max(worst, std::abs(mfactor - 1.0));

        counts.noisyEpochs += 1;
        if (metrics) {
            metrics->counter("fault.counter_noise").inc();
            metrics->accum("fault.noise_factor_dev").sample(worst);
        }
        if (sink) {
            sink->write(TraceEvent(now, "fault", "counter_noise")
                            .f("epoch", epoch)
                            .f("worst_dev", worst));
        }
    }
    return out;
}

FreqConfig
FaultInjector::filterTransition(const FreqConfig &requested,
                                const FreqConfig &prev,
                                std::uint64_t epoch, Tick now,
                                TraceSink *sink,
                                MetricsRegistry *metrics)
{
    bool changed = requested.memIdx != prev.memIdx
                   || requested.coreIdx != prev.coreIdx
                   || requested.chanIdx != prev.chanIdx
                   || requested.wayIdx != prev.wayIdx;
    if (!changed)
        return requested;

    double deny = thePlan.transitionDenyProb;
    double delay = thePlan.transitionDelayProb;
    double clamp = thePlan.transitionClampProb;
    if (deny + delay + clamp <= 0.0)
        return requested;

    double r = faultUniform(theSeed, epoch, FaultStream::Transition);
    const char *verdict = nullptr;
    FreqConfig granted = requested;
    if (r < deny) {
        granted = prev;
        counts.transitionsDenied += 1;
        verdict = "denied";
    } else if (r < deny + delay) {
        granted = prev;
        havePending = true;
        pending = requested;
        counts.transitionsDelayed += 1;
        verdict = "delayed";
    } else if (r < deny + delay + clamp) {
        // One ladder rung short of the request in every dimension
        // that moved (a rung-by-rung sequencer that lost its last
        // step).
        auto shy = [](int from, int to) {
            if (to > from)
                return to - 1;
            if (to < from)
                return to + 1;
            return to;
        };
        size_t nc = std::min(granted.coreIdx.size(),
                             prev.coreIdx.size());
        for (size_t i = 0; i < nc; ++i)
            granted.coreIdx[i] = shy(prev.coreIdx[i],
                                     requested.coreIdx[i]);
        granted.memIdx = shy(prev.memIdx, requested.memIdx);
        size_t nch = std::min(granted.chanIdx.size(),
                              prev.chanIdx.size());
        for (size_t i = 0; i < nch; ++i)
            granted.chanIdx[i] = shy(prev.chanIdx[i],
                                     requested.chanIdx[i]);
        // The way partition is one atomic register write, not a
        // rung-by-rung sequencer — and a per-way shy() could break
        // the sum-to-W budget (donor held back, recipient advanced).
        // A clamped transition keeps the previous partition whole.
        granted.wayIdx = prev.wayIdx;
        counts.transitionsClamped += 1;
        verdict = "clamped";
    }
    if (!verdict)
        return requested;

    if (metrics) {
        metrics
            ->counter(std::string("fault.transition_") + verdict)
            .inc();
    }
    if (sink) {
        TraceEvent ev(now, "fault", "transition");
        ev.f("epoch", epoch)
            .f("verdict", std::string(verdict))
            .f("req_mem_idx", requested.memIdx)
            .f("granted_mem_idx", granted.memIdx)
            .f("req_core_idx", requested.coreIdx)
            .f("granted_core_idx", granted.coreIdx);
        if (!requested.wayIdx.empty())
            ev.f("req_way_idx", requested.wayIdx);
        if (!granted.wayIdx.empty())
            ev.f("granted_way_idx", granted.wayIdx);
        sink->write(ev);
    }
    return granted;
}

bool
FaultInjector::takePending(FreqConfig *out)
{
    if (!havePending)
        return false;
    *out = pending;
    havePending = false;
    return true;
}

Tick
FaultInjector::jitteredEpochLen(Tick epoch_len, Tick profile_len,
                                std::uint64_t epoch, Tick now,
                                TraceSink *sink,
                                MetricsRegistry *metrics)
{
    if (thePlan.epochJitterFrac <= 0.0)
        return epoch_len;
    double u = faultSigned(theSeed, epoch, FaultStream::EpochJitter);
    double scaled = static_cast<double>(epoch_len)
                    * (1.0 + thePlan.epochJitterFrac * u);
    Tick floor_len = profile_len + 1;
    Tick jittered = scaled <= static_cast<double>(floor_len)
                        ? floor_len
                        : static_cast<Tick>(scaled);
    if (jittered != epoch_len) {
        counts.jitteredEpochs += 1;
        if (metrics)
            metrics->counter("fault.epoch_jitter").inc();
        if (sink) {
            sink->write(
                TraceEvent(now, "fault", "epoch_jitter")
                    .f("epoch", epoch)
                    .f("len_ticks",
                       static_cast<std::uint64_t>(jittered))
                    .f("nominal_ticks",
                       static_cast<std::uint64_t>(epoch_len)));
        }
    }
    return jittered;
}

bool
profileFinite(const SystemProfile &prof)
{
    for (const CoreProfile &c : prof.cores) {
        if (!std::isfinite(c.cyclesPerInstr) || !std::isfinite(c.alpha)
            || !std::isfinite(c.beta) || !std::isfinite(c.tpiL2Secs)
            || !std::isfinite(c.measuredMemStallSecs)) {
            return false;
        }
    }
    const MemProfile &m = prof.mem;
    return std::isfinite(m.wBankSecs) && std::isfinite(m.wBusSecs)
           && std::isfinite(m.measuredStallSecs);
}

} // namespace fault
} // namespace coscale

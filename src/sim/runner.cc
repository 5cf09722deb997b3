#include "sim/runner.hh"

#include <algorithm>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "check/audit.hh"
#include "check/contract.hh"
#include "common/json.hh"
#include "fault/fault_injector.hh"

namespace coscale {

namespace {

/** Add one window's energy to the run totals. */
void
addEnergy(RunResult &result, const EpochWindow &w)
{
    result.cpuEnergyJ += w.power.cpuW * w.secs;
    result.memEnergyJ += w.power.memW * w.secs;
    result.otherEnergyJ += w.power.otherW * w.secs;
}

/**
 * Per-channel DRAM telemetry for one epoch window: counter deltas
 * reduced to the rates/fractions Fig. 7-style timelines need.
 */
void
traceDramWindow(const System &sys, const SystemConfig &cfg,
                const CounterSnapshot &since,
                const CounterSnapshot &end, TraceSink *sink,
                MetricsRegistry *metrics)
{
    Tick elapsed = end.tick - since.tick;
    if (elapsed == 0)
        return;
    int ranks = cfg.geom.ranksPerChannel();
    for (size_t c = 0; c < end.memChannels.size(); ++c) {
        ChannelCounters d = end.memChannels[c] - since.memChannels[c];
        double row_total =
            static_cast<double>(d.rowHits + d.rowMisses);
        double avg_q =
            d.queueSamples
                ? static_cast<double>(d.queueLenSum)
                      / static_cast<double>(d.queueSamples)
                : 0.0;
        double bus_frac = static_cast<double>(d.busBusyTicks)
                          / static_cast<double>(elapsed);
        double rank_frac =
            static_cast<double>(d.rankActiveTicks)
            / (static_cast<double>(elapsed) * ranks);
        if (metrics) {
            metrics->histogram("dram.queue_len", 0.0, 32.0, 32)
                .sample(avg_q);
            if (row_total > 0.0) {
                metrics->accum("dram.row_hit_rate")
                    .sample(static_cast<double>(d.rowHits) / row_total);
            }
            metrics->accum("dram.rank_active_frac").sample(rank_frac);
            metrics->counter("dram.refreshes").inc(d.refreshes);
        }
        if (sink) {
            sink->write(
                TraceEvent(end.tick, "dram",
                           "ch" + std::to_string(c))
                    .f("reads", d.readReqs)
                    .f("writes", d.writeReqs)
                    .f("prefetches", d.prefetchReqs)
                    .f("row_hits", d.rowHits)
                    .f("row_misses", d.rowMisses)
                    .f("avg_queue_len", avg_q)
                    .f("bus_busy_frac", bus_frac)
                    .f("rank_active_frac", rank_frac)
                    .f("refreshes", d.refreshes)
                    .f("activations", d.activations)
                    .f("precharges", d.precharges)
                    .f("freq_idx",
                       sys.memCtrl().channelFrequencyIndex(
                           static_cast<int>(c))));
        }
    }
}

} // namespace

EpochDriver::EpochDriver(System &sys, Policy &policy,
                         const fault::FaultPlan &faults, AuditSet *audit,
                         TraceSink *sink, MetricsRegistry *metrics)
    : sys(sys), policy(policy), em(sys.energyModel()), auditSet(audit),
      sink(sink), metrics(metrics)
{
    // A disabled plan builds no injector and leaves the step untouched.
    // The injector seeds from the plan, falling back to the System's
    // seed, so faults stay a pure function of the configuration.
    if (faults.enabled())
        inj = std::make_unique<fault::FaultInjector>(faults,
                                                     sys.config().seed);
    // Auto-instantiate the auditors when auditing is on by default
    // (COSCALE_AUDIT build, or COSCALE_AUDIT=1 in the environment).
    if (!auditSet && auditingEnabled()) {
        ownedAudit = std::make_unique<AuditSet>(sys.numApps(),
                                                policy.slackGamma());
        auditSet = ownedAudit.get();
    }
    if (auditSet)
        sys.attachDramAuditor(&auditSet->dram);
    policy.attachObs(sink, metrics);
}

EpochDriver::~EpochDriver()
{
    policy.attachObs(nullptr, nullptr);
    if (auditSet)
        sys.attachDramAuditor(nullptr);
}

EpochWindow
EpochDriver::window(const CounterSnapshot &since)
{
    EpochWindow w;
    Tick end = sys.now();
    if (end <= since.tick)
        return w;
    w.power = sys.windowPower(since);

    if (sys.allAppsDone())
        end = std::min(end, sys.lastCompletionTick());
    if (end <= since.tick)
        return w;
    w.secs = ticksToSeconds(end - since.tick);
    if (auditSet) {
        auditSet->energy.checkConservation(w.power.totalW(), w.power.cpuW,
                                           w.power.memW, w.power.otherW);
        auditSet->energy.onWindowEnergy(w.power.cpuW, w.power.memW,
                                        w.power.otherW, w.secs);
    }
    return w;
}

EpochStep
EpochDriver::step()
{
    const SystemConfig &cfg = sys.config();
    EpochStep s;

    // Context-switch rotation at scheduling-quantum boundaries (before
    // profiling, so the profile reflects the incoming threads).
    if (cfg.schedQuantumEpochs > 0 && epochNo > 0
        && epochNo % cfg.schedQuantumEpochs == 0) {
        sys.rotateApps();
    }
    const std::uint64_t fepoch = static_cast<std::uint64_t>(epochNo);
    // A transition the fault layer delayed lands at this epoch
    // boundary: the profiling phase below runs under it.
    FreqConfig pend;
    if (inj && inj->takePending(&pend)) {
        sys.applyConfig(pend);
        if (sink) {
            sink->write(TraceEvent(sys.now(), "fault", "transition_late")
                            .f("epoch", fepoch)
                            .f("mem_idx", pend.memIdx)
                            .f("core_idx", pend.coreIdx));
        }
    }
    s.start = sys.now();
    s.snap = sys.snapshot();

    // Profiling phase under the installed configuration. Its power is
    // read before anything is applied: windowPower prices the window
    // at the installed ladder indices.
    sys.run(s.start + cfg.profileLen);
    s.profiling = window(s.snap);
    if (sys.allAppsDone()) {
        s.finished = true;
        return s;
    }

    s.profile = policy.wantsOracleProfile()
                    ? sys.oracleProfile(cfg.epochLen)
                    : sys.makeProfile(s.snap);
    if (inj) {
        s.profile = inj->perturbProfile(s.profile, fepoch, sys.now(),
                                        sink, metrics);
    }
    s.prev = sys.currentConfig();
    policy.setObsTick(sys.now());
    FreqConfig decision =
        epochNo < cfg.warmupEpochs
            ? s.prev
            : policy.safeDecide(s.profile, em, s.prev, cfg.epochLen);
    // A policy that does not speak the way dimension (empty wayIdx)
    // holds the installed partition rather than dropping it — the
    // knob is "held", never implicitly reset.
    if (decision.wayIdx.empty() && !s.prev.wayIdx.empty())
        decision.wayIdx = s.prev.wayIdx;
    // Requested vs granted: the fault layer may deny, delay, or clamp
    // the transition. Everything downstream — applyConfig, the epoch
    // log, slack observation, energy — follows granted.
    s.granted = inj ? inj->filterTransition(decision, s.prev, fepoch,
                                            sys.now(), sink, metrics)
                    : decision;
    epochNo += 1;

    CounterSnapshot mid_snap = sys.snapshot();
    Tick epoch_len =
        inj ? inj->jitteredEpochLen(cfg.epochLen, cfg.profileLen, fepoch,
                                    sys.now(), sink, metrics)
            : cfg.epochLen;
    sys.applyConfig(s.granted);
    sys.run(s.start + epoch_len);
    s.running = window(mid_snap);

    EpochObservation &obs = s.obs;
    obs.epochProfile = sys.makeProfile(s.snap);
    obs.instrs = sys.instrsSince(s.snap);
    obs.epochTicks = sys.now() - s.start;
    obs.applied = s.granted;
    if (sys.numApps() > sys.numCores())
        obs.appOnCore = sys.appAssignment();
    policy.observeEpoch(obs, em);

    if (auditSet) {
        // Cross-check the decision the policy just took (Eq. 2/3
        // decomposition and SER fast path) and the Eq. 1 residual of
        // the epoch that just ran. A counter dropout poisons the
        // profile with NaN by design — the audit contract assumes
        // finite inputs, so the candidate check is skipped for those
        // epochs (the guarded policy held its frequencies anyway).
        if (!inj || fault::profileFinite(s.profile))
            auditSet->energy.auditCandidate(em, s.profile, s.granted);
        auditSet->perf.onEpoch(obs, em);
    }
    return s;
}

void
EpochDriver::discardPendingTransition()
{
    FreqConfig dropped;
    if (inj)
        inj->takePending(&dropped);
}

RunRequest
RunRequest::forMix(const SystemConfig &cfg, const WorkloadMix &mix)
{
    RunRequest req;
    req.label = mix.name;
    req.cfg = cfg;
    req.apps = expandMix(mix, cfg.numCores, cfg.instrBudget);
    return req;
}

RunRequest
RunRequest::forApps(const SystemConfig &cfg, std::string label,
                    std::vector<AppSpec> apps)
{
    RunRequest req;
    req.label = std::move(label);
    req.cfg = cfg;
    req.apps = std::move(apps);
    return req;
}

RunResult
run(const RunRequest &req)
{
    COSCALE_CHECK(req.borrowedPolicy != nullptr
                      || static_cast<bool>(req.makePolicy),
                  "RunRequest has neither a policy factory nor a "
                  "borrowed policy");
    COSCALE_CHECK(!req.apps.empty(),
                  "RunRequest '%s' has no applications",
                  req.label.c_str());

    std::unique_ptr<Policy> owned;
    Policy *policy = req.borrowedPolicy;
    if (!policy) {
        owned = req.makePolicy();
        COSCALE_CHECK(owned != nullptr,
                      "policy factory for '%s' returned null",
                      req.label.c_str());
        policy = owned.get();
    }

    // Observability: a borrowed sink wins; otherwise open a private
    // one from the spec. Private sinks are finished (Chrome footer,
    // flush) before the result returns; borrowed sinks stay open so
    // callers can pool several runs into one stream.
    std::unique_ptr<TraceSink> owned_sink;
    TraceSink *sink = req.traceSink;
    if (!sink && req.trace.enabled()) {
        owned_sink = openTraceSink(req.trace);
        sink = owned_sink.get();
    }
    std::shared_ptr<MetricsRegistry> metrics;
    if (req.wantMetrics)
        metrics = std::make_shared<MetricsRegistry>();

    const SystemConfig cfg = req.effectiveConfig();
    System sys(cfg, req.apps);
    EpochDriver driver(sys, *policy, req.faults, req.auditSet, sink,
                       metrics.get());
    const EnergyModel &em = driver.energyModel();

    RunResult result;
    result.mixName = req.label;
    result.policyName = policy->name();

    const bool tracing = sink != nullptr || metrics != nullptr;
    while (!sys.allAppsDone()) {
        if (req.cancelFlag
            && req.cancelFlag->load(std::memory_order_relaxed)) {
            throw std::runtime_error(
                "run '" + req.label + "' cancelled at epoch "
                + std::to_string(result.epochs.size())
                + " (engine watchdog)");
        }
        // Epoch-delta anchors: traced per-epoch energy is the exact
        // difference of the run totals, so traced epochs sum to the
        // RunResult to the last bit.
        double cpu_j0 = result.cpuEnergyJ;
        double mem_j0 = result.memEnergyJ;
        double other_j0 = result.otherEnergyJ;

        EpochStep st = driver.step();
        addEnergy(result, st.profiling);
        if (!st.finished) {
            addEnergy(result, st.running);
            result.epochs.push_back(
                EpochLog{st.start, st.granted, st.running.power});
        }
        if (!tracing)
            continue;
        if (st.finished && sink) {
            sink->write(TraceEvent(sys.now(), "epoch", "tail")
                            .f("start", static_cast<std::uint64_t>(st.start))
                            .f("cpu_j", result.cpuEnergyJ - cpu_j0)
                            .f("mem_j", result.memEnergyJ - mem_j0)
                            .f("other_j", result.otherEnergyJ - other_j0));
        } else if (!st.finished) {
            const FreqConfig &granted = st.granted;
            const FreqConfig &prev_cfg = st.prev;
            const EpochObservation &obs = st.obs;
            std::uint64_t epoch_idx = result.epochs.size() - 1;
            std::uint64_t instrs = 0;
            for (std::uint64_t v : obs.instrs)
                instrs += v;

            int core_changes = 0;
            size_t nc = std::min(granted.coreIdx.size(),
                                 prev_cfg.coreIdx.size());
            for (size_t i = 0; i < nc; ++i) {
                if (granted.coreIdx[i] != prev_cfg.coreIdx[i])
                    core_changes += 1;
            }
            bool mem_changed =
                granted.memIdx != prev_cfg.memIdx
                || granted.chanIdx != prev_cfg.chanIdx;

            const PowerBreakdown &pw = st.running.power;
            if (metrics) {
                metrics->counter("run.epochs").inc();
                metrics->counter("run.core_freq_changes")
                    .inc(static_cast<std::uint64_t>(core_changes));
                if (mem_changed)
                    metrics->counter("run.mem_freq_changes").inc();
                metrics->accum("epoch.total_w").sample(pw.totalW());
                metrics->accum("epoch.cpu_w").sample(pw.cpuW);
                metrics->accum("epoch.mem_w").sample(pw.memW);
            }
            if (sink) {
                double act_secs = ticksToSeconds(obs.epochTicks);
                std::vector<double> pred_tpi;
                std::vector<double> act_tpi;
                pred_tpi.reserve(static_cast<size_t>(sys.numCores()));
                act_tpi.reserve(static_cast<size_t>(sys.numCores()));
                for (int i = 0; i < sys.numCores(); ++i) {
                    pred_tpi.push_back(em.tpi(st.profile, i, granted));
                    std::uint64_t n_i =
                        obs.instrs[static_cast<size_t>(i)];
                    act_tpi.push_back(
                        n_i ? act_secs / static_cast<double>(n_i)
                            : 0.0);
                }
                TraceEvent ev(sys.now(), "epoch", "epoch");
                ev.f("epoch", epoch_idx)
                    .f("start", static_cast<std::uint64_t>(st.start))
                    .f("mem_idx", granted.memIdx)
                    .f("mem_mhz", em.mem().freq(granted.memIdx) / 1e6)
                    .f("core_idx", granted.coreIdx)
                    .f("cpu_w", pw.cpuW)
                    .f("mem_w", pw.memW)
                    .f("other_w", pw.otherW)
                    .f("cpu_j", result.cpuEnergyJ - cpu_j0)
                    .f("mem_j", result.memEnergyJ - mem_j0)
                    .f("other_j", result.otherEnergyJ - other_j0)
                    .f("instrs", instrs)
                    .f("pred_tpi", pred_tpi)
                    .f("act_tpi", act_tpi);
                if (!granted.chanIdx.empty())
                    ev.f("chan_idx", granted.chanIdx);
                if (!granted.wayIdx.empty())
                    ev.f("way_idx", granted.wayIdx);
                if (const SlackTracker *ledger = policy->slackLedger()) {
                    std::vector<double> slack;
                    slack.reserve(static_cast<size_t>(ledger->size()));
                    for (int a = 0; a < ledger->size(); ++a)
                        slack.push_back(ledger->slackSecs(a));
                    ev.f("slack_secs", slack);
                }
                sink->write(ev);
            }
        }
        traceDramWindow(sys, cfg, st.snap, sys.snapshot(), sink,
                        metrics.get());
    }

    if (AuditSet *audit = driver.audits()) {
        audit->energy.auditRunTotals(result.cpuEnergyJ,
                                     result.memEnergyJ,
                                     result.otherEnergyJ);
    }
    if (const fault::FaultInjector *inj = driver.faults()) {
        result.faultsEnabled = true;
        result.faults = inj->summary();
    }

    result.finishTick = sys.lastCompletionTick();
    result.appCompletion = sys.appCompletionTicks();

    std::uint64_t instrs = 0;
    for (int i = 0; i < sys.numCores(); ++i)
        instrs += sys.core(i).counters().tic;
    result.totalInstrs = instrs;

    const LlcCounters &llc = sys.llc().counters();
    if (instrs > 0) {
        result.measuredMpki = 1000.0 * static_cast<double>(llc.misses)
                              / static_cast<double>(instrs);
        result.measuredWpki =
            1000.0 * static_cast<double>(llc.writebacks)
            / static_cast<double>(instrs);
    }
    result.prefetchAccuracy = sys.llc().prefetchAccuracy();

    ChannelCounters mem = sys.memCtrl().totalCounters();
    result.dramReads = mem.readReqs;
    result.dramPrefetches = mem.prefetchReqs;
    result.dramWrites = mem.writeReqs;

    if (metrics) {
        metrics->counter("run.instructions").inc(result.totalInstrs);
        metrics->gauge("run.finish_secs")
            .set(ticksToSeconds(result.finishTick));
        metrics->gauge("run.energy_j").set(result.totalEnergyJ());
        metrics->gauge("run.energy_per_instr_nj")
            .set(result.energyPerInstrNj());
    }
    if (sink) {
        sink->write(TraceEvent(sys.now(), "run", "summary")
                        .f("mix", result.mixName)
                        .f("policy", result.policyName)
                        .f("finish_secs",
                           ticksToSeconds(result.finishTick))
                        .f("cpu_j", result.cpuEnergyJ)
                        .f("mem_j", result.memEnergyJ)
                        .f("other_j", result.otherEnergyJ)
                        .f("instrs", result.totalInstrs)
                        .f("epochs",
                           static_cast<std::uint64_t>(
                               result.epochs.size())));
    }
    if (owned_sink)
        owned_sink->finish();
    result.metrics = std::move(metrics);
    return result;
}

Comparison
compare(const RunResult &baseline, const RunResult &run)
{
    Comparison c;
    double e_base = baseline.totalEnergyJ();
    if (e_base > 0.0)
        c.fullSystemSavings = 1.0 - run.totalEnergyJ() / e_base;
    if (baseline.cpuEnergyJ > 0.0)
        c.cpuSavings = 1.0 - run.cpuEnergyJ / baseline.cpuEnergyJ;
    if (baseline.memEnergyJ > 0.0)
        c.memSavings = 1.0 - run.memEnergyJ / baseline.memEnergyJ;

    COSCALE_CHECK(baseline.appCompletion.size()
                      == run.appCompletion.size(),
                  "mismatched app counts in comparison");
    double sum = 0.0;
    double worst = 0.0;
    size_t n = run.appCompletion.size();
    for (size_t i = 0; i < n; ++i) {
        double d = static_cast<double>(run.appCompletion[i])
                       / static_cast<double>(baseline.appCompletion[i])
                   - 1.0;
        sum += d;
        worst = std::max(worst, d);
    }
    c.avgDegradation = n ? sum / static_cast<double>(n) : 0.0;
    c.worstDegradation = worst;
    return c;
}

void
writeJsonReport(const RunResult &run, const Comparison *vs_baseline,
                std::ostream &os, int attempts)
{
    JsonWriter j(os);
    j.beginObject();
    j.field("mix", run.mixName);
    j.field("policy", run.policyName);
    if (attempts > 0)
        j.field("attempts", static_cast<std::uint64_t>(attempts));
    j.field("finish_seconds", ticksToSeconds(run.finishTick));
    j.field("total_instructions",
            static_cast<std::uint64_t>(run.totalInstrs));
    j.field("energy_j", run.totalEnergyJ());
    j.field("cpu_energy_j", run.cpuEnergyJ);
    j.field("mem_energy_j", run.memEnergyJ);
    j.field("other_energy_j", run.otherEnergyJ);
    j.field("energy_per_instr_nj", run.energyPerInstrNj());
    j.field("measured_mpki", run.measuredMpki);
    j.field("measured_wpki", run.measuredWpki);
    j.field("prefetch_accuracy", run.prefetchAccuracy);
    j.field("dram_reads", static_cast<std::uint64_t>(run.dramReads));
    j.field("dram_writes", static_cast<std::uint64_t>(run.dramWrites));

    if (run.faultsEnabled) {
        // Injected-fault summary: deterministic (pure function of the
        // request's plan + seed), so it belongs in the report.
        j.beginObject("faults");
        j.field("noisy_epochs", run.faults.noisyEpochs);
        j.field("stale_profiles", run.faults.staleProfiles);
        j.field("counter_dropouts", run.faults.counterDropouts);
        j.field("transitions_denied", run.faults.transitionsDenied);
        j.field("transitions_delayed", run.faults.transitionsDelayed);
        j.field("transitions_clamped", run.faults.transitionsClamped);
        j.field("jittered_epochs", run.faults.jitteredEpochs);
        j.endObject();
    }

    if (vs_baseline) {
        j.beginObject("vs_baseline");
        j.field("full_system_savings", vs_baseline->fullSystemSavings);
        j.field("cpu_savings", vs_baseline->cpuSavings);
        j.field("mem_savings", vs_baseline->memSavings);
        j.field("avg_degradation", vs_baseline->avgDegradation);
        j.field("worst_degradation", vs_baseline->worstDegradation);
        j.endObject();
    }

    j.beginArray("app_completion_seconds");
    for (Tick t : run.appCompletion)
        j.value(ticksToSeconds(t));
    j.endArray();

    j.beginArray("epochs");
    for (const auto &e : run.epochs) {
        j.beginObject();
        j.field("start_seconds", ticksToSeconds(e.startTick));
        j.field("mem_idx", e.applied.memIdx);
        j.beginArray("core_idx");
        for (int idx : e.applied.coreIdx)
            j.value(idx);
        j.endArray();
        if (!e.applied.chanIdx.empty()) {
            j.beginArray("chan_idx");
            for (int idx : e.applied.chanIdx)
                j.value(idx);
            j.endArray();
        }
        if (!e.applied.wayIdx.empty()) {
            j.beginArray("way_idx");
            for (int idx : e.applied.wayIdx)
                j.value(idx);
            j.endArray();
        }
        j.field("cpu_w", e.avgPower.cpuW);
        j.field("mem_w", e.avgPower.memW);
        j.field("total_w", e.avgPower.totalW());
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

} // namespace coscale

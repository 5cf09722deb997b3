#include "check/perf_audit.hh"

#include <cmath>

#include "check/contract.hh"

namespace coscale {

void
PerfAuditor::onEpoch(const EpochObservation &obs, const EnergyModel &em)
{
    const SystemProfile &prof = obs.epochProfile;
    int n = static_cast<int>(prof.cores.size());
    COSCALE_CHECK(static_cast<int>(obs.instrs.size()) == n,
                  "epoch observation instr count %d != cores %d",
                  static_cast<int>(obs.instrs.size()), n);
    COSCALE_CHECK(static_cast<int>(obs.applied.coreIdx.size()) == n,
                  "applied configuration size %d != cores %d",
                  static_cast<int>(obs.applied.coreIdx.size()), n);
    COSCALE_CHECK(obs.epochTicks > 0, "empty audited epoch");
    double epoch_secs = ticksToSeconds(obs.epochTicks);

    for (int i = 0; i < n; ++i) {
        std::uint64_t instrs = obs.instrs[static_cast<size_t>(i)];

        // --- Eq. 1 residual ---
        if (instrs >= cfg.minInstrs) {
            double pred = em.tpi(prof, i, obs.applied);
            double measured =
                epoch_secs / static_cast<double>(instrs);
            COSCALE_CHECK(std::isfinite(pred) && pred > 0.0,
                          "core %d predicted TPI %g not positive", i,
                          pred);
            double residual =
                std::fabs(pred - measured) / measured;

            // Fast side: the simulator can never beat the model's
            // physical floor by more than the hard bound.
            COSCALE_CHECK(
                measured * (1.0 + cfg.residualHard) >= pred,
                "core %d ran faster than Eq. 1 allows: measured TPI "
                "%.3e, predicted %.3e (epoch %.3e s, %llu instrs)",
                i, measured, pred, epoch_secs,
                static_cast<unsigned long long>(instrs));

            // Slow side: only when the core was predicted busy for
            // most of the epoch (idle tails are legal).
            double busy_frac =
                pred * static_cast<double>(instrs) / epoch_secs;
            if (busy_frac >= cfg.busyFracFloor) {
                COSCALE_CHECK(
                    measured <= pred * (1.0 + cfg.residualHard),
                    "core %d ran slower than Eq. 1 predicts: measured "
                    "TPI %.3e, predicted %.3e (busy frac %.2f)",
                    i, measured, pred, busy_frac);
                if (residual > cfg.residualWarn) {
                    warn("perf audit: core %d Eq. 1 residual %.1f%% "
                         "(predicted %.3e s/instr, measured %.3e)",
                         i, 100.0 * residual, pred, measured);
                }
            }
        }

        // --- slack ledger shadow (Section 3) ---
        int app = appOf(obs.appOnCore, i);
        COSCALE_CHECK(app >= 0
                          && app < static_cast<int>(shadowSlack.size()),
                      "epoch observation maps core %d to unknown app "
                      "%d",
                      i, app);
        size_t sa = static_cast<size_t>(app);
        double ref = em.tpiAtMax(prof, i);
        COSCALE_CHECK(std::isfinite(ref) && ref >= 0.0,
                      "core %d all-max TPI %g not finite", i, ref);
        double credit =
            static_cast<double>(instrs) * ref * (1.0 + gamma);
        shadowSlack[sa] += credit - epoch_secs;
        creditSum[sa] += credit;
        timeSum[sa] += epoch_secs;

        COSCALE_CHECK(std::isfinite(shadowSlack[sa]),
                      "app %d slack ledger went non-finite", app);
        double replay = creditSum[sa] - timeSum[sa];
        double scale = std::max(
            1.0, std::fabs(creditSum[sa]) + std::fabs(timeSum[sa]));
        COSCALE_CHECK(
            std::fabs(shadowSlack[sa] - replay)
                <= cfg.ledgerTolRel * scale,
            "app %d slack ledger drifted: incremental %.12g vs "
            "replayed %.12g",
            app, shadowSlack[sa], replay);

        // Monotonicity of the admissible bound: accumulated headroom
        // can only loosen the (1 + gamma) * ref pace, never tighten
        // it.
        if (shadowSlack[sa] >= 0.0 && ref > 0.0
            && shadowSlack[sa] < epoch_secs) {
            double allowed = (1.0 + gamma) * ref * epoch_secs
                             / (epoch_secs - shadowSlack[sa]);
            COSCALE_CHECK(
                allowed >= (1.0 + gamma) * ref * (1.0 - 1e-12),
                "app %d admissible TPI %.3e tightened below the "
                "slack-free pace %.3e",
                app, allowed, (1.0 + gamma) * ref);
        }
    }
    nEpochs += 1;
}

} // namespace coscale

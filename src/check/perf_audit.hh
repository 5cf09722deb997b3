/**
 * @file
 * The performance-model residual auditor: per epoch, checks the Eq. 1
 * TPI prediction against what the simulator actually did, and keeps a
 * shadow of the Section 3 slack ledger to detect bookkeeping drift.
 *
 * Residual checks (per core, when enough instructions retired):
 *  - the core can never run *faster* than the model's physical
 *    prediction allows (measured TPI below pred/(1 + hard bound) is a
 *    timing bug in the simulator or a broken model anchor);
 *  - when the core was predicted busy for most of the epoch, it also
 *    must not run grossly slower than predicted (the model is
 *    anchored at the profiled operating point, so large residuals
 *    mean the anchor or the decomposition broke). Cores that finish
 *    their app mid-epoch are idle for the remainder and are exempt
 *    from the slow-side check.
 *
 * Slack ledger checks (per application):
 *  - the incremental ledger must equal credit-sum minus time-sum
 *    replayed from scratch (catches double updates / missed epochs);
 *  - ledger values stay finite;
 *  - the admissible-TPI bound derived from the ledger is monotone:
 *    non-negative slack can never tighten the bound below the
 *    (1 + gamma) * ref pace.
 *
 * Violations are reported through COSCALE_CHECK; large-but-legal
 * residuals are surfaced via warn().
 */

#ifndef COSCALE_CHECK_PERF_AUDIT_HH
#define COSCALE_CHECK_PERF_AUDIT_HH

#include <cstdint>
#include <vector>

#include "model/energy_model.hh"
#include "policy/policy.hh"

namespace coscale {

/** Tolerances for the residual auditor. */
struct PerfAuditConfig
{
    /** Hard failure bound on |pred - measured| / measured. */
    double residualHard = 0.60;
    /** warn() threshold (model drift worth investigating). */
    double residualWarn = 0.25;
    /** Cores retiring fewer instructions per epoch are skipped. */
    std::uint64_t minInstrs = 10000;
    /**
     * Slow-side residuals only apply when predicted busy time covers
     * at least this fraction of the epoch (else the app finished
     * mid-epoch and the measured TPI is inflated by idling).
     */
    double busyFracFloor = 0.60;
    /** Relative tolerance on ledger replay. */
    double ledgerTolRel = 1e-9;
};

/** Audits Eq. 1 predictions and the slack ledger epoch by epoch. */
class PerfAuditor
{
  public:
    PerfAuditor() = default;
    PerfAuditor(int num_apps, double gamma,
                PerfAuditConfig cfg = PerfAuditConfig{})
        : cfg(cfg), gamma(gamma),
          shadowSlack(static_cast<size_t>(num_apps), 0.0),
          creditSum(static_cast<size_t>(num_apps), 0.0),
          timeSum(static_cast<size_t>(num_apps), 0.0)
    {
    }

    /** Audit one completed epoch. */
    void onEpoch(const EpochObservation &obs, const EnergyModel &em);

    std::uint64_t epochsAudited() const { return nEpochs; }

    double
    shadowSlackSecs(int app) const
    {
        return shadowSlack[static_cast<size_t>(app)];
    }

  private:
    PerfAuditConfig cfg;
    double gamma = 0.10;
    std::vector<double> shadowSlack;
    std::vector<double> creditSum;
    std::vector<double> timeSum;
    std::uint64_t nEpochs = 0;
};

} // namespace coscale

#endif // COSCALE_CHECK_PERF_AUDIT_HH

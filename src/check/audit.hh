/**
 * @file
 * The audit bundle: one object carrying the three runtime auditors
 * (DDR3 timing legality, energy conservation, Eq. 1 residual + slack
 * ledger) that the EpochDriver (sim/runner.hh) wires into every
 * System it steps: single runs and fleet nodes.
 *
 * Activation: the driver instantiates a bundle automatically when
 * auditingEnabled() — i.e. the tree was configured with
 * -DCOSCALE_AUDIT=ON, or the COSCALE_AUDIT environment variable is
 * set to a truthy value ("1", "on", "true", "yes"). Tests may also
 * construct and attach an AuditSet explicitly in any build mode; the
 * auditors themselves are always compiled.
 */

#ifndef COSCALE_CHECK_AUDIT_HH
#define COSCALE_CHECK_AUDIT_HH

#include "check/dram_audit.hh"
#include "check/energy_audit.hh"
#include "check/perf_audit.hh"

namespace coscale {

/**
 * True when runtime auditing should be on by default: compiled with
 * COSCALE_AUDIT=ON, or requested via the COSCALE_AUDIT environment
 * variable. Evaluated once per process.
 */
bool auditingEnabled();

/** The three auditors a full-system run carries. */
struct AuditSet
{
    AuditSet(int num_apps, double gamma,
             PerfAuditConfig perf_cfg = PerfAuditConfig{})
        : perf(num_apps, gamma, perf_cfg)
    {
    }

    DramTimingAuditor dram;
    EnergyAuditor energy;
    PerfAuditor perf;
};

} // namespace coscale

#endif // COSCALE_CHECK_AUDIT_HH

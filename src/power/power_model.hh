/**
 * @file
 * Power models for every component CoScale manages or accounts for
 * (Section 3.3, "Full-system energy model"):
 *
 *  - cores: activity-factor model in the style of Isci/Martonosi and
 *    McPAT — clock-tree dynamic power scaling with V^2*f, per-event
 *    energies (base instruction, ALU, FPU, branch, load/store)
 *    scaling with V^2, leakage scaling with V;
 *  - shared L2: leakage plus per-access energy (fixed domain);
 *  - DRAM devices: the Micron power-calculator method driven by the
 *    Table 2 currents — background power by rank state
 *    (active-standby vs precharge-powerdown, frequency-derated),
 *    activate/precharge energy per ACT, burst energy per read/write,
 *    refresh energy;
 *  - DIMM PLL/register: 0.1-0.5 W per DIMM; the PLL part scales with
 *    frequency and voltage, the register part with utilisation;
 *  - memory controller: 4.5-15 W scaling linearly with utilisation
 *    and with V^2*f of the MC domain (MC frequency = 2x bus);
 *  - rest-of-system: fixed, 10% of peak system power by default.
 *
 * The same formulas serve two callers: the simulator's energy
 * accounting (driven by measured counters) and the policies' power
 * predictor (driven by modelled rates).
 */

#ifndef COSCALE_POWER_POWER_MODEL_HH
#define COSCALE_POWER_POWER_MODEL_HH

#include "common/dvfs.hh"
#include "common/types.hh"
#include "dram/ddr3_params.hh"
#include "stats/perf_counters.hh"

namespace coscale {

/** Core power-model parameters (per core). */
struct CorePowerParams
{
    double vNom = 1.20;        //!< reference voltage
    Freq fNom = 4.0 * GHz;     //!< reference frequency
    double clockW = 2.5;       //!< clock-tree power at (vNom, fNom)
    double eInstrNj = 0.55;    //!< base energy per instruction
    double eAluNj = 0.10;      //!< extra energy per ALU op
    double eFpuNj = 0.45;      //!< extra energy per FPU op
    double eBranchNj = 0.12;   //!< extra energy per branch
    double eMemNj = 0.25;      //!< extra energy per load/store
    double leakW = 1.30;       //!< leakage at vNom

    bool operator==(const CorePowerParams &) const = default;
};

/** Shared-L2 power parameters. */
struct L2PowerParams
{
    double leakW = 10.0;
    double accessNj = 1.5;

    bool operator==(const L2PowerParams &) const = default;
};

/** Memory-subsystem power-model parameters. */
struct MemPowerParams
{
    DramCurrentParams currents;
    Freq fRef = 800 * MHz;       //!< reference bus frequency
    /**
     * Frequency derating of background currents:
     * I_bg(f) = I * (1 - s + s * f/fRef). Standby and fast-exit
     * powerdown current is dominated by DLL/clock distribution, which
     * scales close to linearly with clock frequency.
     */
    double standbySlope = 0.70;
    double powerdownSlope = 0.65;
    /**
     * Multiplier on burst (read/write) energy covering I/O drivers and
     * on-die termination, which the device currents exclude.
     */
    double ioTermScale = 2.0;
    /**
     * Multiplier on background power covering register/buffer devices
     * and calibration to the paper's CPU:memory power split.
     */
    double backgroundScale = 2.0;
    double pllW = 0.10;          //!< per DIMM, scales with V^2*f
    double regMaxW = 0.40;       //!< per DIMM, scales with utilisation
    double mcMinW = 4.5;         //!< MC at zero utilisation (max V/f)
    double mcMaxW = 15.0;        //!< MC at full utilisation (max V/f)
    /**
     * Global multiplier on all memory-subsystem power: 1.0 for the
     * paper's 2:1 CPU:memory split; 2.0 / 4.0 model the 1:1 and 1:2
     * splits of Figures 12-13.
     */
    double memPowerMultiplier = 1.0;

    bool operator==(const MemPowerParams &) const = default;
};

/** All power parameters plus system-level assumptions. */
struct PowerParams
{
    CorePowerParams core;
    L2PowerParams l2;
    MemPowerParams mem;
    MemGeometry geom;
    DramTimingParams timing;
    int numCores = 16;
    /**
     * Rest-of-system share of total power at peak, in the absence of
     * energy management (Section 4.1: 10%; Figure 11 varies it).
     */
    double otherFrac = 0.10;

    bool operator==(const PowerParams &) const = default;
};

/** Modelled activity rates for the policies' power predictor. */
struct CoreActivityRates
{
    double ips = 0.0;       //!< instructions per second
    double aluPs = 0.0;     //!< ALU ops per second
    double fpuPs = 0.0;
    double branchPs = 0.0;
    double memPs = 0.0;
};

/** Component-level breakdown of memory-subsystem power (watts). */
struct MemPowerBreakdown
{
    double background = 0.0; //!< DRAM standby/powerdown
    double activate = 0.0;   //!< ACT-PRE energy
    double burst = 0.0;      //!< read/write bursts incl. I/O
    double refresh = 0.0;
    double pllReg = 0.0;     //!< DIMM PLL + register
    double mc = 0.0;         //!< memory controller

    double
    total() const
    {
        return background + activate + burst + refresh + pllReg + mc;
    }
};

/** Modelled memory activity for the predictor. */
struct MemActivityRates
{
    double readsPs = 0.0;     //!< demand+prefetch reads per second
    double writesPs = 0.0;    //!< writebacks per second
    double busUtil = 0.0;     //!< data-bus busy fraction (0..1)
    double rankActiveFrac = 0.0; //!< avg fraction of ranks active
};

/** Evaluates component and system power. Value type. */
class PowerModel
{
  public:
    PowerModel() = default;
    explicit PowerModel(PowerParams params);

    /** One core's average power at a DVFS point and activity level. */
    double corePower(double volt, Freq f,
                     const CoreActivityRates &rates) const;

    /** Core power from measured counters over @p elapsed ticks. */
    double corePowerFromCounters(const CoreCounters &delta, Tick elapsed,
                                 double volt, Freq f) const;

    /** Shared L2 power at @p access_rate accesses per second. */
    double l2Power(double access_rate) const;

    /** Memory-subsystem power at a bus DVFS point. */
    double memPower(double mc_volt, Freq bus_freq,
                    const MemActivityRates &rates) const;

    /**
     * Same, broken down by component. @p channels_covered limits the
     * computation to that many channels' worth of DRAM/DIMM/MC power
     * (0 = the whole subsystem); rates must then describe just those
     * channels. Used by per-channel DVFS (MultiScale extension).
     */
    MemPowerBreakdown memPowerBreakdown(double mc_volt, Freq bus_freq,
                                        const MemActivityRates &rates,
                                        int channels_covered = 0) const;

    /** Memory power from measured counters over @p elapsed ticks. */
    double memPowerFromCounters(const ChannelCounters &delta, Tick elapsed,
                                double mc_volt, Freq bus_freq) const;

    /**
     * One channel's worth of memory power from that channel's own
     * counters (per-channel DVFS accounting).
     */
    double memChannelPowerFromCounters(const ChannelCounters &delta,
                                       Tick elapsed, double mc_volt,
                                       Freq bus_freq) const;

    /** Fixed rest-of-system power (Section 4.1). */
    double otherPower() const { return otherW; }

    /**
     * Reference CPU+memory power at maximum frequencies and typical
     * activity; anchors the fixed rest-of-system share.
     */
    double referenceCpuMemPower() const;

    const PowerParams &params() const { return p; }

  private:
    PowerParams p;
    double otherW = 0.0;
};

} // namespace coscale

#endif // COSCALE_POWER_POWER_MODEL_HH

/**
 * @file
 * Memory-backend selection: which scheduler, row-buffer policy, and
 * DRAM standard a memory controller is built around.
 *
 * The three enums here are the single source of truth for backend
 * identity (the old MemCtrlConfig::openPage bool is gone). Everything
 * that must agree on the backend — the channel scheduler, the timing
 * auditor's shadow model, the baseline pool's config keys, CLI flags —
 * consumes this vocabulary rather than probing booleans. The behavioural
 * interfaces resolved from these enums live one layer up:
 * memctrl/scheduler.hh (Scheduler), dram/row_policy.hh
 * (RowPolicyModel), and the DramStandardInfo registry below.
 *
 * The default-constructed MemBackendSel is the paper's backend
 * (FCFS-with-write-drain, closed-page auto-precharge, DDR3-800) and
 * reproduces the pre-refactor simulator bit-for-bit.
 */

#ifndef COSCALE_DRAM_MEM_BACKEND_HH
#define COSCALE_DRAM_MEM_BACKEND_HH

#include "common/dvfs.hh"
#include "dram/ddr3_params.hh"

namespace coscale {

/** Channel command scheduler (Section 4.1 default: FcfsDrain). */
enum class MemSched
{
    FcfsDrain,  //!< FCFS reads, write drain between watermarks (paper)
    FrFcfs,     //!< first-ready FCFS: row hits first, oldest otherwise
};

/** Row-buffer management policy (Section 4.1 default: ClosedAuto). */
enum class RowPolicy
{
    ClosedAuto, //!< closed page with auto-precharge (paper)
    Open,       //!< open page: rows stay open, conflicts pay tRP
};

/** DRAM device standard: a named timing/current/ladder package. */
enum class DramStandard
{
    Ddr3,   //!< Table 2: Micron 1Gb DDR3-800 (paper)
    Ddr4,   //!< DDR4-1600, 4Gb-class device at 1.2 V
    Lpddr4, //!< LPDDR4-1600, mobile-class device at 1.1 V
};

/** The full backend selection carried by MemCtrlConfig/SystemConfig. */
struct MemBackendSel
{
    MemSched sched = MemSched::FcfsDrain;
    RowPolicy rowPolicy = RowPolicy::ClosedAuto;
    DramStandard standard = DramStandard::Ddr3;

    bool operator==(const MemBackendSel &) const = default;
};

/** Short lowercase names, matching the CLI flag spellings. */
const char *memSchedName(MemSched s);
const char *rowPolicyName(RowPolicy p);
const char *dramStandardName(DramStandard s);

/** Parse the CLI spellings; return false on unknown text. */
bool parseMemSched(const char *text, MemSched *out);
bool parseRowPolicy(const char *text, RowPolicy *out);
bool parseDramStandard(const char *text, DramStandard *out);

/**
 * One DRAM standard's complete timing/electrical package. Frequency
 * ladders and recalibration costs are per-standard: the ladder spans
 * the standard's bus-frequency range, and recalCycles is quoted in
 * cycles of that bus (DramTimingParams::recalCycles), so a faster
 * standard recalibrates in less wall-clock time.
 */
struct DramStandardInfo
{
    const char *name;
    DramTimingParams timing;
    DramCurrentParams currents;
    Freq busMax = 0;  //!< ladder top (index 0)
    Freq busMin = 0;  //!< ladder bottom
};

/** The registry entry for @p s (static storage, never null). */
const DramStandardInfo &dramStandardInfo(DramStandard s);

/**
 * The standard's bus-frequency ladder. Ddr3 returns exactly
 * defaultMemLadder(steps); the others span [busMin, busMax] with the
 * shared MC voltage range.
 */
FreqLadder standardMemLadder(DramStandard s, int steps = 10);

} // namespace coscale

#endif // COSCALE_DRAM_MEM_BACKEND_HH

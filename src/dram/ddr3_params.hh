/**
 * @file
 * DDR3 device timing, geometry, and current parameters, following
 * Table 2 of the paper (Micron 1Gb DDR3-800 datasheet values).
 *
 * Table 2 quotes some parameters in nanoseconds and some in bus
 * cycles (at the DDR3-800 reference clock), but all DRAM-core timing
 * (tRCD/tRP/tCL/tRAS/tRTP/tRRD/tFAW/tWR) is analog and stays constant
 * in wall-clock terms when the bus slows down — at a lower clock the
 * controller simply programs fewer cycles. Only the data burst (and
 * the DLL re-lock cycles of a frequency transition) scale with the
 * actual bus clock. This is the foundation of memory DVFS: lowering
 * the bus frequency costs bandwidth (burst time, queueing), not DRAM
 * core latency.
 */

#ifndef COSCALE_DRAM_DDR3_PARAMS_HH
#define COSCALE_DRAM_DDR3_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace coscale {

/** Raw DDR3 timing parameters (Table 2). */
struct DramTimingParams
{
    // Nanosecond-fixed analog timing.
    double tRCDns = 15.0;  //!< ACT to CAS
    double tRPns = 15.0;   //!< precharge
    double tCLns = 15.0;   //!< CAS to first data
    double tCWLns = 11.25; //!< CAS write latency
    double tWRns = 15.0;   //!< write recovery
    double tRFCns = 110.0; //!< refresh cycle (1Gb device)

    // Quoted in cycles at the reference clock (Table 2); fixed in
    // wall-clock terms.
    Freq refClock = 800 * MHz;
    int tFAWcycles = 20;  //!< four-activate window
    int tRTPcycles = 5;   //!< read to precharge
    int tRAScycles = 28;  //!< ACT to precharge
    int tRRDcycles = 4;   //!< ACT to ACT, same rank

    // The data burst occupies real bus cycles: BL8 on a DDR bus.
    int burstCycles = 4;

    // Refresh interval per rank (64 ms / 8192 rows).
    double tREFIus = 7.8;

    // Frequency re-calibration penalty (Section 4.1): a transition
    // takes 512 memory cycles (at the new frequency) plus 28 ns for
    // the powerdown exit and DLL re-lock.
    int recalCycles = 512;
    double recalExtraNs = 28.0;

    bool operator==(const DramTimingParams &) const = default;
};

/** DDR3 device currents in mA (Table 2) and supply voltage. */
struct DramCurrentParams
{
    double vdd = 1.5;             //!< DDR3 supply (volts)
    double iRowRead = 250.0;      //!< row buffer read burst
    double iRowWrite = 250.0;     //!< row buffer write burst
    double iActPre = 120.0;       //!< activation-precharge
    double iActiveStandby = 67.0;
    double iActivePowerdown = 45.0;
    double iPrechargeStandby = 70.0;
    double iPrechargePowerdown = 45.0;
    double iRefresh = 240.0;

    bool operator==(const DramCurrentParams &) const = default;
};

/** How block addresses are spread over channels. */
enum class AddrMap
{
    /** Consecutive blocks rotate across channels (the paper's
     *  bank-interleaved default; balances load). */
    Interleave,
    /** Each application's address region is pinned to one channel
     *  (page/region placement in the style of MultiScale [9]; load
     *  follows the application, enabling per-channel DVFS). */
    RegionPerChannel,
};

/** Memory-system geometry (Table 2: 4 channels, 8 x 2GB ECC DIMMs). */
struct MemGeometry
{
    int channels = 4;
    int dimmsPerChannel = 2;
    int ranksPerDimm = 2;
    int devicesPerRank = 9;   //!< x8 devices on a 72-bit ECC rank
    int banksPerRank = 8;
    int blocksPerRow = 128;   //!< 8 KB row / 64 B blocks
    std::uint64_t rowsPerBank = 1 << 16;
    AddrMap addrMap = AddrMap::Interleave;

    int ranksPerChannel() const { return dimmsPerChannel * ranksPerDimm; }
    int totalRanks() const { return channels * ranksPerChannel(); }
    int totalBanksPerChannel() const
    {
        return ranksPerChannel() * banksPerRank;
    }

    bool operator==(const MemGeometry &) const = default;
};

/** Timing parameters resolved to ticks at a specific bus frequency. */
struct ResolvedTiming
{
    Tick tCK = 0;     //!< bus clock period
    Tick tRCD = 0;
    Tick tRP = 0;
    Tick tCL = 0;
    Tick tCWL = 0;
    Tick tWR = 0;
    Tick tRFC = 0;
    Tick tFAW = 0;
    Tick tRTP = 0;
    Tick tRAS = 0;
    Tick tRRD = 0;
    Tick tBURST = 0;
    Tick tREFI = 0;

    /** Resolve @p p at bus frequency @p busFreq. */
    static ResolvedTiming resolve(const DramTimingParams &p, Freq bus_freq);
};

/**
 * Physical location of a cache block in the memory system.
 *
 * The address mapping interleaves consecutive cache blocks across
 * channels, then banks, then ranks (closed-page bank-interleaved
 * mapping per Section 4.1), with the row index in the high bits.
 */
struct DramCoord
{
    int channel = 0;
    int rank = 0;
    int bank = 0;
    std::uint64_t row = 0;
    int column = 0;
};

/** Map a block address to its DRAM coordinates under @p g. */
DramCoord mapAddress(BlockAddr addr, const MemGeometry &g);

} // namespace coscale

#endif // COSCALE_DRAM_DDR3_PARAMS_HH

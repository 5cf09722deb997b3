/**
 * @file
 * DVFS domain descriptions: discrete frequency ladders and the
 * voltage/frequency relationship used by the power models.
 *
 * Per the paper (Section 4.1):
 *  - cores: 10 equally spaced frequencies in 2.2-4.0 GHz, voltage
 *    0.65-1.2 V scaling linearly with frequency (Sandy Bridge-like);
 *  - memory bus: 800 MHz down to 200 MHz in 66 MHz steps (10 points);
 *    the memory controller always runs at twice the bus frequency and
 *    shares the cores' voltage range; DRAM devices are
 *    frequency-scaled only (fixed 1.5 V).
 */

#ifndef COSCALE_COMMON_DVFS_HH
#define COSCALE_COMMON_DVFS_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace coscale {

/**
 * A discrete ladder of operating frequencies with a linear
 * voltage-vs-frequency map.
 *
 * Index 0 is the highest frequency ("origin" of CoScale's search);
 * larger indices are lower frequencies.
 */
class FreqLadder
{
  public:
    FreqLadder() = default;

    /**
     * Build a ladder of @p steps equally spaced frequencies from
     * @p fMax down to @p fMin, with voltage mapped linearly from
     * @p vMax at fMax to @p vMin at fMin.
     */
    static FreqLadder linear(Freq f_max, Freq f_min, int steps,
                             double v_max, double v_min);

    /**
     * Build a ladder from an explicit high-to-low frequency list with
     * a linear voltage map over [fMin, fMax].
     */
    static FreqLadder explicitFreqs(std::vector<Freq> freqs_high_to_low,
                                    double v_max, double v_min);

    /** Number of available frequency steps. */
    int size() const { return static_cast<int>(freqs.size()); }

    /** Frequency at ladder index @p idx (0 = fastest). */
    Freq
    freq(int idx) const
    {
        return freqs[static_cast<std::size_t>(idx)];
    }

    /** Supply voltage at ladder index @p idx. */
    double
    voltage(int idx) const
    {
        return volts[static_cast<std::size_t>(idx)];
    }

    /** Voltage for an arbitrary frequency via the linear map. */
    double voltageAt(Freq f) const;

    /** Highest frequency (index 0). */
    Freq fMax() const { return freqs.front(); }

    /** Lowest frequency (last index). */
    Freq fMin() const { return freqs.back(); }

    /** Highest voltage. */
    double vMax() const { return vHigh; }

    /** Lowest voltage. */
    double vMin() const { return vLow; }

    /** True if @p idx is not the last (lowest) step. */
    bool canScaleDown(int idx) const { return idx + 1 < size(); }

    /** True if @p idx is not the first (highest) step. */
    bool canScaleUp(int idx) const { return idx > 0; }

    bool operator==(const FreqLadder &) const = default;

  private:
    std::vector<Freq> freqs;   //!< high-to-low frequencies
    std::vector<double> volts; //!< matching supply voltages
    double vHigh = 0.0;
    double vLow = 0.0;
};

/** The paper's default core ladder: 2.2-4.0 GHz, 10 steps, 0.65-1.2 V. */
FreqLadder defaultCoreLadder(int steps = 10);

/** As defaultCoreLadder but with the half-width 0.95-1.2 V range. */
FreqLadder halfVoltageCoreLadder(int steps = 10);

/**
 * The paper's default memory-bus ladder: 800 down to 200 MHz in 66 MHz
 * steps (10 points). @p steps other than 10 picks equally spaced
 * points over the same range (Fig. 15 sensitivity).
 */
FreqLadder defaultMemLadder(int steps = 10);

} // namespace coscale

#endif // COSCALE_COMMON_DVFS_HH

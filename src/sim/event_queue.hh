/**
 * @file
 * The deterministic event-scheduler kernel: one next-event tick per
 * component rank in a fixed array, and a branch-free min-scan keyed
 * by (tick, rank).
 *
 * Components do not poll; they (or rather the System on their
 * behalf) *reschedule* their next-event tick whenever it changes, and
 * the simulation loop dispatches the earliest entry. Every component
 * always has its slot — an idle component is parked at the maxTick
 * sentinel rather than removed — so schedule() is a single store and
 * nothing allocates after reset(). With one rank per core plus the
 * controller (17 on the default server), one pass of compares and
 * conditional moves costs less than a binary heap's data-dependent
 * sifts.
 *
 * Tie-break contract (must never change — the golden trace fixtures
 * depend on it): at equal ticks the lower rank fires first. The
 * System assigns rank 0 to the memory controller and rank 1+i to
 * core i, exactly replicating the historical polling loop's order
 * (controller beats cores, cores in index order).
 *
 * Plain value type: copying a System copies the queue verbatim, and
 * System::reseat() re-derives every key from the cloned components
 * so queue membership always refers to the owning system's state.
 */

#ifndef COSCALE_SIM_EVENT_QUEUE_HH
#define COSCALE_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace coscale {

/** Per-component next-event ticks with a (tick, rank) min-scan. */
class EventQueue
{
  public:
    EventQueue() = default;
    explicit EventQueue(int num_components) { reset(num_components); }

    /** Rebuild for @p num_components ranks, all parked at maxTick. */
    void reset(int num_components);

    /** Number of component ranks (fixed between resets). */
    int size() const { return static_cast<int>(keys.size()); }

    /**
     * (Re)schedule component @p rank's next event at @p t. Passing
     * maxTick parks the component (cancels its pending event).
     * Idempotent and O(1): the kernel calls it after every dispatch.
     */
    void
    schedule(int rank, Tick t)
    {
        keys[static_cast<std::size_t>(rank)] = t;
    }

    /** The tick currently scheduled for @p rank. */
    Tick
    tickOf(int rank) const
    {
        return keys[static_cast<std::size_t>(rank)];
    }

    /**
     * Rank of the earliest event; the lowest rank wins ties, so 0
     * when every component is parked (or the queue is empty).
     */
    int
    topRank() const
    {
        // A strict compare keeps the first (lowest) rank among equal
        // ticks. Written as selects so the loop compiles to
        // conditional moves: which rank wins is unpredictable.
        Tick best_tick = maxTick;
        std::size_t best = 0;
        for (std::size_t r = 0; r < keys.size(); ++r) {
            Tick t = keys[r];
            bool earlier = t < best_tick;
            best_tick = earlier ? t : best_tick;
            best = earlier ? r : best;
        }
        return static_cast<int>(best);
    }

    /** Tick of the earliest event; maxTick when everything is idle. */
    Tick
    topTick() const
    {
        Tick best_tick = maxTick;
        for (Tick t : keys)
            best_tick = t < best_tick ? t : best_tick;
        return best_tick;
    }

  private:
    std::vector<Tick> keys;  //!< rank -> scheduled tick
};

} // namespace coscale

#endif // COSCALE_SIM_EVENT_QUEUE_HH

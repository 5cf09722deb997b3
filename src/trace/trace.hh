/**
 * @file
 * Trace abstraction for the two-step simulation methodology
 * (Section 4.1): cores replay a stream of post-L1 records. Each record
 * is one LLC access plus the compute "gap" (instructions, core cycles,
 * and the activity-counter instruction mix) preceding it.
 *
 * TraceSource is polymorphic (synthetic generator, file replay);
 * TraceHandle gives it value semantics via clone-on-copy so the whole
 * simulator remains deep-copyable, and generates one record ahead of
 * the core that consumes it.
 */

#ifndef COSCALE_TRACE_TRACE_HH
#define COSCALE_TRACE_TRACE_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace coscale {

/** One LLC access and the compute gap leading up to it. */
struct TraceRecord
{
    BlockAddr addr = 0;       //!< block address of the LLC access
    std::uint32_t gapInstrs = 1;  //!< instructions in the gap (>= 1)
    std::uint32_t gapCycles = 1;  //!< core compute cycles for the gap
    std::uint16_t aluOps = 0;     //!< activity-counter events in gap
    std::uint16_t fpuOps = 0;
    std::uint16_t branchOps = 0;
    std::uint16_t memOps = 0;
    std::uint8_t isWrite = 0;     //!< store to this block
};

/** Producer of an (unbounded) stream of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next record. Streams never end; they wrap. */
    virtual TraceRecord next() = 0;

    /** Deep copy, preserving generator/replay position. */
    virtual std::unique_ptr<TraceSource> clone() const = 0;
};

/**
 * Value-semantic owner of a TraceSource (clone-on-copy) that runs the
 * source one record ahead of its consumer.
 *
 * The handle keeps the next record in the object and generates its
 * successor as it hands it out, so the record a core consumes was
 * generated one call earlier: the generator's serial chain of RNG
 * draws and log() is not what the core's next wake tick waits on.
 * This is exact because a source's records are a pure function of its
 * own state, never of simulated time, and the record travels with the
 * handle (copies, moves, context switches).
 */
class TraceHandle
{
  public:
    TraceHandle() = default;

    explicit
    TraceHandle(std::unique_ptr<TraceSource> s)
        : src(std::move(s))
    {
        if (src)
            ahead = src->next();
    }

    TraceHandle(const TraceHandle &o)
        : src(o.src ? o.src->clone() : nullptr), ahead(o.ahead)
    {
    }

    TraceHandle &
    operator=(const TraceHandle &o)
    {
        return *this = TraceHandle(o);
    }

    TraceHandle(TraceHandle &&) = default;
    TraceHandle &operator=(TraceHandle &&) = default;

    /** The source's next record; generates the one after it. */
    TraceRecord
    next()
    {
        TraceRecord r = ahead;
        ahead = src->next();
        return r;
    }

    /** The record generated ahead: what next() returns next. */
    const TraceRecord &newest() const { return ahead; }

    explicit operator bool() const { return src != nullptr; }

  private:
    std::unique_ptr<TraceSource> src;
    TraceRecord ahead{};
};

} // namespace coscale

#endif // COSCALE_TRACE_TRACE_HH

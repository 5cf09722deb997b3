#include "cpu/core.hh"

#include <algorithm>

#include "check/contract.hh"
#include "common/log.hh"

namespace coscale {

Core::Core(CoreId id, const CoreConfig *cfg, TraceHandle trace_in,
           Tick start)
    : coreId(id), cfg(cfg), trace(std::move(trace_in))
{
    COSCALE_CHECK(static_cast<bool>(trace), "core %d has no trace", id);
    freqIdx = 0;
    period = periodTicks(cfg->ladder.freq(0));
    current = trace.next();
    startGap(start);
}

bool
Core::mustStallForMisses() const
{
    if (outstanding.empty())
        return false;
    if (static_cast<int>(outstanding.size()) >= cfg->maxOutstanding)
        return true;
    std::uint64_t dist = stats.tic - outstanding.front().atInstr;
    return dist >= static_cast<std::uint64_t>(cfg->oooWindow);
}

std::uint64_t
Core::sendToMemory(Tick now)
{
    COSCALE_CHECK(state == State::NeedLlc,
                  "sendToMemory in wrong state on core %d", coreId);
    std::uint64_t token = nextToken++;
    stats.tlm += 1;
    outstanding.push_back(OutMiss{token, stats.tic, maxTick});

    if (!cfg->ooo) {
        stats.tls += 1;
        state = State::StallMem;
        stallStart = now;
        stalledOnFront = true;
        wakeAt = maxTick;
    } else {
        loadNextRecord(now);
    }
    return token;
}

void
Core::memCompleted(std::uint64_t token, Tick finish_at)
{
    for (auto &m : outstanding) {
        if (m.token == token) {
            m.resolveAt = finish_at;
            break;
        }
    }
    if (state == State::StallMem && stalledOnFront
        && !outstanding.empty()
        && outstanding.front().resolveAt != maxTick) {
        wakeAt = std::max(outstanding.front().resolveAt, transitionUntil);
    }
}

TraceHandle
Core::swapTrace(TraceHandle incoming, Tick now, Tick switch_penalty)
{
    COSCALE_CHECK(state != State::NeedLlc,
                  "context switch during an LLC access on core %d",
                  coreId);
    TraceHandle outgoing = std::move(trace);
    trace = std::move(incoming);

    // Flush: abandon in-flight misses (their completions are matched
    // by token and simply never looked up again) and charge the
    // switch penalty as transition time.
    outstanding.clear();
    stalledOnFront = false;
    transitionUntil = std::max(transitionUntil, now + switch_penalty);
    stats.transitionTicks += switch_penalty;

    current = trace.next();
    startGap(now);
    return outgoing;
}

void
Core::setFrequencyIndex(int idx, Tick now)
{
    COSCALE_CHECK(idx >= 0 && idx < cfg->ladder.size(),
                  "bad core frequency index %d", idx);
    if (idx == freqIdx)
        return;
    COSCALE_CHECK(state != State::NeedLlc,
                  "frequency change during an LLC access on core %d",
                  coreId);

    freqIdx = idx;
    Tick new_period = periodTicks(cfg->ladder.freq(idx));
    transitionUntil = now + cfg->transitionTicks;
    stats.transitionTicks += cfg->transitionTicks;

    switch (state) {
      case State::Compute: {
        Tick executed = now - computeStart;
        stats.computeTicks += executed;
        std::uint64_t cycles_done = executed / period;
        gapCyclesLeft =
            gapCyclesLeft > cycles_done ? gapCyclesLeft - cycles_done : 0;
        period = new_period;
        computeStart = transitionUntil;
        computeEndAt = computeStart + gapCyclesLeft * period;
        wakeAt = computeEndAt;
        break;
      }
      case State::StallL2:
        period = new_period;
        wakeAt = std::max(wakeAt, transitionUntil);
        break;
      case State::StallMem:
        period = new_period;
        if (wakeAt != maxTick)
            wakeAt = std::max(wakeAt, transitionUntil);
        break;
      case State::NeedLlc:
        break;  // unreachable; asserted above
    }
}

} // namespace coscale

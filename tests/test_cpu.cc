/**
 * @file
 * Unit tests for the trace-driven core model: compute timing across
 * frequencies, stall accounting, the counter architecture, DVFS
 * transitions, instruction budgets, and the OoO/MLP window.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hh"

namespace coscale {
namespace {

/** Deterministic trace source over a fixed record list (wraps). */
class VectorTraceSource final : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceRecord> recs)
        : records(std::move(recs))
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord r = records[pos];
        pos = (pos + 1) % records.size();
        return r;
    }

    std::unique_ptr<TraceSource>
    clone() const override
    {
        return std::make_unique<VectorTraceSource>(*this);
    }

  private:
    std::vector<TraceRecord> records;
    size_t pos = 0;
};

TraceRecord
rec(std::uint32_t gap_instrs, std::uint32_t gap_cycles, BlockAddr addr,
    bool write = false)
{
    TraceRecord r;
    r.gapInstrs = gap_instrs;
    r.gapCycles = gap_cycles;
    r.addr = addr;
    r.isWrite = write;
    r.aluOps = static_cast<std::uint16_t>(gap_instrs / 2);
    r.memOps = static_cast<std::uint16_t>(gap_instrs / 4);
    return r;
}

CoreConfig
makeCfg(bool ooo = false)
{
    CoreConfig cfg;
    cfg.ladder = defaultCoreLadder();
    cfg.transitionTicks = 30 * tickPerUs;
    cfg.ooo = ooo;
    cfg.oooWindow = 128;
    cfg.maxOutstanding = 4;
    cfg.instrBudget = 1'000'000;
    return cfg;
}

TraceHandle
handle(std::vector<TraceRecord> recs)
{
    return TraceHandle(
        std::make_unique<VectorTraceSource>(std::move(recs)));
}

TEST(Core, ComputeTimeAtMaxFrequency)
{
    CoreConfig cfg = makeCfg();
    Core core(0, &cfg, handle({rec(100, 1000, 1)}), 0);
    // 1000 cycles at 4 GHz = 250 ns.
    EXPECT_EQ(core.nextEventTick(), 250 * tickPerNs);
    CoreEvent ev = core.step(250 * tickPerNs);
    EXPECT_TRUE(ev.wantsLlc);
    EXPECT_EQ(ev.addr, 1u);
    EXPECT_EQ(core.counters().tic, 100u);
    EXPECT_EQ(core.counters().tla, 1u);
    EXPECT_EQ(core.counters().computeTicks, 250u * tickPerNs);
    EXPECT_EQ(core.counters().aluOps, 50u);
    EXPECT_EQ(core.counters().memOps, 25u);
}

TEST(Core, ComputeTimeScalesWithFrequency)
{
    CoreConfig cfg = makeCfg();
    cfg.transitionTicks = 0;
    Core core(0, &cfg, handle({rec(100, 2200, 1)}), 0);
    core.setFrequencyIndex(9, 0);  // 2.2 GHz
    // 2200 cycles at 2.2 GHz = 1000 ns (up to period rounding).
    EXPECT_EQ(core.nextEventTick(), 2200 * periodTicks(2.2 * GHz));
    EXPECT_NEAR(static_cast<double>(core.nextEventTick()),
                1000.0 * tickPerNs, 2200.0);
}

TEST(Core, L2HitStallAccounting)
{
    CoreConfig cfg = makeCfg();
    Core core(0, &cfg, handle({rec(10, 100, 1)}), 0);
    Tick t = core.nextEventTick();
    core.step(t);
    Tick hit_lat = nsToTicks(7.5);
    core.completeHit(t, hit_lat);
    EXPECT_EQ(core.nextEventTick(), t + hit_lat);
    core.step(t + hit_lat);
    EXPECT_EQ(core.counters().tms, 1u);
    EXPECT_EQ(core.counters().l2StallTicks, hit_lat);
    EXPECT_EQ(core.counters().tlm, 0u);
}

TEST(Core, MemStallAccounting)
{
    CoreConfig cfg = makeCfg();
    Core core(0, &cfg, handle({rec(10, 100, 1)}), 0);
    Tick t = core.nextEventTick();
    core.step(t);
    std::uint64_t token = core.sendToMemory(t);
    // Blocked until the completion arrives.
    EXPECT_EQ(core.nextEventTick(), maxTick);
    Tick finish = t + nsToTicks(100);
    core.memCompleted(token, finish);
    EXPECT_EQ(core.nextEventTick(), finish);
    core.step(finish);
    EXPECT_EQ(core.counters().tlm, 1u);
    EXPECT_EQ(core.counters().tls, 1u);
    EXPECT_EQ(core.counters().memStallTicks, nsToTicks(100));
}

TEST(Core, FrequencyTransitionMidCompute)
{
    CoreConfig cfg = makeCfg();
    Core core(0, &cfg, handle({rec(100, 1000, 1)}), 0);
    // Run half the gap (500 cycles = 125 ns), then drop to 2 GHz...
    // (index 5 = 3.0 GHz).
    Tick half = 125 * tickPerNs;
    core.setFrequencyIndex(5, half);
    // Remaining 500 cycles at 3.0 GHz (333.33 ps period), after the
    // 30 us transition halt.
    Tick expected = half + cfg.transitionTicks
                    + cyclesToTicks(500, 3.0 * GHz);
    EXPECT_NEAR(static_cast<double>(core.nextEventTick()),
                static_cast<double>(expected), 500.0);
    EXPECT_EQ(core.counters().transitionTicks, cfg.transitionTicks);
}

TEST(Core, TransitionToSameIndexIsFree)
{
    CoreConfig cfg = makeCfg();
    Core core(0, &cfg, handle({rec(100, 1000, 1)}), 0);
    Tick before = core.nextEventTick();
    core.setFrequencyIndex(0, 100);
    EXPECT_EQ(core.nextEventTick(), before);
    EXPECT_EQ(core.counters().transitionTicks, 0u);
}

TEST(Core, TransitionWhileStalledDefersWake)
{
    CoreConfig cfg = makeCfg();
    Core core(0, &cfg, handle({rec(10, 100, 1)}), 0);
    Tick t = core.nextEventTick();
    core.step(t);
    std::uint64_t token = core.sendToMemory(t);
    core.setFrequencyIndex(3, t + 10);
    Tick finish = t + nsToTicks(50);
    core.memCompleted(token, finish);
    // Wake deferred to the end of the transition halt.
    EXPECT_EQ(core.nextEventTick(), t + 10 + cfg.transitionTicks);
}

TEST(Core, BudgetCompletionMarksTick)
{
    CoreConfig cfg = makeCfg();
    cfg.instrBudget = 25;
    Core core(0, &cfg, handle({rec(10, 10, 1)}), 0);
    EXPECT_FALSE(core.done());
    for (int i = 0; i < 3; ++i) {
        Tick t = core.nextEventTick();
        core.step(t);
        core.completeHit(t, 1);
        core.step(core.nextEventTick());
    }
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.instrsRetired(), 30u);
    EXPECT_NE(core.completionTick(), maxTick);
    // The core keeps running after completion (contention stays).
    EXPECT_NE(core.nextEventTick(), maxTick);
}

TEST(Core, InOrderHasSingleOutstandingMiss)
{
    CoreConfig cfg = makeCfg(false);
    Core core(0, &cfg, handle({rec(10, 10, 1)}), 0);
    core.step(core.nextEventTick());
    core.sendToMemory(core.nextEventTick());
    EXPECT_EQ(core.outstandingMisses(), 1);
    EXPECT_EQ(core.nextEventTick(), maxTick);  // hard stall
}

TEST(Core, OooOverlapsMissesWithinWindow)
{
    CoreConfig cfg = makeCfg(true);
    // Misses every 10 instructions; window 128 allows several.
    Core core(0, &cfg, handle({rec(10, 10, 1), rec(10, 10, 2),
                               rec(10, 10, 3)}),
              0);
    Tick t = core.nextEventTick();
    core.step(t);
    core.sendToMemory(t);
    // Core keeps computing: next event is the next gap end, not a
    // stall.
    EXPECT_NE(core.nextEventTick(), maxTick);
    t = core.nextEventTick();
    core.step(t);
    core.sendToMemory(t);
    EXPECT_EQ(core.outstandingMisses(), 2);
    EXPECT_NE(core.nextEventTick(), maxTick);
    // No stalls counted so far.
    EXPECT_EQ(core.counters().tls, 0u);
    EXPECT_EQ(core.counters().tlm, 2u);
}

TEST(Core, OooStallsWhenWindowExceeded)
{
    CoreConfig cfg = makeCfg(true);
    cfg.oooWindow = 32;
    // 20-instruction gaps: the window check runs when loading the
    // next record, measuring the distance to the oldest unresolved
    // miss. After the third miss (instruction 60, oldest at 20) the
    // distance is 40 >= 32 -> stall.
    Core core(0, &cfg, handle({rec(20, 20, 1), rec(20, 20, 2),
                               rec(20, 20, 3)}),
              0);
    for (int i = 0; i < 3; ++i) {
        Tick t = core.nextEventTick();
        ASSERT_NE(t, maxTick);
        core.step(t);
        core.sendToMemory(t);
    }
    EXPECT_EQ(core.nextEventTick(), maxTick);
    EXPECT_EQ(core.counters().tls, 1u);
    EXPECT_EQ(core.counters().tlm, 3u);
}

TEST(Core, OooStallsAtMshrLimit)
{
    CoreConfig cfg = makeCfg(true);
    cfg.maxOutstanding = 2;
    cfg.oooWindow = 100000;
    Core core(0, &cfg, handle({rec(1, 1, 1), rec(1, 1, 2),
                               rec(1, 1, 3)}),
              0);
    for (int i = 0; i < 2; ++i) {
        Tick t = core.nextEventTick();
        core.step(t);
        core.sendToMemory(t);
    }
    EXPECT_EQ(core.outstandingMisses(), 2);
    EXPECT_EQ(core.nextEventTick(), maxTick);
}

TEST(Core, OooWakesWhenOldestResolves)
{
    CoreConfig cfg = makeCfg(true);
    cfg.oooWindow = 8;
    Core core(0, &cfg, handle({rec(16, 16, 1), rec(16, 16, 2),
                               rec(16, 16, 3)}),
              0);
    Tick t1 = core.nextEventTick();
    core.step(t1);
    std::uint64_t tok1 = core.sendToMemory(t1);
    // Distance to the oldest is still 0: compute continues.
    Tick t2 = core.nextEventTick();
    ASSERT_NE(t2, maxTick);
    core.step(t2);
    core.sendToMemory(t2);
    // Now the window (8 < 16) is exceeded: stall on the oldest miss.
    EXPECT_EQ(core.nextEventTick(), maxTick);
    Tick finish = t2 + nsToTicks(80);
    core.memCompleted(tok1, finish);
    EXPECT_EQ(core.nextEventTick(), finish);
    core.step(finish);
    EXPECT_EQ(core.counters().memStallTicks, nsToTicks(80));
    EXPECT_EQ(core.outstandingMisses(), 1);  // the second miss
}

TEST(Core, CopyIsIndependent)
{
    CoreConfig cfg = makeCfg();
    Core a(0, &cfg, handle({rec(10, 100, 1), rec(10, 100, 2)}), 0);
    Core b = a;
    b.reseatConfig(&cfg);
    Tick t = a.nextEventTick();
    EXPECT_EQ(b.nextEventTick(), t);
    a.step(t);
    a.completeHit(t, 1);
    EXPECT_EQ(b.nextEventTick(), t);  // b untouched
    EXPECT_EQ(b.counters().tic, 0u);
}

/** Run @p core's pending access as an LLC hit; returns its block. */
BlockAddr
accessAsHit(Core &core)
{
    Tick t = core.nextEventTick();
    CoreEvent ev = core.step(t);
    EXPECT_TRUE(ev.wantsLlc);
    core.completeHit(t, nsToTicks(7.5));
    core.step(core.nextEventTick());  // the hit returns; next record
    return ev.addr;
}

TEST(Core, SwappedBackTraceResumesAfterItsLastConsumedRecord)
{
    CoreConfig cfg = makeCfg();
    std::vector<TraceRecord> mine, other;
    for (BlockAddr i = 0; i < 32; ++i) {
        mine.push_back(rec(10, 100, 100 + i));
        other.push_back(rec(10, 100, 200 + i));
    }
    Core core(0, &cfg, handle(mine), 0);
    EXPECT_EQ(accessAsHit(core), 100u);
    EXPECT_EQ(accessAsHit(core), 101u);

    // Record 102's gap has begun, so the core has consumed it: it is
    // abandoned on the way out, and the trace resumes after it.
    TraceHandle parked =
        core.swapTrace(handle(other), core.nextEventTick(), 0);
    EXPECT_EQ(accessAsHit(core), 200u);
    EXPECT_EQ(accessAsHit(core), 201u);

    core.swapTrace(std::move(parked), core.nextEventTick(), 0);
    for (BlockAddr want = 103; want < 110; ++want)
        EXPECT_EQ(accessAsHit(core), want);
}

} // namespace
} // namespace coscale

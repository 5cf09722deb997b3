/**
 * @file
 * Golden-model property tests: the LLC against a straightforward
 * reference implementation over randomized access streams,
 * memory-controller queueing behaviour against first-principles
 * expectations (latency monotone in load and in bus period), and
 * byte-identity pins for the event-driven simulation kernel (clean
 * and faulted golden traces, deep-copy/re-seat equivalence,
 * epoch-slicing invariance, and counter digests of the kernel paths
 * no trace fixture covers).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache/llc.hh"
#include "common/rng.hh"
#include "exp/policies.hh"
#include "golden_util.hh"
#include "memctrl/mem_ctrl.hh"
#include "obs/trace_sink.hh"
#include "sim/runner.hh"
#include "workloads/spec_catalogue.hh"

namespace coscale {
namespace {

/** Textbook set-associative LRU cache, deliberately naive. */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t blocks, int ways)
        : ways(ways), sets(blocks / static_cast<std::uint64_t>(ways))
    {
        lru.resize(sets);
        dirty.resize(sets);
    }

    struct Outcome
    {
        bool hit;
        bool writeback;
        BlockAddr victim;
    };

    Outcome
    access(BlockAddr addr, bool write)
    {
        Outcome out{false, false, 0};
        std::uint64_t set = addr % sets;
        auto &order = lru[set];
        auto &d = dirty[set];
        for (auto it = order.begin(); it != order.end(); ++it) {
            if (*it == addr) {
                out.hit = true;
                order.erase(it);
                order.push_front(addr);
                if (write)
                    d[addr] = true;
                return out;
            }
        }
        if (static_cast<int>(order.size()) == ways) {
            BlockAddr victim = order.back();
            order.pop_back();
            if (d[victim]) {
                out.writeback = true;
                out.victim = victim;
            }
            d.erase(victim);
        }
        order.push_front(addr);
        d[addr] = write;
        return out;
    }

  private:
    int ways;
    std::uint64_t sets;
    std::vector<std::list<BlockAddr>> lru;
    std::vector<std::map<BlockAddr, bool>> dirty;
};

class LlcGolden : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LlcGolden, MatchesReferenceOverRandomStream)
{
    LlcConfig cfg;
    cfg.sizeBytes = 32 * 1024;  // 512 blocks
    cfg.ways = 4;
    Llc llc(cfg);
    ReferenceCache ref(cfg.sizeBytes / blockBytes, cfg.ways);

    Rng rng(GetParam());
    for (int i = 0; i < 30000; ++i) {
        // Mixture of hot reuse and streaming, with writes.
        BlockAddr addr = rng.bernoulli(0.6)
                             ? rng.range(400)
                             : rng.range(1 << 20);
        bool write = rng.bernoulli(0.3);

        LlcAccessResult got = llc.access(addr, write);
        ReferenceCache::Outcome want = ref.access(addr, write);

        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        if (want.writeback) {
            ASSERT_EQ(got.writebackAddr, want.victim) << "access " << i;
        }
    }
    EXPECT_GT(llc.counters().hits, 10000u);
    EXPECT_GT(llc.counters().writebacks, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LlcGolden,
                         ::testing::Values(11u, 22u, 33u, 44u));

// --- Memory-controller queueing properties ---

/** Average demand-read latency for a Poisson-ish load. */
double
avgLatencyNs(int freq_idx, double reads_per_us, std::uint64_t seed)
{
    MemCtrlConfig cfg;
    cfg.ladder = defaultMemLadder();
    MemCtrl mc(cfg, 0);
    mc.setFrequency(ChannelSel::all(), freq_idx, 0);
    Tick start = 20 * tickPerUs;  // past any recalibration halt

    Rng rng(seed);
    Tick now = start;
    std::uint64_t token = 1;
    std::vector<Tick> arrivals;
    double total_ns = 0.0;
    int completed = 0;

    for (int i = 0; i < 4000; ++i) {
        now += static_cast<Tick>(
            rng.exponential(1000.0 / reads_per_us) * tickPerNs);
        MemReq r;
        r.addr = rng.next() & 0xffffff;
        r.kind = ReqKind::Read;
        r.core = 0;
        r.arrival = now;
        r.token = token++;
        arrivals.push_back(now);
        mc.enqueue(r);
        // Drain anything ready before the next arrival.
        while (mc.nextEventTick() <= now) {
            auto done = mc.step();
            if (done) {
                total_ns += ticksToNs(
                    done->finishAt
                    - arrivals[static_cast<size_t>(done->token - 1)]);
                completed += 1;
            }
        }
    }
    while (mc.nextEventTick() != maxTick) {
        auto done = mc.step();
        if (done) {
            total_ns += ticksToNs(
                done->finishAt
                - arrivals[static_cast<size_t>(done->token - 1)]);
            completed += 1;
        }
    }
    return total_ns / completed;
}

TEST(MemCtrlQueueing, LatencyGrowsWithLoad)
{
    double light = avgLatencyNs(0, 20.0, 7);    // 20 reads/us
    double medium = avgLatencyNs(0, 150.0, 7);
    double heavy = avgLatencyNs(0, 400.0, 7);
    EXPECT_LT(light, medium);
    EXPECT_LT(medium, heavy);
    // Unloaded latency is near the queue-free service time (~50 ns).
    EXPECT_NEAR(light, 50.0, 12.0);
}

TEST(MemCtrlQueueing, LatencyGrowsAsBusSlows)
{
    double fast = avgLatencyNs(0, 100.0, 9);   // 800 MHz
    double mid = avgLatencyNs(5, 100.0, 9);    // 470 MHz
    double slow = avgLatencyNs(9, 100.0, 9);   // 200 MHz
    EXPECT_LT(fast, mid);
    EXPECT_LT(mid, slow);
    // At 200 MHz the burst alone adds 15 ns over 800 MHz; with
    // queueing on top the gap must exceed that.
    EXPECT_GT(slow - fast, 15.0);
}

TEST(MemCtrlQueueing, BandwidthCapsAtBusRate)
{
    // Saturating load: completions per second cannot exceed the data
    // bus rate of 1 burst per tBURST per channel.
    MemCtrlConfig cfg;
    cfg.ladder = defaultMemLadder();
    MemCtrl mc(cfg, 0);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        MemReq r;
        r.addr = rng.next() & 0xffffff;
        r.kind = ReqKind::Read;
        r.core = 0;
        r.arrival = 0;
        r.token = static_cast<std::uint64_t>(i + 1);
        mc.enqueue(r);
    }
    Tick last = 0;
    int completed = 0;
    while (mc.nextEventTick() != maxTick) {
        auto done = mc.step();
        if (done) {
            last = std::max(last, done->finishAt);
            completed += 1;
        }
    }
    double secs = ticksToSeconds(last);
    double peak_reads_per_sec = 4.0 * 800e6 / 4.0;  // channels * f/burst
    EXPECT_LE(completed / secs, peak_reads_per_sec * 1.02);
    // And it should get reasonably close to peak under saturation.
    EXPECT_GE(completed / secs, peak_reads_per_sec * 0.5);
}

// --- Event-kernel byte-identity pins ---
//
// The event-driven kernel (sim/event_queue.hh) replaced the polling
// loop; these tests pin that it changed *how* time advances, never
// *what* happens. The fixtures are the same checked-in bytes that
// test_obs (clean) and test_fault (faulted) compare against — they
// were recorded under the polling loop and must never be regenerated
// to accommodate a kernel change.

/** The 2-core fixture configuration (same as test_obs/test_fault). */
SystemConfig
fixtureConfig()
{
    SystemConfig cfg = makeScaledConfig(0.02);
    cfg.numCores = 2;
    // Pin the paper-default backend so the fixtures stay byte-identical
    // even under CI's COSCALE_MEM_SCHED/ROW_POLICY/DRAM_STANDARD leg.
    applyMemBackend(cfg, MemBackendSel{});
    // Likewise pin the knob space: at 2 cores / 16 ways the LLC
    // way-partition gate would open under COSCALE_KNOB_LLC_WAYS=1
    // (CI's knob-partition leg) and change miss allocation.
    cfg.knobs.llcWays = false;
    return cfg;
}

TEST(KernelGolden, CleanTraceBytesMatchPollingEraFixture)
{
    SystemConfig cfg = fixtureConfig();
    RunRequest req = RunRequest::forMix(cfg, mixByName("MID1"))
                         .with(exp::requirePolicyFactory(
                             "coscale", cfg.numCores, cfg.gamma));
    std::ostringstream os;
    {
        JsonlTraceSink sink(os);
        req.withTrace(sink);
        coscale::run(req);
        sink.finish();
    }
    checkGolden("mid1_2core_coscale.jsonl", os.str());
}

TEST(KernelGolden, FaultedTraceBytesMatchPollingEraFixture)
{
    SystemConfig cfg = fixtureConfig();
    fault::FaultPlan plan;  // test_fault's mixedPlan(), which cut
                            // the fixture
    plan.counterNoiseAmp = 0.05;
    plan.counterNoiseProb = 0.25;
    plan.transitionDenyProb = 0.4;
    RunRequest req = RunRequest::forMix(cfg, mixByName("MID1"))
                         .with(exp::requirePolicyFactory(
                             "coscale", cfg.numCores, cfg.gamma))
                         .withFaults(plan);
    std::ostringstream os;
    {
        JsonlTraceSink sink(os);
        req.withTrace(sink);
        coscale::run(req);
        sink.finish();
    }
    checkGolden("mid1_2core_coscale_faulted.jsonl", os.str());
}

/**
 * A non-default backend fixture: FR-FCFS scheduling, open-page rows,
 * DDR4 timing. Pins the pluggable-backend plumbing end to end — if a
 * refactor silently changes how any of the three interfaces feeds the
 * controller, these bytes move.
 */
TEST(KernelGolden, FrFcfsOpenDdr4TraceBytesMatchFixture)
{
    SystemConfig cfg = fixtureConfig();
    applyMemBackend(cfg, MemBackendSel{MemSched::FrFcfs,
                                       RowPolicy::Open,
                                       DramStandard::Ddr4});
    RunRequest req = RunRequest::forMix(cfg, mixByName("MID1"))
                         .with(exp::requirePolicyFactory(
                             "coscale", cfg.numCores, cfg.gamma));
    std::ostringstream os;
    {
        JsonlTraceSink sink(os);
        req.withTrace(sink);
        coscale::run(req);
        sink.finish();
    }
    checkGolden("mid1_2core_frfcfs_open_ddr4.jsonl", os.str());
}

/**
 * Deep-copy/re-seat: the Offline policy clones the System mid-run
 * (oracleProfile); the clone's event queue is rebuilt from the cloned
 * components. Original and clone must then evolve identically.
 */
TEST(KernelCopy, CloneContinuesIdenticallyAfterReseat)
{
    SystemConfig cfg = fixtureConfig();
    std::vector<AppSpec> apps =
        expandMix(mixByName("MID1"), cfg.numCores, cfg.instrBudget);
    System original(cfg, apps);
    original.run(3 * cfg.epochLen);

    System clone = original;  // re-seats queue membership
    ASSERT_EQ(clone.now(), original.now());
    ASSERT_EQ(clone.eventsDispatched(), original.eventsDispatched());

    Tick until = original.now() + 5 * cfg.epochLen;
    original.run(until);
    clone.run(until);

    EXPECT_EQ(clone.now(), original.now());
    EXPECT_EQ(clone.eventsDispatched(), original.eventsDispatched());
    CounterSnapshot a = original.snapshot();
    CounterSnapshot b = clone.snapshot();
    EXPECT_EQ(a.llc.accesses, b.llc.accesses);
    EXPECT_EQ(a.llc.hits, b.llc.hits);
    EXPECT_EQ(a.mem.readReqs, b.mem.readReqs);
    EXPECT_EQ(a.mem.writeReqs, b.mem.writeReqs);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].tic, b.cores[i].tic) << "core " << i;
        EXPECT_EQ(a.cores[i].tla, b.cores[i].tla) << "core " << i;
    }
}

/**
 * Epoch-slicing invariance: driving the kernel one epoch at a time
 * (the runner's pattern) must dispatch the same event stream as one
 * coarse run() over the whole window.
 *
 * The granularity matters: run(until) leaves now() == until, and a
 * back-dated command exposed right after that boundary fires at the
 * bumped clock (inherited polling-era semantics the golden fixtures
 * bake in), so invariance holds at the granularity the fixtures were
 * recorded at — epoch boundaries — not for arbitrary sub-epoch
 * slicing. This pin keeps the runner's per-epoch driving equivalent
 * to a coarse run on the fixture workload.
 */
TEST(KernelDeterminism, EpochSlicingDoesNotChangeTheEventStream)
{
    SystemConfig cfg = fixtureConfig();
    std::vector<AppSpec> apps =
        expandMix(mixByName("MID1"), cfg.numCores, cfg.instrBudget);
    System coarse(cfg, apps);
    System fine(cfg, apps);

    Tick until = 8 * cfg.epochLen;
    coarse.run(until);
    while (fine.now() < until)
        fine.run(fine.now() + cfg.epochLen);

    EXPECT_EQ(coarse.now(), fine.now());
    EXPECT_EQ(coarse.eventsDispatched(), fine.eventsDispatched());
    CounterSnapshot a = coarse.snapshot();
    CounterSnapshot b = fine.snapshot();
    EXPECT_EQ(a.llc.accesses, b.llc.accesses);
    EXPECT_EQ(a.mem.readReqs, b.mem.readReqs);
    for (size_t i = 0; i < a.cores.size(); ++i)
        EXPECT_EQ(a.cores[i].tic, b.cores[i].tic) << "core " << i;
}

// --- Kernel counter digests ---
//
// The trace fixtures above cover the in-order core on whole-epoch
// run() windows without context switches. These pins cover the
// kernel paths they miss: out-of-order cores with the next-line
// prefetcher (LLC hits while misses are outstanding, prefetches
// issued on hits), context switching (traces swapped between run()
// calls), and run() windows far shorter than an epoch (a window end
// falling between an LLC hit and its return). Each folds every
// counter the kernel produces into one digest; the expected values
// were recorded before the kernel's hit fast path existed and must
// never be updated to accommodate a kernel change.

/** Fold every kernel-produced counter of @p sys into @p d. */
void
digestSystem(Digest &d, const System &sys)
{
    CounterSnapshot s = sys.snapshot();
    for (const CoreCounters &c : s.cores) {
        d.add(c.tic);
        d.add(c.tms);
        d.add(c.tla);
        d.add(c.tlm);
        d.add(c.tls);
        d.add(c.computeTicks);
        d.add(c.l2StallTicks);
        d.add(c.memStallTicks);
        d.add(c.transitionTicks);
        d.add(c.aluOps);
        d.add(c.fpuOps);
        d.add(c.branchOps);
        d.add(c.memOps);
    }
    d.add(s.llc.accesses);
    d.add(s.llc.hits);
    d.add(s.llc.misses);
    d.add(s.llc.writebacks);
    d.add(s.llc.prefetchIssued);
    d.add(s.llc.prefetchUseful);
    for (const ChannelCounters &c : s.memChannels) {
        d.add(c.readReqs);
        d.add(c.writeReqs);
        d.add(c.prefetchReqs);
        d.add(c.bankWaitTicks);
        d.add(c.busWaitTicks);
        d.add(c.serviceTicks);
        d.add(c.queueLenSum);
        d.add(c.queueSamples);
        d.add(c.rowHits);
        d.add(c.rowMisses);
        d.add(c.rowConflicts);
        d.add(c.activations);
        d.add(c.precharges);
        d.add(c.readBursts);
        d.add(c.writeBursts);
        d.add(c.refreshes);
        d.add(c.busBusyTicks);
        d.add(c.rankActiveTicks);
    }
    d.add(sys.eventsDispatched());
    d.add(sys.now());
    for (Tick t : sys.appCompletionTicks())
        d.add(t);
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

/**
 * A deterministic DVFS decision for epoch @p e: every core and the
 * memory bus step through their ladders out of phase, so transition
 * halts land on cores in every state.
 */
FreqConfig
rotatingConfig(const System &sys, int e)
{
    const SystemConfig &cfg = sys.config();
    FreqConfig fc;
    for (int i = 0; i < sys.numCores(); ++i)
        fc.coreIdx.push_back((e + 3 * i) % cfg.coreLadder.size());
    fc.memIdx = e % cfg.memLadder.size();
    return fc;
}

/**
 * Drive @p sys for @p epochs whole epochs the way the runner does
 * (DVFS decision, optional rotation every quantum, run), digesting
 * every counter after each epoch.
 */
std::uint64_t
digestEpochs(System &sys, int epochs)
{
    const SystemConfig &cfg = sys.config();
    Digest d;
    for (int e = 0; e < epochs; ++e) {
        if (cfg.schedQuantumEpochs > 0 && e > 0
            && e % cfg.schedQuantumEpochs == 0)
            sys.rotateApps();
        sys.applyConfig(rotatingConfig(sys, e));
        sys.run(sys.now() + cfg.epochLen);
        digestSystem(d, sys);
    }
    return d.value();
}

TEST(KernelPin, OutOfOrderWithNextLinePrefetchDigest)
{
    // A demand read cannot finish inside the default 7.5 ns hit
    // latency (the controller alone adds 10 ns), so a slow 60 ns LLC
    // lets completions land while their core waits out a hit: the
    // case where the hit's return must see them before it runs.
    SystemConfig cfg = fixtureConfig();
    cfg.numCores = 4;
    cfg.ooo = true;
    cfg.llc.prefetchNextLine = true;
    cfg.llc.hitLatencyNs = 60.0;
    System sys(cfg, expandMix(mixByName("MIX1"), cfg.numCores,
                              cfg.instrBudget));
    std::uint64_t got = digestEpochs(sys, 8);
    // The pin must actually reach the paths it protects.
    CounterSnapshot s = sys.snapshot();
    EXPECT_GT(s.llc.prefetchUseful, 0u);
    EXPECT_GT(s.llc.misses, 0u);
    EXPECT_EQ(hex(got), "0xa1a9d8393d5c289c");
}

TEST(KernelPin, ContextSwitchingDigest)
{
    SystemConfig cfg = fixtureConfig();
    cfg.schedQuantumEpochs = 2;
    // Small per-thread budgets, so every thread finishes inside the
    // pinned window and its completion tick is part of the digest.
    cfg.instrBudget = 400'000;
    System sys(cfg, expandMix(mixByName("MID1"), 3, cfg.instrBudget));
    ASSERT_EQ(sys.numApps(), 3);
    std::uint64_t got = digestEpochs(sys, 16);
    for (Tick t : sys.appCompletionTicks())
        EXPECT_NE(t, maxTick) << "an application never completed";
    EXPECT_EQ(hex(got), "0x089df1cd0af0199d");
}

TEST(KernelPin, SubEpochWindowsDigest)
{
    SystemConfig cfg = fixtureConfig();
    System sys(cfg, expandMix(mixByName("MID1"), cfg.numCores,
                              cfg.instrBudget));
    // Windows of 1-24 ns against a 7.5 ns LLC hit latency, so many
    // window ends fall between a hit and its return. A DVFS change
    // every 64 windows lets a mis-timed return change later state too.
    Digest d;
    Rng rng(5);
    Tick end = 2 * cfg.epochLen;
    for (int w = 0; sys.now() < end; ++w) {
        if (w % 64 == 63)
            sys.applyConfig(rotatingConfig(sys, w / 64));
        sys.run(sys.now() + (1 + rng.range(24)) * tickPerNs);
        digestSystem(d, sys);
    }
    EXPECT_EQ(hex(d.value()), "0x10e314c575a7c140");
}

} // namespace
} // namespace coscale

/**
 * @file
 * The cluster-grade battery for the fleet layer (src/cluster/):
 *  - fastcapAllocate invariants on hash-seeded random demand sets
 *    (budget never exceeded, minima respected, budget/demand
 *    monotonicity, symmetry),
 *  - arrival-spec parser round trips, every structured error kind,
 *    and a hash-driven mutation fuzzer (malformed input must throw
 *    ArrivalParseError and nothing else),
 *  - arrival-generator determinism pins (hard-coded expected streams
 *    — the cross-platform bit-identity contract),
 *  - exp::parallelFor execution semantics (every index runs exactly
 *    once, failures don't abort the pool, lowest failing index wins),
 *  - FastCapPolicy cap/fairness behaviour on a synthetic profile,
 *  - NodeSim on the shared EpochDriver: a node takes run()'s epochs
 *    (rotation included), a reboot drops a fault-delayed transition,
 *    and the driver's auditors observe (and can fail) a capped node,
 *  - ClusterSim properties: the global cap is never exceeded at any
 *    cluster epoch, per-node grants sum under the budget, queue
 *    accounting balances, and a 32-node run is byte-identical between
 *    jobs=1 and jobs=4,
 *  - golden JSONL fixtures for the 8-node FastCap cluster trace
 *    (clean + faulted twin), regenerable via COSCALE_REGEN_GOLDEN=1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "cluster/allocator.hh"
#include "cluster/arrival.hh"
#include "cluster/cluster.hh"
#include "cluster/node.hh"
#include "exp/engine.hh"
#include "obs/trace_sink.hh"
#include "policy/coscale_policy.hh"
#include "policy/fastcap.hh"
#include "policy/power_cap.hh"
#include "workloads/spec_catalogue.hh"

#include "golden_util.hh"

namespace coscale {
namespace {

using cluster::ArrivalParseError;
using cluster::ArrivalSpec;
using cluster::ArrivalStream;
using cluster::ClusterConfig;
using cluster::ClusterEpochStats;
using cluster::ClusterResult;
using cluster::ClusterSim;
using cluster::NodePowerDemand;

// --- fastcapAllocate: property tests on hash-seeded demand sets ---

/** Deterministic uniform in [lo, hi) for test-case @p k, draw @p sub. */
double
uni(std::uint64_t k, std::uint64_t sub, double lo, double hi)
{
    return lo
           + (hi - lo)
                 * cluster::arrivalUniform(0xC10C5, k,
                                           ArrivalStream::Route, sub);
}

std::vector<NodePowerDemand>
randomDemands(std::uint64_t k, int n)
{
    std::vector<NodePowerDemand> d;
    for (int i = 0; i < n; ++i) {
        NodePowerDemand nd;
        std::uint64_t s = static_cast<std::uint64_t>(i) * 3;
        nd.minW = uni(k, s, 5.0, 20.0);
        nd.maxW = nd.minW + uni(k, s + 1, 0.0, 40.0);
        nd.demand = uni(k, s + 2, 0.0, 50.0);
        d.push_back(nd);
    }
    return d;
}

double
sumMin(const std::vector<NodePowerDemand> &d)
{
    double s = 0.0;
    for (const NodePowerDemand &nd : d)
        s += nd.minW;
    return s;
}

TEST(FastCapAllocator, GrantsNeverExceedBudget)
{
    for (std::uint64_t k = 0; k < 200; ++k) {
        int n = 1 + static_cast<int>(k % 16);
        std::vector<NodePowerDemand> d = randomDemands(k, n);
        double budget = uni(k, 999, 1.0, 2.0 * sumMin(d) + 100.0);
        std::vector<double> g = cluster::fastcapAllocate(budget, d);
        ASSERT_EQ(g.size(), d.size());
        double s = 0.0;
        for (double gi : g)
            s += gi;
        EXPECT_LE(s, budget * (1.0 + 1e-9))
            << "case " << k << ": grants sum " << s << " over budget "
            << budget;
    }
}

TEST(FastCapAllocator, MinimaAndMaximaRespectedWhenFeasible)
{
    for (std::uint64_t k = 0; k < 200; ++k) {
        int n = 1 + static_cast<int>(k % 12);
        std::vector<NodePowerDemand> d = randomDemands(k, n);
        double budget = sumMin(d) + uni(k, 999, 0.0, 200.0);
        std::vector<double> g = cluster::fastcapAllocate(budget, d);
        for (int i = 0; i < n; ++i) {
            size_t u = static_cast<size_t>(i);
            EXPECT_GE(g[u], d[u].minW - 1e-9)
                << "case " << k << " node " << i;
            EXPECT_LE(g[u], std::max(d[u].minW, d[u].maxW) + 1e-9)
                << "case " << k << " node " << i;
        }
    }
}

TEST(FastCapAllocator, ScarceBudgetScalesMinimaProportionally)
{
    std::vector<NodePowerDemand> d = randomDemands(7, 6);
    double budget = 0.5 * sumMin(d);
    std::vector<double> g = cluster::fastcapAllocate(budget, d);
    for (size_t i = 0; i < d.size(); ++i)
        EXPECT_NEAR(g[i], d[i].minW * budget / sumMin(d), 1e-9);
}

TEST(FastCapAllocator, MonotoneInBudget)
{
    for (std::uint64_t k = 0; k < 100; ++k) {
        int n = 2 + static_cast<int>(k % 10);
        std::vector<NodePowerDemand> d = randomDemands(k, n);
        double b1 = uni(k, 999, 1.0, 1.8 * sumMin(d));
        double b2 = b1 + uni(k, 998, 0.0, 100.0);
        std::vector<double> g1 = cluster::fastcapAllocate(b1, d);
        std::vector<double> g2 = cluster::fastcapAllocate(b2, d);
        for (size_t i = 0; i < d.size(); ++i)
            EXPECT_GE(g2[i], g1[i] - 1e-9)
                << "case " << k << " node " << i << ": budget " << b1
                << " -> " << b2 << " shrank a grant";
    }
}

TEST(FastCapAllocator, IdenticalNodesReceiveIdenticalGrants)
{
    NodePowerDemand nd;
    nd.minW = 10.0;
    nd.maxW = 35.0;
    nd.demand = 4.0;
    std::vector<NodePowerDemand> d(8, nd);
    for (double budget : {40.0, 100.0, 200.0, 400.0}) {
        std::vector<double> g = cluster::fastcapAllocate(budget, d);
        for (size_t i = 1; i < g.size(); ++i)
            EXPECT_DOUBLE_EQ(g[i], g[0]) << "budget " << budget;
    }
}

TEST(FastCapAllocator, RaisingDemandNeverShrinksOwnGrant)
{
    for (std::uint64_t k = 0; k < 100; ++k) {
        int n = 2 + static_cast<int>(k % 8);
        std::vector<NodePowerDemand> d = randomDemands(k, n);
        double budget = sumMin(d) + uni(k, 999, 0.0, 80.0);
        size_t who = static_cast<size_t>(k) % d.size();
        std::vector<double> g1 = cluster::fastcapAllocate(budget, d);
        d[who].demand += uni(k, 997, 0.1, 20.0);
        std::vector<double> g2 = cluster::fastcapAllocate(budget, d);
        EXPECT_GE(g2[who], g1[who] - 1e-9) << "case " << k;
    }
}

TEST(FastCapAllocator, ZeroDemandNodeGetsItsMinimumOnly)
{
    std::vector<NodePowerDemand> d = randomDemands(11, 5);
    d[2].demand = 0.0;
    double budget = sumMin(d) + 60.0;
    std::vector<double> g = cluster::fastcapAllocate(budget, d);
    EXPECT_NEAR(g[2], d[2].minW, 1e-9);
}

TEST(FastCapAllocator, AllZeroDemandSharesSurplusEqually)
{
    NodePowerDemand nd;
    nd.minW = 10.0;
    nd.maxW = 100.0;
    nd.demand = 0.0;
    std::vector<NodePowerDemand> d(4, nd);
    std::vector<double> g = cluster::fastcapAllocate(80.0, d);
    for (double gi : g)
        EXPECT_NEAR(gi, 20.0, 1e-9);
}

TEST(FastCapAllocator, DeadNodeGrantsZeroAndSurvivorsReclaim)
{
    for (std::uint64_t k = 0; k < 100; ++k) {
        int n = 2 + static_cast<int>(k % 8);
        std::vector<NodePowerDemand> d = randomDemands(k, n);
        double budget = sumMin(d) + uni(k, 999, 0.0, 80.0);
        std::vector<double> fresh = cluster::fastcapAllocate(budget, d);
        size_t who = static_cast<size_t>(k) % d.size();
        d[who].trust = cluster::NodeTrust::Dead;
        std::vector<double> g = cluster::fastcapAllocate(budget, d);
        EXPECT_DOUBLE_EQ(g[who], 0.0) << "case " << k;
        // Its watts flow back to the pool: no survivor shrinks.
        for (size_t i = 0; i < d.size(); ++i) {
            if (i != who) {
                EXPECT_GE(g[i], fresh[i] - 1e-9)
                    << "case " << k << " node " << i;
            }
        }
    }
}

TEST(FastCapAllocator, StaleNodeGetsExactlyItsReservation)
{
    for (std::uint64_t k = 0; k < 100; ++k) {
        int n = 2 + static_cast<int>(k % 8);
        std::vector<NodePowerDemand> d = randomDemands(k, n);
        size_t who = static_cast<size_t>(k) % d.size();
        d[who].trust = cluster::NodeTrust::Stale;
        double reserve = std::max(d[who].minW, d[who].maxW);
        // Feasible budget: the reservation is honoured exactly — the
        // node is budgeted for the worst it could be drawing, no
        // demand share on top.
        double budget = sumMin(d) + reserve + uni(k, 999, 1.0, 80.0);
        std::vector<double> g = cluster::fastcapAllocate(budget, d);
        EXPECT_NEAR(g[who], reserve, 1e-9) << "case " << k;
        double s = 0.0;
        for (double gi : g)
            s += gi;
        EXPECT_LE(s, budget * (1.0 + 1e-9)) << "case " << k;
    }
}

TEST(FastCapAllocator, StaleReservationScalesWhenBudgetIsScarce)
{
    // Mid-churn the budget stays a hard invariant: when it cannot
    // cover the floors (stale reservations included), everything
    // scales down proportionally instead of overshooting.
    std::vector<NodePowerDemand> d = randomDemands(13, 6);
    d[1].trust = cluster::NodeTrust::Stale;
    double reserve = std::max(d[1].minW, d[1].maxW);
    double floors = sumMin(d) - d[1].minW + reserve;
    double budget = 0.5 * floors;
    std::vector<double> g = cluster::fastcapAllocate(budget, d);
    double s = 0.0;
    for (double gi : g)
        s += gi;
    EXPECT_LE(s, budget * (1.0 + 1e-9));
    EXPECT_NEAR(g[1], reserve * budget / floors, 1e-9);
}

// --- largestRemainderSplit: apportionment properties ---

std::uint64_t
splitSum(const std::vector<std::uint64_t> &v)
{
    std::uint64_t s = 0;
    for (std::uint64_t x : v)
        s += x;
    return s;
}

TEST(LargestRemainderSplit, ConservesTheTotalExactly)
{
    for (std::uint64_t k = 0; k < 200; ++k) {
        int n = 1 + static_cast<int>(k % 12);
        std::vector<double> w;
        for (int i = 0; i < n; ++i)
            w.push_back(uni(k, static_cast<std::uint64_t>(i) + 50,
                            0.0, 10.0));
        std::uint64_t total = k * 37 % 1000;
        std::vector<std::uint64_t> g = cluster::largestRemainderSplit(
            total, w, k, (k % 2) == 0);
        ASSERT_EQ(g.size(), w.size());
        EXPECT_EQ(splitSum(g), total) << "case " << k;
    }
}

TEST(LargestRemainderSplit, ZeroWeightNodesGetNothing)
{
    std::vector<double> w = {0.0, 3.0, 0.0, 1.0};
    std::vector<std::uint64_t> g =
        cluster::largestRemainderSplit(100, w, 0, false);
    EXPECT_EQ(g[0], 0u);
    EXPECT_EQ(g[2], 0u);
    EXPECT_EQ(splitSum(g), 100u);
    // Proportionality among the positive weights.
    EXPECT_EQ(g[1], 75u);
    EXPECT_EQ(g[3], 25u);
}

TEST(LargestRemainderSplit, NegativeAndNonFiniteWeightsAreSanitized)
{
    std::vector<double> w = {-5.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             2.0};
    std::vector<std::uint64_t> g =
        cluster::largestRemainderSplit(40, w, 0, false);
    EXPECT_EQ(g[0], 0u);
    EXPECT_EQ(g[1], 0u);
    EXPECT_EQ(g[2], 0u);
    EXPECT_EQ(g[3], 40u);
}

TEST(LargestRemainderSplit, AllEqualWeightsSplitWithinOne)
{
    for (std::uint64_t total : {0ull, 1ull, 7ull, 8ull, 103ull}) {
        std::vector<double> w(8, 3.5);
        std::vector<std::uint64_t> g = cluster::largestRemainderSplit(
            total, w, 0, false);
        EXPECT_EQ(splitSum(g), total);
        std::uint64_t lo = *std::min_element(g.begin(), g.end());
        std::uint64_t hi = *std::max_element(g.begin(), g.end());
        EXPECT_LE(hi - lo, 1u) << "total " << total;
    }
}

TEST(LargestRemainderSplit, AllZeroWeightsFallBackToEqual)
{
    std::vector<double> w(5, 0.0);
    std::vector<std::uint64_t> g =
        cluster::largestRemainderSplit(10, w, 0, false);
    EXPECT_EQ(splitSum(g), 10u);
    for (std::uint64_t gi : g)
        EXPECT_EQ(gi, 2u);
}

TEST(LargestRemainderSplit, SingleSurvivorTakesEverything)
{
    // The self-healing routing case: every node but one is masked
    // out, so the whole epoch's arrivals land on the survivor.
    for (size_t who = 0; who < 6; ++who) {
        std::vector<double> w(6, 0.0);
        w[who] = 0.25;
        std::vector<std::uint64_t> g =
            cluster::largestRemainderSplit(57, w, 3, true);
        for (size_t i = 0; i < g.size(); ++i)
            EXPECT_EQ(g[i], i == who ? 57u : 0u) << "survivor " << who;
    }
}

TEST(LargestRemainderSplit, RotationMovesLeftoversNotTotals)
{
    std::vector<double> w(4, 1.0);
    // 4 nodes, 6 units: everyone gets 1, two leftovers rotate.
    std::vector<std::uint64_t> r0 =
        cluster::largestRemainderSplit(6, w, 0, true);
    std::vector<std::uint64_t> r1 =
        cluster::largestRemainderSplit(6, w, 1, true);
    EXPECT_EQ(splitSum(r0), 6u);
    EXPECT_EQ(splitSum(r1), 6u);
    EXPECT_NE(r0, r1);
}

// --- arrival-spec parser: round trips, error kinds, fuzzing ---

TEST(ArrivalParse, FormatRoundTrips)
{
    ArrivalSpec s;
    s.ratePerSec = 120000.0;
    s.diurnalAmp = 0.4;
    s.diurnalPeriod = 8;
    s.burstProb = 0.25;
    s.burstMult = 3.0;
    s.instrPerRequest = 5e5;
    s.sloSecs = 1.5e-3;
    s.seed = 42;
    ArrivalSpec r = cluster::parseArrivalSpec(
        cluster::formatArrivalSpec(s));
    EXPECT_DOUBLE_EQ(r.ratePerSec, s.ratePerSec);
    EXPECT_DOUBLE_EQ(r.diurnalAmp, s.diurnalAmp);
    EXPECT_EQ(r.diurnalPeriod, s.diurnalPeriod);
    EXPECT_DOUBLE_EQ(r.burstProb, s.burstProb);
    EXPECT_DOUBLE_EQ(r.burstMult, s.burstMult);
    EXPECT_DOUBLE_EQ(r.instrPerRequest, s.instrPerRequest);
    EXPECT_DOUBLE_EQ(r.sloSecs, s.sloSecs);
    EXPECT_EQ(r.seed, s.seed);
}

TEST(ArrivalParse, UnsetKeysKeepDefaults)
{
    ArrivalSpec r = cluster::parseArrivalSpec("rate=1000");
    ArrivalSpec def;
    EXPECT_DOUBLE_EQ(r.ratePerSec, 1000.0);
    EXPECT_DOUBLE_EQ(r.diurnalAmp, def.diurnalAmp);
    EXPECT_EQ(r.diurnalPeriod, def.diurnalPeriod);
    EXPECT_DOUBLE_EQ(r.burstMult, def.burstMult);
    EXPECT_EQ(r.seed, def.seed);
}

/** Expect parse to throw @p kind and return the caught error. */
ArrivalParseError
expectParseError(const std::string &text, ArrivalParseError::Kind kind)
{
    try {
        cluster::parseArrivalSpec(text);
    } catch (const ArrivalParseError &e) {
        EXPECT_EQ(static_cast<int>(e.kind()), static_cast<int>(kind))
            << "spec '" << text << "': " << e.what();
        EXPECT_LE(e.charOffset(), text.size());
        return e;
    }
    ADD_FAILURE() << "spec '" << text << "' parsed without error";
    return ArrivalParseError(kind, "", 0, "");
}

TEST(ArrivalParse, StructuredErrorKinds)
{
    expectParseError("", ArrivalParseError::Kind::EmptySpec);
    expectParseError("rate", ArrivalParseError::Kind::BadToken);
    expectParseError("=5", ArrivalParseError::Kind::BadToken);
    expectParseError("rate=", ArrivalParseError::Kind::BadToken);
    expectParseError("rate=100,,", ArrivalParseError::Kind::BadToken);
    expectParseError("bogus=3", ArrivalParseError::Kind::UnknownKey);
    expectParseError("rate=abc", ArrivalParseError::Kind::BadValue);
    expectParseError("seed=-3", ArrivalParseError::Kind::BadValue);
    // strtoull skips whitespace and accepts a sign: these must not
    // wrap to 2^64 - 5 and 2^64 - 1.
    expectParseError("seed= -5", ArrivalParseError::Kind::BadValue);
    expectParseError("period= -1", ArrivalParseError::Kind::BadValue);
    expectParseError("seed=\t-5", ArrivalParseError::Kind::BadValue);
    expectParseError("seed=+5", ArrivalParseError::Kind::BadValue);
    expectParseError("seed= 5", ArrivalParseError::Kind::BadValue);
    expectParseError("rate=nan", ArrivalParseError::Kind::BadValue);
    expectParseError("rate=-5", ArrivalParseError::Kind::OutOfRange);
    expectParseError("diurnal=1.5",
                     ArrivalParseError::Kind::OutOfRange);
    expectParseError("period=0", ArrivalParseError::Kind::OutOfRange);
    expectParseError("burstx=0.5",
                     ArrivalParseError::Kind::OutOfRange);
    expectParseError("rate=1,rate=2",
                     ArrivalParseError::Kind::DuplicateKey);
}

TEST(ArrivalParse, ErrorCarriesTokenAndOffset)
{
    ArrivalParseError e = expectParseError(
        "rate=4000,bogus=3", ArrivalParseError::Kind::UnknownKey);
    EXPECT_EQ(e.token(), "bogus=3");
    EXPECT_EQ(e.charOffset(), 10u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
}

TEST(ArrivalParse, FuzzedSpecsThrowOnlyArrivalParseError)
{
    const std::string base =
        "rate=4000,diurnal=0.4,period=64,burst=0.05,burstx=4,"
        "ipr=250000,slo=0.002,seed=7";
    const std::string pool = "=,.-+eE019xraten \t%";
    int parsed = 0;
    int rejected = 0;
    for (std::uint64_t k = 0; k < 2000; ++k) {
        std::string s = base;
        // 1-4 hash-driven edits: replace, insert, or delete a char.
        int edits = 1 + static_cast<int>(
            cluster::arrivalHash(1, k, ArrivalStream::Route, 0) % 4);
        for (int e = 0; e < edits; ++e) {
            std::uint64_t h = cluster::arrivalHash(
                2, k, ArrivalStream::Route,
                static_cast<std::uint64_t>(e));
            size_t at = s.empty() ? 0 : (h % s.size());
            char c = pool[(h >> 16) % pool.size()];
            switch ((h >> 32) % 3) {
              case 0:
                if (!s.empty())
                    s[at] = c;
                break;
              case 1:
                s.insert(at, 1, c);
                break;
              default:
                if (!s.empty())
                    s.erase(at, 1);
                break;
            }
        }
        try {
            ArrivalSpec spec = cluster::parseArrivalSpec(s);
            // Whatever parsed must satisfy the documented ranges.
            EXPECT_GT(spec.ratePerSec, 0.0) << "spec '" << s << "'";
            EXPECT_GE(spec.diurnalAmp, 0.0);
            EXPECT_LE(spec.diurnalAmp, 1.0);
            EXPECT_GE(spec.burstMult, 1.0);
            parsed += 1;
        } catch (const ArrivalParseError &e) {
            EXPECT_LE(e.charOffset(), s.size())
                << "spec '" << s << "'";
            rejected += 1;
        }
        // Any other exception type escapes and fails the test.
    }
    // The mutator must exercise both paths to mean anything.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 100);
}

// --- arrival generator: determinism pins and distributions ---

ArrivalSpec
pinnedSpec()
{
    ArrivalSpec s;
    s.ratePerSec = 120000.0;
    s.diurnalAmp = 0.4;
    s.diurnalPeriod = 8;
    s.burstProb = 0.25;
    s.burstMult = 3.0;
    s.seed = 42;
    return s;
}

TEST(ArrivalStreamPin, ArrivalsMatchPinnedConstants)
{
    // Generated once from this spec at epoch_secs = 1e-4 and pinned:
    // the same seed must reproduce this exact stream on every
    // platform, compiler, and worker count (golden fixtures and the
    // serial-vs-parallel identity both stand on this).
    const std::uint64_t want[16] = {12, 16, 17, 46, 36, 26, 21, 9,
                                    12, 16, 50, 16, 12, 26, 21, 9};
    ArrivalSpec s = pinnedSpec();
    for (std::uint64_t e = 0; e < 16; ++e)
        EXPECT_EQ(cluster::arrivalsInEpoch(s, e, 1e-4), want[e])
            << "epoch " << e;
}

TEST(ArrivalStreamPin, BurstGateMatchesPinnedConstants)
{
    const bool want[16] = {false, false, false, true, true, true,
                           true,  false, false, false, true, false,
                           false, true,  true,  false};
    ArrivalSpec s = pinnedSpec();
    for (std::uint64_t e = 0; e < 16; ++e)
        EXPECT_EQ(cluster::isBurstEpoch(s, e), want[e])
            << "epoch " << e;
}

TEST(ArrivalStreamPin, NodeSeedHashMatchesPinnedConstant)
{
    EXPECT_EQ(cluster::arrivalHash(7, 3, ArrivalStream::NodeSeed),
              7224480963598715247ULL);
}

TEST(ArrivalGenerator, SameSeedSameStreamDifferentSeedDiffers)
{
    ArrivalSpec a = pinnedSpec();
    ArrivalSpec b = pinnedSpec();
    bool differs = false;
    for (std::uint64_t e = 0; e < 64; ++e) {
        EXPECT_EQ(cluster::arrivalsInEpoch(a, e, 1e-4),
                  cluster::arrivalsInEpoch(b, e, 1e-4));
    }
    b.seed = 43;
    for (std::uint64_t e = 0; e < 64 && !differs; ++e)
        differs = cluster::arrivalsInEpoch(a, e, 1e-4)
                  != cluster::arrivalsInEpoch(b, e, 1e-4);
    EXPECT_TRUE(differs);
}

TEST(ArrivalGenerator, DiurnalWaveShape)
{
    EXPECT_DOUBLE_EQ(cluster::diurnalWave(0, 64), 0.0);
    EXPECT_DOUBLE_EQ(cluster::diurnalWave(16, 64), 1.0);
    EXPECT_DOUBLE_EQ(cluster::diurnalWave(32, 64), 0.0);
    EXPECT_DOUBLE_EQ(cluster::diurnalWave(48, 64), -1.0);
    for (std::uint64_t e = 0; e < 200; ++e) {
        double w = cluster::diurnalWave(e, 64);
        EXPECT_LE(std::abs(w), 1.0) << "epoch " << e;
        EXPECT_DOUBLE_EQ(w, cluster::diurnalWave(e + 64, 64));
    }
    EXPECT_DOUBLE_EQ(cluster::diurnalWave(17, 0), 0.0);
}

TEST(ArrivalGenerator, RateStaysInsideEnvelope)
{
    ArrivalSpec s = pinnedSpec();
    double lo = s.ratePerSec * (1.0 - s.diurnalAmp);
    double hi = s.ratePerSec * (1.0 + s.diurnalAmp) * s.burstMult;
    for (std::uint64_t e = 0; e < 500; ++e) {
        double r = cluster::arrivalRatePerSec(s, e);
        EXPECT_GE(r, lo * (1.0 - 1e-12)) << "epoch " << e;
        EXPECT_LE(r, hi * (1.0 + 1e-12)) << "epoch " << e;
    }
}

TEST(ArrivalGenerator, LongRunThroughputMatchesRate)
{
    // Plain Poisson-ish stream: no diurnal, no bursts. The fractional
    // coin must keep long-run throughput at rate * epoch_secs.
    ArrivalSpec s;
    s.ratePerSec = 23456.0;
    s.seed = 9;
    const double epoch_secs = 1e-4;
    double total = 0.0;
    const int n = 20000;
    for (int e = 0; e < n; ++e)
        total += static_cast<double>(cluster::arrivalsInEpoch(
            s, static_cast<std::uint64_t>(e), epoch_secs));
    double mean = total / n;
    EXPECT_NEAR(mean, s.ratePerSec * epoch_secs,
                0.02 * s.ratePerSec * epoch_secs);
}

TEST(ArrivalGenerator, BurstFrequencyTracksProbability)
{
    ArrivalSpec s = pinnedSpec();
    int bursts = 0;
    const int n = 4000;
    for (int e = 0; e < n; ++e)
        bursts += cluster::isBurstEpoch(
                      s, static_cast<std::uint64_t>(e))
                      ? 1
                      : 0;
    double frac = static_cast<double>(bursts) / n;
    EXPECT_NEAR(frac, s.burstProb, 0.05);
}

// --- exp::parallelFor: the shared fan-out primitive ---

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    const std::size_t n = 257;
    std::vector<int> hits(n, 0);
    std::atomic<int> calls{0};
    exp::parallelFor(4, n, [&](std::size_t i) {
        hits[i] += 1; // each index visits exactly one worker
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, SerialAndParallelProduceIdenticalResults)
{
    const std::size_t n = 100;
    std::vector<std::uint64_t> serial(n, 0);
    std::vector<std::uint64_t> parallel(n, 0);
    exp::parallelFor(1, n, [&](std::size_t i) {
        serial[i] = fault::faultMix64(i);
    });
    exp::parallelFor(4, n, [&](std::size_t i) {
        parallel[i] = fault::faultMix64(i);
    });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, LowestFailingIndexWinsAndAllIndicesStillRun)
{
    const std::size_t n = 64;
    std::vector<int> hits(n, 0);
    auto body = [&](std::size_t i) {
        hits[i] += 1;
        if (i == 9 || i == 2 || i == 40)
            throw std::runtime_error(std::to_string(i));
    };
    try {
        exp::parallelFor(4, n, body);
        FAIL() << "parallelFor swallowed the exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "2");
    }
    // No early abort: the deterministic executed-index set is ALL of
    // them, failures included.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, SerialPathPropagatesFirstFailure)
{
    std::vector<int> hits(8, 0);
    try {
        exp::parallelFor(1, 8, [&](std::size_t i) {
            hits[i] += 1;
            if (i >= 3)
                throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "serial parallelFor swallowed the exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "3");
    }
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, ZeroIterationsIsANoOp)
{
    std::atomic<int> calls{0};
    exp::parallelFor(4, 0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

// --- FastCapPolicy on a synthetic profile ---

CoreProfile
mkCore(double cyc, double alpha, double beta, double stall_ns)
{
    CoreProfile c;
    c.cyclesPerInstr = cyc;
    c.alpha = alpha;
    c.tpiL2Secs = 7.5e-9;
    c.beta = beta;
    c.measuredMemStallSecs = stall_ns * 1e-9;
    c.instrs = 100'000;
    c.aluPerInstr = 0.4;
    c.fpuPerInstr = 0.1;
    c.branchPerInstr = 0.15;
    c.memOpPerInstr = 0.35;
    c.llcAccessPerInstr = alpha + beta;
    c.memReadPerInstr = beta;
    return c;
}

struct FastCapFixture : ::testing::Test
{
    FastCapFixture()
        : coreLadder(defaultCoreLadder(10)),
          memLadder(defaultMemLadder(10)),
          perf(DramTimingParams{}, 10.0, 7.5), power(PowerParams{}),
          em(&perf, &power, &coreLadder, &memLadder)
    {
        prof.windowTicks = 300 * tickPerUs;
        for (int i = 0; i < 4; ++i) {
            double mix = static_cast<double>(i) / 3.0;
            prof.cores.push_back(mkCore(1.5 - 0.6 * mix,
                                        0.005 + 0.02 * mix,
                                        0.0005 + 0.012 * mix,
                                        60.0 + 30.0 * mix));
        }
        prof.mem.profiledBusFreq = 800 * MHz;
        prof.mem.wBankSecs = 3e-9;
        prof.mem.wBusSecs = 2e-9;
        prof.mem.measuredStallSecs =
            perf.serviceSecs(800 * MHz) + 5e-9;
        prof.mem.busUtil = 0.25;
        prof.mem.rankActiveFrac = 0.3;
        prof.mem.writeFrac = 0.25;
        prof.mem.trafficPerSec = 2e8;
        prof.profiledCoreIdx.assign(4, 0);
        prof.profiledMemIdx = 0;
    }

    int n() const { return static_cast<int>(prof.cores.size()); }

    FreqConfig
    allMin() const
    {
        FreqConfig c;
        c.coreIdx.assign(static_cast<size_t>(n()),
                         static_cast<int>(coreLadder.size()) - 1);
        c.memIdx = static_cast<int>(memLadder.size()) - 1;
        return c;
    }

    double
    maxPower() const
    {
        return em.systemPower(prof, FreqConfig::allMax(n()));
    }

    double
    minPower() const
    {
        return em.systemPower(prof, allMin());
    }

    static const Tick epochLen = 5000 * tickPerUs;

    FreqLadder coreLadder;
    FreqLadder memLadder;
    PerfModel perf;
    PowerModel power;
    EnergyModel em;
    SystemProfile prof;
};

TEST_F(FastCapFixture, GenerousCapRunsFlatOut)
{
    FastCapPolicy p(n(), 0.10, maxPower() * 1.2);
    FreqConfig cfg =
        p.decide(prof, em, FreqConfig::allMax(n()), epochLen);
    EXPECT_EQ(cfg.coreIdx, FreqConfig::allMax(n()).coreIdx);
    EXPECT_EQ(cfg.memIdx, 0);
    EXPECT_FALSE(p.lastDecisionOverCap());
    EXPECT_DOUBLE_EQ(em.relativeTime(prof, cfg), 1.0);
}

TEST_F(FastCapFixture, DecisionFitsUnderTheCap)
{
    double cap = 0.5 * (minPower() + maxPower());
    FastCapPolicy p(n(), 0.10, cap);
    FreqConfig cfg =
        p.decide(prof, em, FreqConfig::allMax(n()), epochLen);
    EXPECT_FALSE(p.lastDecisionOverCap());
    EXPECT_LE(em.systemPower(prof, cfg), cap);
    EXPECT_GE(em.systemPower(prof, cfg), minPower());
}

TEST_F(FastCapFixture, SpendsHeadroomAtLeastAsWellAsPowerCap)
{
    // The fairness-upgrade phase must never do worse than the plain
    // capping descent it starts from.
    for (double f : {0.3, 0.5, 0.7, 0.9}) {
        double cap = minPower() + f * (maxPower() - minPower());
        FastCapPolicy fc(n(), 0.10, cap);
        PowerCapPolicy pc(cap);
        FreqConfig a =
            fc.decide(prof, em, FreqConfig::allMax(n()), epochLen);
        FreqConfig b =
            pc.decide(prof, em, FreqConfig::allMax(n()), epochLen);
        EXPECT_LE(em.relativeTime(prof, a),
                  em.relativeTime(prof, b) + 1e-12)
            << "cap fraction " << f;
        EXPECT_LE(em.systemPower(prof, a), cap);
    }
}

TEST_F(FastCapFixture, PerformanceIsMonotoneInTheCap)
{
    // FastCap's fairness rule: a larger budget share can only speed a
    // node up. (The cluster allocator's budget monotonicity composes
    // with this into fleet-level fairness.)
    double prev_rel = 1e9;
    for (double f : {0.2, 0.4, 0.6, 0.8, 1.1}) {
        double cap = minPower() + f * (maxPower() - minPower());
        FastCapPolicy p(n(), 0.10, cap);
        FreqConfig cfg =
            p.decide(prof, em, FreqConfig::allMax(n()), epochLen);
        double rel = em.relativeTime(prof, cfg);
        EXPECT_LE(rel, prev_rel + 1e-12) << "cap fraction " << f;
        prev_rel = rel;
    }
}

TEST_F(FastCapFixture, InfeasibleCapPinsAllMinAndFlagsOverCap)
{
    FastCapPolicy p(n(), 0.10, minPower() * 0.5);
    FreqConfig cfg =
        p.decide(prof, em, FreqConfig::allMax(n()), epochLen);
    EXPECT_TRUE(p.lastDecisionOverCap());
    EXPECT_EQ(cfg.coreIdx, allMin().coreIdx);
    EXPECT_EQ(cfg.memIdx, allMin().memIdx);
}

TEST_F(FastCapFixture, SetPowerCapRetargetsTheNextDecision)
{
    FastCapPolicy p(n(), 0.10, maxPower() * 1.2);
    FreqConfig wide =
        p.decide(prof, em, FreqConfig::allMax(n()), epochLen);
    double tight = 0.4 * (minPower() + maxPower()) / 2.0
                   + 0.6 * minPower();
    p.setPowerCap(tight);
    EXPECT_DOUBLE_EQ(p.cap(), tight);
    FreqConfig narrow =
        p.decide(prof, em, FreqConfig::allMax(n()), epochLen);
    EXPECT_LE(em.systemPower(prof, narrow), tight);
    EXPECT_LT(em.systemPower(prof, narrow),
              em.systemPower(prof, wide));
}

// --- NodeSim: the epoch loop ---

/**
 * Keeps every DVFS knob, never speaks the way dimension (returns an
 * empty wayIdx), and records the configuration each epoch reports as
 * applied.
 */
class WaylessSpyPolicy final : public Policy
{
  public:
    explicit WaylessSpyPolicy(FreqConfig *applied) : applied(applied) {}

    std::string name() const override { return "wayless-spy"; }

    FreqConfig
    decide(const SystemProfile &, const EnergyModel &,
           const FreqConfig &current, Tick) override
    {
        FreqConfig d = current;
        d.wayIdx.clear();
        return d;
    }

    void
    observeEpoch(const EpochObservation &obs, const EnergyModel &) override
    {
        *applied = obs.applied;
    }

  private:
    FreqConfig *applied;
};

TEST(NodeSim, WaylessPolicyHoldsTheInstalledPartition)
{
    // 8 cores on 16 ways clear the System's ways >= 2 * cores gate,
    // so the node boots with an installed partition.
    SystemConfig cfg = makeScaledConfig(0.02);
    cfg.numCores = 8;
    cfg.power.numCores = 8;
    cfg.knobs.llcWays = true;
    cfg.warmupEpochs = 0;
    std::vector<AppSpec> apps =
        expandMix(mixByName("MID1"), cfg.numCores, cfg.instrBudget);
    FreqConfig applied;
    PolicyFactory spy = [&applied] {
        return std::make_unique<WaylessSpyPolicy>(&applied);
    };
    cluster::NodeSim node(0, cfg, apps, spy, fault::FaultPlan{});
    ASSERT_FALSE(node.system().currentConfig().wayIdx.empty());

    for (int e = 0; e < 2; ++e) {
        node.advanceEpoch(0.0);
        FreqConfig running = node.system().currentConfig();
        EXPECT_EQ(applied.coreIdx, running.coreIdx);
        EXPECT_EQ(applied.memIdx, running.memIdx);
        EXPECT_EQ(applied.chanIdx, running.chanIdx);
        EXPECT_EQ(applied.wayIdx, running.wayIdx);
    }
}

/**
 * Asks for all-max every epoch and records the configuration it
 * profiled under.
 */
class AllMaxSpyPolicy final : public Policy
{
  public:
    explicit AllMaxSpyPolicy(FreqConfig *profiled) : profiled(profiled) {}

    std::string name() const override { return "all-max-spy"; }

    FreqConfig
    decide(const SystemProfile &, const EnergyModel &,
           const FreqConfig &current, Tick) override
    {
        *profiled = current;
        return FreqConfig::allMax(static_cast<int>(current.coreIdx.size()));
    }

    void observeEpoch(const EpochObservation &, const EnergyModel &) override
    {
    }

  private:
    FreqConfig *profiled;
};

TEST(NodeSim, RebootDiscardsADelayedTransition)
{
    // DESIGN.md §12: a crashed node reboots into all-min. A transition
    // the fault layer delayed before the crash must not land after it.
    SystemConfig cfg = cluster::makeNodeConfig(0.02, 2);
    cfg.warmupEpochs = 0;
    std::vector<AppSpec> apps =
        expandMix(mixByName("MID1"), cfg.numCores, cfg.instrBudget);
    fault::FaultPlan faults;
    faults.transitionDelayProb = 1.0;
    FreqConfig profiled;
    PolicyFactory spy = [&profiled] {
        return std::make_unique<AllMaxSpyPolicy>(&profiled);
    };
    cluster::NodeSim node(0, cfg, apps, spy, faults);
    FreqConfig all_min;
    all_min.coreIdx.assign(static_cast<size_t>(cfg.numCores),
                           cfg.coreLadder.size() - 1);
    all_min.memIdx = cfg.memLadder.size() - 1;
    node.presetConfig(all_min);

    node.advanceEpoch(0.0); // asks for all-max; the transition is delayed
    ASSERT_EQ(profiled.memIdx, all_min.memIdx);
    node.crash(1, 0);
    node.beginEpoch();
    ASSERT_EQ(node.phase(), cluster::NodePhase::Up);

    node.advanceEpoch(0.0);
    EXPECT_EQ(profiled.memIdx, all_min.memIdx);
    EXPECT_EQ(profiled.coreIdx, all_min.coreIdx);
}

TEST(NodeSim, TakesTheSameEpochsAsRun)
{
    // Three threads on two cores rotate every second epoch: a node
    // must take run()'s epochs, rotation included.
    SystemConfig cfg = cluster::makeNodeConfig(0.02, 2);
    cfg.schedQuantumEpochs = 2;
    std::vector<AppSpec> apps =
        expandMix(mixByName("MID1"), 3, cfg.instrBudget);
    PolicyFactory coscale = [] {
        return std::make_unique<CoScalePolicy>(3, 0.10);
    };

    VectorTraceSink sink;
    RunResult r = coscale::run(
        RunRequest::forApps(cfg, "MID1x3", apps).with(coscale).withTrace(
            sink));
    std::vector<std::uint64_t> traced;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.category() == "epoch" && ev.name() == "epoch")
            traced.push_back(ev.find("instrs")->u64);
    }
    ASSERT_GE(traced.size(), 6u);

    cluster::NodeSim node(0, cfg, apps, coscale, fault::FaultPlan{});
    for (size_t e = 0; e < 6; ++e) {
        EXPECT_EQ(node.advanceEpoch(0.0).instrs, traced[e])
            << "epoch " << e;
        FreqConfig installed = node.system().currentConfig();
        EXPECT_EQ(installed.coreIdx, r.epochs[e].applied.coreIdx);
        EXPECT_EQ(installed.memIdx, r.epochs[e].applied.memIdx);
    }
}

TEST(EpochDriver, AuditsACappedNodeAndTheAuditBites)
{
    SystemConfig cfg = cluster::makeNodeConfig(0.02, 2);
    std::vector<AppSpec> apps =
        expandMix(mixByName("MID1"), cfg.numCores, cfg.instrBudget);
    {
        System sys(cfg, apps);
        FastCapPolicy fastcap(cfg.numCores, 0.10, 24.0);
        AuditSet audit(sys.numApps(), fastcap.slackGamma());
        EpochDriver driver(sys, fastcap, fault::FaultPlan{}, &audit);
        for (int e = 0; e < 4; ++e)
            driver.step();
        EXPECT_GT(audit.dram.commandsAudited(), 0u);
        EXPECT_EQ(audit.energy.windowsAudited(), 8u);
        EXPECT_EQ(audit.energy.candidatesAudited(), 4u);
        EXPECT_EQ(audit.perf.epochsAudited(), 4u);
    }
    // No model predicts a measured epoch exactly: a zero residual
    // bound must trip on the first step.
    ScopedPanicThrow guard;
    System sys(cfg, apps);
    FastCapPolicy fastcap(cfg.numCores, 0.10, 24.0);
    PerfAuditConfig strict;
    strict.residualHard = 0.0;
    AuditSet audit(sys.numApps(), fastcap.slackGamma(), strict);
    EpochDriver driver(sys, fastcap, fault::FaultPlan{}, &audit);
    EXPECT_THROW(driver.step(), CheckFailure);
}

// --- ClusterSim: fleet properties, byte identity, goldens ---

/** A small fleet sized for test runtime (2-core nodes, 2% scale). */
ClusterConfig
testCluster(int nodes, int epochs)
{
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.node = cluster::makeNodeConfig(0.02, 2);
    cfg.mix = "MID1";
    cfg.epochs = epochs;
    cfg.seed = 7;
    double epoch_secs = ticksToSeconds(cfg.node.epochLen);
    cfg.arrival.ratePerSec =
        1.5 * static_cast<double>(nodes) / epoch_secs;
    cfg.arrival.diurnalAmp = 0.25;
    cfg.arrival.diurnalPeriod =
        static_cast<std::uint64_t>(std::max(epochs, 4));
    cfg.arrival.burstProb = 0.1;
    cfg.arrival.sloSecs = 6.0 * epoch_secs;
    return cfg;
}

/**
 * A feasible budget for @p cfg: run its uncapped CoScale twin once
 * and place the budget @p frac of the way from the all-min floor to
 * the natural draw. Deterministic (a pure function of the config).
 */
double
feasibleBudget(const ClusterConfig &cfg, double frac)
{
    ClusterConfig probe = cfg;
    probe.policy = "coscale";
    probe.budgetW = 0.0;
    ClusterSim sim(probe);
    ClusterResult r = sim.run();
    double mean = 0.0;
    for (const ClusterEpochStats &e : r.epochs)
        mean += e.powerW;
    mean /= static_cast<double>(r.epochs.size());
    double floor_w = 0.0;
    for (const cluster::NodeEpochOutcome &o : sim.lastOutcomes())
        floor_w += o.minW;
    floor_w *= 1.02;
    return floor_w + frac * (mean - floor_w);
}

/** Run @p cfg with a JSONL trace attached; returns trace + report. */
std::string
runTraced(const ClusterConfig &cfg)
{
    std::ostringstream trace;
    JsonlTraceSink sink(trace);
    ClusterSim sim(cfg);
    sim.attachObs(&sink, nullptr);
    ClusterResult r = sim.run();
    sink.finish();
    std::ostringstream report;
    cluster::writeClusterJsonReport(cfg, r, report);
    return trace.str() + report.str();
}

TEST(ClusterSim, UncappedRunBalancesItsBooks)
{
    ClusterConfig cfg = testCluster(4, 4);
    cfg.policy = "coscale";
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    ASSERT_EQ(r.epochs.size(), 4u);
    EXPECT_GT(r.worstPowerW, 0.0);
    EXPECT_EQ(r.capViolationEpochs, 0u); // cap disarmed
    EXPECT_GT(r.totalArrivals, 0u);
    EXPECT_EQ(r.totalArrivals, r.totalCompleted + r.finalQueued);
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    for (const ClusterEpochStats &e : r.epochs) {
        EXPECT_FALSE(e.capExceeded);
        EXPECT_DOUBLE_EQ(e.grantSumW, 0.0);
        arrivals += e.arrivals;
        completed += e.completed;
        // Running balance: everything that arrived is either done or
        // still queued, every epoch.
        EXPECT_EQ(arrivals, completed + e.queued)
            << "epoch " << e.epoch;
    }
    EXPECT_EQ(arrivals, r.totalArrivals);
    EXPECT_EQ(completed, r.totalCompleted);
    EXPECT_GT(r.totalEvents, 0u);
}

TEST(ClusterSim, FastCapNeverExceedsTheGlobalCap)
{
    // The headline property: with the allocator armed, measured
    // cluster power fits under the budget at EVERY cluster epoch, and
    // the per-node grants never over-commit it.
    ClusterConfig cfg = testCluster(6, 6);
    cfg.policy = "fastcap";
    cfg.budgetW = feasibleBudget(cfg, 0.6);
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    EXPECT_EQ(r.capViolationEpochs, 0u);
    EXPECT_LE(r.worstPowerW, cfg.budgetW);
    for (const ClusterEpochStats &e : r.epochs) {
        EXPECT_FALSE(e.capExceeded) << "epoch " << e.epoch;
        EXPECT_LE(e.powerW, cfg.budgetW) << "epoch " << e.epoch;
        EXPECT_LE(e.grantSumW, cfg.budgetW * (1.0 + 1e-9))
            << "epoch " << e.epoch;
    }
    double grant_sum = 0.0;
    for (const cluster::NodeEpochOutcome &o : sim.lastOutcomes())
        grant_sum += o.grantW;
    EXPECT_LE(grant_sum, cfg.budgetW * (1.0 + 1e-9));
}

TEST(ClusterSim, UncoordinatedFleetViolatesTheSameCap)
{
    // The contrast run bench_cluster banks on: per-node CoScale alone
    // (no allocator obedience) sails through the budget FastCap
    // respects.
    ClusterConfig cfg = testCluster(6, 6);
    cfg.budgetW = feasibleBudget(cfg, 0.6);
    cfg.policy = "fastcap";
    ClusterSim capped(cfg);
    ClusterResult rc = capped.run();
    EXPECT_EQ(rc.capViolationEpochs, 0u);
    cfg.policy = "coscale";
    ClusterSim wild(cfg);
    ClusterResult rw = wild.run();
    EXPECT_GT(rw.capViolationEpochs, 0u);
    EXPECT_GT(rw.worstPowerW, cfg.budgetW);
}

TEST(ClusterSim, DerivedNodeSeedsAreDistinct)
{
    // Node workloads must decorrelate: the per-node seed derivation
    // cannot collide across a large fleet.
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1024; ++i)
        seeds.push_back(
            cluster::arrivalHash(7, i, ArrivalStream::NodeSeed));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_TRUE(std::adjacent_find(seeds.begin(), seeds.end())
                == seeds.end());
}

TEST(ClusterSim, LbPolicyNamesRoundTrip)
{
    using cluster::LbPolicy;
    EXPECT_EQ(cluster::parseLbPolicy("rr"), LbPolicy::RoundRobin);
    EXPECT_EQ(cluster::parseLbPolicy("least-loaded"),
              LbPolicy::LeastLoaded);
    EXPECT_EQ(cluster::parseLbPolicy("weighted"),
              LbPolicy::WeightedCapacity);
    for (LbPolicy lb :
         {LbPolicy::RoundRobin, LbPolicy::LeastLoaded,
          LbPolicy::WeightedCapacity})
        EXPECT_EQ(cluster::parseLbPolicy(cluster::lbPolicyName(lb)),
                  lb);
    EXPECT_THROW(cluster::parseLbPolicy("bogus"),
                 std::invalid_argument);
}

TEST(ClusterSim, EveryLbPolicyConservesArrivals)
{
    for (cluster::LbPolicy lb :
         {cluster::LbPolicy::RoundRobin,
          cluster::LbPolicy::LeastLoaded,
          cluster::LbPolicy::WeightedCapacity}) {
        ClusterConfig cfg = testCluster(4, 3);
        cfg.policy = "coscale";
        cfg.lb = lb;
        ClusterSim sim(cfg);
        ClusterResult r = sim.run();
        EXPECT_EQ(r.totalArrivals, r.totalCompleted + r.finalQueued)
            << cluster::lbPolicyName(lb);
        EXPECT_GT(r.totalArrivals, 0u);
    }
}

TEST(ClusterSim, MakeNodeConfigShrinksTheMachine)
{
    SystemConfig c = cluster::makeNodeConfig(0.02, 2);
    EXPECT_EQ(c.numCores, 2);
    EXPECT_EQ(c.power.numCores, 2);
    EXPECT_EQ(c.geom.channels, 1);
    EXPECT_EQ(c.geom.dimmsPerChannel, 1);
    EXPECT_EQ(c.power.geom.channels, 1);
    EXPECT_EQ(c.warmupEpochs, 0);
}

TEST(ClusterSim, SerialAndJobs4RunsAreByteIdentical)
{
    // The PR's concurrency contract at fleet scale: a 32-node capped
    // FastCap run, traced to JSONL plus the JSON report, must be
    // byte-for-byte identical between --jobs 1 and --jobs 4.
    ClusterConfig cfg = testCluster(32, 3);
    cfg.policy = "fastcap";
    cfg.budgetW = 32.0 * 30.0; // identity must hold feasible or not
    cfg.jobs = 1;
    std::string serial = runTraced(cfg);
    cfg.jobs = 4;
    std::string parallel = runTraced(cfg);
    EXPECT_FALSE(serial.empty());
    // The report echoes cfg (minus jobs), so any divergence is real.
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_TRUE(serial == parallel)
        << "32-node run diverges between jobs=1 and jobs=4";
}

TEST(ClusterSim, JsonReportCarriesTheRunShape)
{
    ClusterConfig cfg = testCluster(4, 3);
    cfg.policy = "fastcap";
    cfg.budgetW = feasibleBudget(cfg, 0.7);
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    std::ostringstream os;
    cluster::writeClusterJsonReport(cfg, r, os);
    std::string s = os.str();
    for (const char *key :
         {"\"nodes\"", "\"policy\"", "\"budget_w\"", "\"arrival\"",
          "\"worst_power_w\"", "\"cap_violation_epochs\"",
          "\"epochs\"", "\"completed\""})
        EXPECT_NE(s.find(key), std::string::npos) << key;
    EXPECT_NE(s.find("fastcap"), std::string::npos);
}

// --- churn spec parser: round trips and structured errors ---

cluster::ChurnParseError
expectChurnError(const std::string &spec,
                 cluster::ChurnParseError::Kind kind)
{
    try {
        cluster::parseChurnSpec(spec);
    } catch (const cluster::ChurnParseError &e) {
        EXPECT_EQ(static_cast<int>(e.kind()), static_cast<int>(kind))
            << "spec '" << spec << "': " << e.what();
        return e;
    }
    ADD_FAILURE() << "spec '" << spec << "' parsed without error";
    return cluster::ChurnParseError(
        cluster::ChurnParseError::Kind::EmptySpec, "", 0, "");
}

TEST(ChurnParse, FormatRoundTrips)
{
    cluster::ChurnPlan p;
    p.seed = 99;
    p.crashProb = 0.05;
    p.rebootEpochs = 4;
    p.rampEpochs = 3;
    p.flapProb = 0.02;
    p.hangProb = 0.07;
    p.hangEpochs = 5;
    p.blackoutProb = 0.15;
    p.blackoutEpochs = 2;
    p.suspectAfter = 2;
    p.deadAfter = 4;
    cluster::ChurnPlan q =
        cluster::parseChurnSpec(cluster::formatChurnSpec(p));
    EXPECT_EQ(q.seed, p.seed);
    EXPECT_DOUBLE_EQ(q.crashProb, p.crashProb);
    EXPECT_EQ(q.rebootEpochs, p.rebootEpochs);
    EXPECT_EQ(q.rampEpochs, p.rampEpochs);
    EXPECT_DOUBLE_EQ(q.flapProb, p.flapProb);
    EXPECT_DOUBLE_EQ(q.hangProb, p.hangProb);
    EXPECT_EQ(q.hangEpochs, p.hangEpochs);
    EXPECT_DOUBLE_EQ(q.blackoutProb, p.blackoutProb);
    EXPECT_EQ(q.blackoutEpochs, p.blackoutEpochs);
    EXPECT_EQ(q.suspectAfter, p.suspectAfter);
    EXPECT_EQ(q.deadAfter, p.deadAfter);
    EXPECT_TRUE(q.enabled());
}

TEST(ChurnParse, UnsetKeysKeepDefaults)
{
    cluster::ChurnPlan p = cluster::parseChurnSpec("crash=0.1");
    EXPECT_DOUBLE_EQ(p.crashProb, 0.1);
    EXPECT_EQ(p.rebootEpochs, cluster::ChurnPlan{}.rebootEpochs);
    EXPECT_EQ(p.deadAfter, cluster::ChurnPlan{}.deadAfter);
    EXPECT_EQ(p.seed, 0u);
    EXPECT_TRUE(p.enabled());
    EXPECT_FALSE(cluster::ChurnPlan{}.enabled());
}

TEST(ChurnParse, StructuredErrorKinds)
{
    using Kind = cluster::ChurnParseError::Kind;
    expectChurnError("", Kind::EmptySpec);
    expectChurnError("crash", Kind::BadToken);
    expectChurnError("=0.1", Kind::BadToken);
    expectChurnError("crash=", Kind::BadToken);
    expectChurnError("crash=0.1,,", Kind::BadToken);
    expectChurnError("bogus=3", Kind::UnknownKey);
    expectChurnError("crash=abc", Kind::BadValue);
    expectChurnError("seed=-3", Kind::BadValue);
    // strtoull skips whitespace and accepts a sign: no wrapping.
    expectChurnError("seed= -5", Kind::BadValue);
    expectChurnError("reboot= -1", Kind::BadValue);
    expectChurnError("seed=\t-5", Kind::BadValue);
    expectChurnError("seed=+5", Kind::BadValue);
    expectChurnError("dead= 4", Kind::BadValue);
    expectChurnError("crash=nan", Kind::BadValue);
    expectChurnError("crash=1.5", Kind::OutOfRange);
    expectChurnError("crash=-0.1", Kind::OutOfRange);
    expectChurnError("reboot=0", Kind::OutOfRange);
    expectChurnError("hangx=0", Kind::OutOfRange);
    expectChurnError("crash=0.1,crash=0.2", Kind::DuplicateKey);
    // The cross-field check: dead must be >= suspect.
    expectChurnError("suspect=3,dead=2", Kind::OutOfRange);
}

TEST(ChurnParse, ErrorCarriesTokenAndOffset)
{
    cluster::ChurnParseError e = expectChurnError(
        "crash=0.05,bogus=3",
        cluster::ChurnParseError::Kind::UnknownKey);
    EXPECT_EQ(e.token(), "bogus=3");
    EXPECT_EQ(e.charOffset(), 11u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
}

TEST(ChurnParse, FuzzedSpecsThrowOnlyChurnParseError)
{
    const std::string base =
        "crash=0.05,reboot=4,ramp=3,flap=0.02,hang=0.07,hangx=5,"
        "blackout=0.15,blackoutx=2,suspect=2,dead=4,seed=7";
    const std::string pool = "=,.-+eE019xcrashed \t%";
    // Value prefixes strtoull would skip or fold into the number.
    const char *const prefixes[] = {" ", "\t", "-", "+", " -", "\t-"};
    int parsed = 0;
    int rejected = 0;
    for (std::uint64_t k = 0; k < 2000; ++k) {
        std::string s = base;
        // 1-4 hash-driven edits: replace, insert, or delete a char,
        // or prefix the value after some '='.
        int edits = 1 + static_cast<int>(
            cluster::arrivalHash(3, k, ArrivalStream::Route, 0) % 4);
        for (int e = 0; e < edits; ++e) {
            std::uint64_t h = cluster::arrivalHash(
                4, k, ArrivalStream::Route,
                static_cast<std::uint64_t>(e));
            size_t at = s.empty() ? 0 : (h % s.size());
            char c = pool[(h >> 16) % pool.size()];
            switch ((h >> 32) % 4) {
              case 0:
                if (!s.empty())
                    s[at] = c;
                break;
              case 1:
                s.insert(at, 1, c);
                break;
              case 2:
                if (!s.empty())
                    s.erase(at, 1);
                break;
              default: {
                size_t eq = s.find('=', at);
                if (eq != std::string::npos)
                    s.insert(eq + 1, prefixes[(h >> 16) % 6]);
                break;
              }
            }
        }
        try {
            cluster::ChurnPlan p = cluster::parseChurnSpec(s);
            // Whatever parsed must satisfy the documented ranges.
            for (double prob : {p.crashProb, p.flapProb, p.hangProb,
                                p.blackoutProb}) {
                EXPECT_GE(prob, 0.0) << "spec '" << s << "'";
                EXPECT_LE(prob, 1.0) << "spec '" << s << "'";
            }
            for (int n : {p.rebootEpochs, p.hangEpochs,
                          p.blackoutEpochs, p.suspectAfter,
                          p.deadAfter}) {
                EXPECT_GE(n, 1) << "spec '" << s << "'";
                EXPECT_LE(n, 1'000'000) << "spec '" << s << "'";
            }
            EXPECT_GE(p.rampEpochs, 0) << "spec '" << s << "'";
            EXPECT_GE(p.deadAfter, p.suspectAfter);
            // A few edits of seed=7 stay far below 2^63; a wrapped
            // negative lands above it.
            EXPECT_LT(p.seed, std::uint64_t(1) << 63)
                << "spec '" << s << "'";
            parsed += 1;
        } catch (const cluster::ChurnParseError &e) {
            EXPECT_LE(e.charOffset(), s.size())
                << "spec '" << s << "'";
            rejected += 1;
        }
        // Any other exception type escapes and fails the test.
    }
    // The mutator must exercise both paths to mean anything.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 100);
}

// --- churn draws: stateless determinism ---

TEST(ChurnDraw, PureFunctionOfPlanSeedEpochNode)
{
    cluster::ChurnPlan p;
    p.crashProb = 0.3;
    p.hangProb = 0.3;
    p.hangEpochs = 4;
    p.blackoutProb = 0.3;
    p.blackoutEpochs = 3;
    int crashes = 0;
    for (std::uint64_t e = 0; e < 64; ++e) {
        for (std::uint64_t nd = 0; nd < 8; ++nd) {
            bool c = cluster::churnCrashAt(p, 42, e, nd);
            EXPECT_EQ(c, cluster::churnCrashAt(p, 42, e, nd));
            crashes += c ? 1 : 0;
            int h = cluster::churnHangLenAt(p, 42, e, nd);
            EXPECT_EQ(h, cluster::churnHangLenAt(p, 42, e, nd));
            EXPECT_GE(h, 0);
            EXPECT_LE(h, p.hangEpochs);
            int b = cluster::churnBlackoutLenAt(p, 42, e, nd);
            EXPECT_GE(b, 0);
            EXPECT_LE(b, p.blackoutEpochs);
        }
    }
    // With prob 0.3 over 512 draws, some crash and some do not.
    EXPECT_GT(crashes, 0);
    EXPECT_LT(crashes, 512);
}

TEST(ChurnDraw, ZeroAndCertainProbabilitiesPin)
{
    cluster::ChurnPlan none;
    cluster::ChurnPlan sure;
    sure.crashProb = 1.0;
    sure.flapProb = 1.0;
    sure.hangProb = 1.0;
    for (std::uint64_t e = 0; e < 32; ++e) {
        EXPECT_FALSE(cluster::churnCrashAt(none, 7, e, 0));
        EXPECT_EQ(cluster::churnHangLenAt(none, 7, e, 0), 0);
        EXPECT_TRUE(cluster::churnCrashAt(sure, 7, e, 0));
        EXPECT_TRUE(cluster::churnFlapAt(sure, 7, e, 0));
        EXPECT_GE(cluster::churnHangLenAt(sure, 7, e, 0), 1);
    }
}

TEST(ChurnDraw, SeedDerivationIsStableAndNonZero)
{
    cluster::ChurnPlan p;
    // Explicit plan seed wins; otherwise derived from cluster seed.
    p.seed = 123;
    EXPECT_EQ(cluster::churnSeed(p, 7), 123u);
    p.seed = 0;
    EXPECT_NE(cluster::churnSeed(p, 7), 0u);
    EXPECT_EQ(cluster::churnSeed(p, 7), cluster::churnSeed(p, 7));
    EXPECT_NE(cluster::churnSeed(p, 7), cluster::churnSeed(p, 8));
}

// --- HealthMonitor: the belief lifecycle ---

TEST(HealthMonitor, LifecycleAliveSuspectDeadRejoining)
{
    using cluster::NodeHealth;
    cluster::HealthMonitor m(2, 1, 3);
    EXPECT_EQ(m.health(0), NodeHealth::Alive);

    // One missed deadline: suspect, not dead.
    cluster::HealthMonitor::Verdict v = m.observe(0, false);
    EXPECT_EQ(v.health, NodeHealth::Suspect);
    EXPECT_FALSE(v.justDied);
    EXPECT_EQ(m.missedHeartbeats(0), 1);

    // A heartbeat clears the suspicion entirely.
    v = m.observe(0, true);
    EXPECT_EQ(v.health, NodeHealth::Alive);
    EXPECT_EQ(m.missedHeartbeats(0), 0);

    // Three consecutive misses: dead, with the edge fired once.
    m.observe(0, false);
    m.observe(0, false);
    v = m.observe(0, false);
    EXPECT_EQ(v.health, NodeHealth::Dead);
    EXPECT_TRUE(v.justDied);
    v = m.observe(0, false);
    EXPECT_EQ(v.health, NodeHealth::Dead);
    EXPECT_FALSE(v.justDied); // edge, not level

    // Heartbeat returns: rejoining (ramping), then alive once the
    // cluster reports the ramp finished.
    v = m.observe(0, true);
    EXPECT_EQ(v.health, NodeHealth::Rejoining);
    EXPECT_TRUE(v.justRejoined);
    v = m.observe(0, true);
    EXPECT_FALSE(v.justRejoined);
    m.markRampDone(0);
    EXPECT_EQ(m.health(0), NodeHealth::Alive);

    // Node 1 was never touched and stays alive throughout.
    EXPECT_EQ(m.health(1), NodeHealth::Alive);
    EXPECT_EQ(m.countWith(NodeHealth::Alive), 2);
    EXPECT_EQ(m.countWith(NodeHealth::Dead), 0);
}

// --- ClusterSim under churn: self-healing properties ---

/** testCluster with every failure mode armed. */
ClusterConfig
churnedCluster(int nodes, int epochs)
{
    ClusterConfig cfg = testCluster(nodes, epochs);
    cfg.churn.crashProb = 0.08;
    cfg.churn.rebootEpochs = 3;
    cfg.churn.rampEpochs = 2;
    cfg.churn.flapProb = 0.05;
    cfg.churn.hangProb = 0.05;
    cfg.churn.hangEpochs = 3;
    cfg.churn.blackoutProb = 0.1;
    cfg.churn.suspectAfter = 1;
    cfg.churn.deadAfter = 2;
    cfg.churn.seed = 11;
    return cfg;
}

TEST(ClusterChurn, BooksBalanceAndAvailabilityDegrades)
{
    ClusterConfig cfg = churnedCluster(8, 12);
    cfg.policy = "coscale";
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();

    // Request conservation survives crashes, drains, and re-routes:
    // parked (unrouted) work is part of the final backlog.
    EXPECT_EQ(r.totalArrivals, r.totalCompleted + r.finalQueued);
    EXPECT_GT(r.totalArrivals, 0u);

    // Churn actually bit, and the availability accounting agrees
    // with the per-epoch phase counts.
    EXPECT_GT(r.churn.total(), 0u);
    EXPECT_EQ(r.nodeEpochs,
              static_cast<std::uint64_t>(cfg.numNodes)
                  * static_cast<std::uint64_t>(cfg.epochs));
    EXPECT_LT(r.availability, 1.0);
    EXPECT_GT(r.availability, 0.0);
    EXPECT_DOUBLE_EQ(r.availability,
                     static_cast<double>(r.nodeEpochsServing)
                         / static_cast<double>(r.nodeEpochs));
    EXPECT_EQ(r.totalSloViolations,
              r.sloViolationsDegraded + r.sloViolationsClean);

    std::uint64_t down_epochs = 0;
    for (const ClusterEpochStats &e : r.epochs) {
        down_epochs += e.downNodes;
        if (e.downNodes + e.hungNodes > 0) {
            EXPECT_TRUE(e.degraded) << "epoch " << e.epoch;
        }
    }
    EXPECT_EQ(down_epochs, r.churn.downNodeEpochs);
}

TEST(ClusterChurn, FastCapHoldsTheCapThroughChurn)
{
    // The headline robustness property: node crashes, hangs, and
    // telemetry blackouts never let measured fleet power exceed a
    // feasible budget — stale nodes are budgeted at their last-known
    // worst case, dead nodes are fenced before reclaim.
    ClusterConfig cfg = churnedCluster(8, 12);
    cfg.policy = "fastcap";
    ClusterConfig clean = cfg;
    clean.churn = cluster::ChurnPlan{};
    cfg.budgetW = feasibleBudget(clean, 0.7);
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    EXPECT_GT(r.churn.total(), 0u);
    EXPECT_EQ(r.capViolationEpochs, 0u);
    EXPECT_LE(r.worstPowerW, cfg.budgetW);
    for (const ClusterEpochStats &e : r.epochs) {
        EXPECT_LE(e.grantSumW, cfg.budgetW * (1.0 + 1e-9))
            << "epoch " << e.epoch;
    }
}

TEST(ClusterChurn, DeadNodesAreDrainedAndRerouted)
{
    // Force deaths: every miss counts, a crash outlives the dead
    // threshold, so the monitor must declare death, drain the
    // victim's queue, and re-route it to survivors.
    ClusterConfig cfg = testCluster(6, 10);
    cfg.policy = "coscale";
    cfg.churn.crashProb = 0.15;
    cfg.churn.rebootEpochs = 4;
    cfg.churn.rampEpochs = 1;
    cfg.churn.suspectAfter = 1;
    cfg.churn.deadAfter = 2;
    cfg.churn.seed = 5;
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    EXPECT_GT(r.churn.crashes, 0u);
    EXPECT_GT(r.churn.deaths, 0u);
    EXPECT_GT(r.churn.reroutedRequests, 0u);
    EXPECT_EQ(r.totalArrivals, r.totalCompleted + r.finalQueued);
    // Books stay balanced per epoch too (rerouted work is moved,
    // never duplicated or dropped).
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    for (const ClusterEpochStats &e : r.epochs) {
        arrivals += e.arrivals;
        completed += e.completed;
        EXPECT_EQ(arrivals, completed + e.queued)
            << "epoch " << e.epoch;
    }
}

TEST(ClusterChurn, RebootedNodesRampBackToService)
{
    ClusterConfig cfg = churnedCluster(8, 16);
    cfg.policy = "fastcap";
    ClusterConfig clean = cfg;
    clean.churn = cluster::ChurnPlan{};
    cfg.budgetW = feasibleBudget(clean, 0.7);
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    // Crashes happened and at least one node completed the full
    // down -> reboot -> ramp -> alive arc.
    EXPECT_GT(r.churn.crashes + r.churn.flaps, 0u);
    EXPECT_GT(r.churn.rejoins, 0u);
    EXPECT_GT(r.nodeEpochsServing, 0u);
}

TEST(ClusterChurn, DisabledPlanIsByteIdenticalToPreChurn)
{
    // cfg.churn default-constructs disabled; the golden fixtures
    // below pin the exact pre-churn bytes. Here: a disabled plan is
    // the same object as "no churn config at all".
    ClusterConfig a = testCluster(4, 3);
    ClusterConfig b = testCluster(4, 3);
    b.churn = cluster::ChurnPlan{};
    EXPECT_FALSE(b.churn.enabled());
    EXPECT_EQ(runTraced(a), runTraced(b));
}

TEST(ClusterChurn, SerialAndJobs4ChurnedRunsAreByteIdentical)
{
    // The acceptance gate: a 32-node churned, capped run — crashes,
    // fences, drains, re-routes and all — must be byte-for-byte
    // identical between --jobs 1 and --jobs 4.
    ClusterConfig cfg = churnedCluster(32, 4);
    cfg.policy = "fastcap";
    cfg.budgetW = 32.0 * 30.0;
    cfg.jobs = 1;
    std::string serial = runTraced(cfg);
    cfg.jobs = 4;
    std::string parallel = runTraced(cfg);
    EXPECT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_TRUE(serial == parallel)
        << "32-node churned run diverges between jobs=1 and jobs=4";
}

// --- golden fixtures: the cluster trace format, pinned ---

ClusterConfig
goldenConfig()
{
    ClusterConfig cfg = testCluster(8, 6);
    // Pin the paper-default backend, like test_golden's fixtureConfig,
    // so CI's COSCALE_MEM_SCHED/ROW_POLICY/DRAM_STANDARD leg cannot
    // reach the fixture bytes through makeScaledConfig.
    applyMemBackend(cfg.node, MemBackendSel{});
    cfg.policy = "fastcap";
    cfg.budgetW = feasibleBudget(cfg, 0.7);
    return cfg;
}

TEST(ClusterGolden, EightNodeFastCapTraceMatchesFixture)
{
    checkGolden("cluster_8node_fastcap.jsonl",
                runTraced(goldenConfig()));
}

TEST(ClusterGolden, FaultedTwinMatchesFixtureAndDiverges)
{
    ClusterConfig cfg = goldenConfig();
    cfg.faults.counterNoiseAmp = 0.05;
    cfg.faults.counterNoiseBias = 0.02;
    cfg.faults.transitionDenyProb = 0.25;
    ASSERT_TRUE(cfg.faults.enabled());
    std::string faulted = runTraced(cfg);
    // Faults must actually bite (the summary aggregates over nodes)
    // and perturb the trace relative to the clean twin.
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    EXPECT_GT(r.faults.total(), 0u);
    EXPECT_NE(faulted, runTraced(goldenConfig()));
    checkGolden("cluster_8node_fastcap_faulted.jsonl", faulted);
}

TEST(ClusterGolden, ChurnedTwinMatchesFixtureAndDiverges)
{
    // Pins the failure-domain trace format: churn events, per-epoch
    // phase/health fields, and the churn summary block in the
    // report. The clean fixture above stays untouched — a disabled
    // plan emits none of these.
    ClusterConfig cfg = goldenConfig();
    cfg.churn.crashProb = 0.08;
    cfg.churn.rebootEpochs = 2;
    cfg.churn.rampEpochs = 1;
    cfg.churn.hangProb = 0.05;
    cfg.churn.blackoutProb = 0.1;
    cfg.churn.suspectAfter = 1;
    cfg.churn.deadAfter = 2;
    cfg.churn.seed = 11;
    ASSERT_TRUE(cfg.churn.enabled());
    std::string churned = runTraced(cfg);
    ClusterSim sim(cfg);
    ClusterResult r = sim.run();
    EXPECT_GT(r.churn.total(), 0u);
    EXPECT_NE(churned, runTraced(goldenConfig()));
    checkGolden("cluster_8node_fastcap_churned.jsonl", churned);
}

} // namespace
} // namespace coscale

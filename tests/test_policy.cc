/**
 * @file
 * Tests for the policies: slack-tracker arithmetic, feasibility, the
 * exhaustive-equivalence of cap-scan (checked against brute force on
 * a small configuration space), the CoScale greedy walk (Fig. 2/3),
 * and the power-capping extension.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "policy/coscale_policy.hh"
#include "policy/fastcap.hh"
#include "policy/offline.hh"
#include "policy/search_common.hh"
#include "policy/simple_policies.hh"
#include "policy/uncoordinated.hh"

namespace coscale {
namespace {

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

struct PolicyFixture : ::testing::Test
{
    PolicyFixture(int cores = 4, int core_steps = 10, int mem_steps = 10)
        : coreLadder(defaultCoreLadder(core_steps)),
          memLadder(defaultMemLadder(mem_steps)),
          perf(DramTimingParams{}, 10.0, 7.5), power(PowerParams{}),
          em(&perf, &power, &coreLadder, &memLadder)
    {
        prof.windowTicks = 300 * tickPerUs;
        for (int i = 0; i < cores; ++i) {
            double mix = static_cast<double>(i) / std::max(1, cores - 1);
            prof.cores.push_back(mkCore(1.5 - 0.6 * mix,
                                        0.005 + 0.02 * mix,
                                        0.0005 + 0.012 * mix,
                                        60.0 + 30.0 * mix));
        }
        prof.mem.profiledBusFreq = 800 * MHz;
        prof.mem.wBankSecs = 3e-9;
        prof.mem.wBusSecs = 2e-9;
        prof.mem.measuredStallSecs = perf.serviceSecs(800 * MHz) + 5e-9;
        prof.mem.busUtil = 0.25;
        prof.mem.rankActiveFrac = 0.3;
        prof.mem.writeFrac = 0.25;
        prof.mem.trafficPerSec = 2e8;
        prof.profiledCoreIdx.assign(static_cast<size_t>(cores), 0);
        prof.profiledMemIdx = 0;
    }

    int n() const { return static_cast<int>(prof.cores.size()); }

    FreqLadder coreLadder;
    FreqLadder memLadder;
    PerfModel perf;
    PowerModel power;
    EnergyModel em;
    SystemProfile prof;
};

// --- SlackTracker ---

TEST(SlackTracker, AccumulatesSurplusAtFullSpeed)
{
    SlackTracker t(1, 0.10, 0.0);
    // One epoch at exactly the reference pace: slack grows by
    // gamma * epoch.
    t.update(0, 1e-9, 1'000'000, 1e-3);
    EXPECT_NEAR(t.slackSecs(0), 0.10 * 1e-3, 1e-12);
}

TEST(SlackTracker, GoesNegativeWhenOverSpent)
{
    SlackTracker t(1, 0.10, 0.0);
    // Ran 25% slower than reference with a 10% allowance.
    t.update(0, 1e-9, 800'000, 1e-3);
    EXPECT_LT(t.slackSecs(0), 0.0);
}

TEST(SlackTracker, AllowedTpiAtZeroSlackIsGammaBound)
{
    SlackTracker t(1, 0.10, 0.0);
    EXPECT_NEAR(t.allowedTpi(0, 1e-9, 1e-3), 1.1e-9, 1e-15);
}

TEST(SlackTracker, PositiveSlackLoosensTheBound)
{
    SlackTracker t(1, 0.10, 0.0);
    t.update(0, 1e-9, 1'000'000, 1e-3);  // banked gamma*epoch
    double allowed = t.allowedTpi(0, 1e-9, 1e-3);
    EXPECT_GT(allowed, 1.1e-9);
    // Roughly 2*gamma available for one epoch.
    EXPECT_NEAR(allowed, 1.1e-9 / (1.0 - 0.1e-3 / 1e-3), 1e-14);
}

TEST(SlackTracker, NegativeSlackTightensTheBound)
{
    SlackTracker t(1, 0.10, 0.0);
    t.update(0, 1e-9, 700'000, 1e-3);
    EXPECT_LT(t.allowedTpi(0, 1e-9, 1e-3), 1.1e-9);
}

TEST(SlackTracker, HugeSlackMeansUnconstrained)
{
    SlackTracker t(1, 0.10, 0.0);
    for (int i = 0; i < 20; ++i)
        t.update(0, 1e-9, 1'000'000, 1e-3);
    EXPECT_TRUE(std::isinf(t.allowedTpi(0, 1e-9, 1e-3)));
}

TEST(SlackTracker, SafetyFractionTightensTarget)
{
    SlackTracker loose(1, 0.10, 0.0);
    SlackTracker tight(1, 0.10, 0.5);
    EXPECT_LT(tight.allowedTpi(0, 1e-9, 1e-3),
              loose.allowedTpi(0, 1e-9, 1e-3));
    EXPECT_NEAR(tight.gamma(), 0.05, 1e-12);
}

// --- Cap-scan vs brute force ---

struct SmallSpace : PolicyFixture
{
    SmallSpace() : PolicyFixture(3, 4, 4) {}

    /** Brute-force minimum SER over the full C^N x M space. */
    double
    bruteForceBestSer(const std::vector<double> &allowed)
    {
        double best = 1e18;
        int c_steps = coreLadder.size();
        FreqConfig cfg = FreqConfig::allMax(n());
        for (int m = 0; m < memLadder.size(); ++m) {
            cfg.memIdx = m;
            int total = 1;
            for (int i = 0; i < n(); ++i)
                total *= c_steps;
            for (int combo = 0; combo < total; ++combo) {
                int rem = combo;
                for (int i = 0; i < n(); ++i) {
                    cfg.coreIdx[static_cast<size_t>(i)] = rem % c_steps;
                    rem /= c_steps;
                }
                if (!configFeasible(em, prof, cfg, allowed))
                    continue;
                best = std::min(best, em.ser(prof, cfg));
            }
        }
        return best;
    }
};

TEST_F(SmallSpace, ExhaustiveBestMatchesBruteForce)
{
    FreqConfig all_max = FreqConfig::allMax(n());
    std::vector<double> ref = refTpis(em, prof, all_max);
    SlackTracker slack(n(), 0.10, 0.0);
    std::vector<double> allowed = allowedTpis(slack, ref, tickPerMs);

    double brute = bruteForceBestSer(allowed);
    FreqConfig pick = exhaustiveBest(em, prof, allowed);
    EXPECT_TRUE(configFeasible(em, prof, pick, allowed));
    EXPECT_NEAR(em.ser(prof, pick), brute, brute * 1e-9);
}

TEST_F(SmallSpace, ExhaustiveBestMatchesBruteForceAcrossBounds)
{
    for (double gamma : {0.01, 0.05, 0.15, 0.20}) {
        FreqConfig all_max = FreqConfig::allMax(n());
        std::vector<double> ref = refTpis(em, prof, all_max);
        SlackTracker slack(n(), gamma, 0.0);
        std::vector<double> allowed =
            allowedTpis(slack, ref, tickPerMs);
        double brute = bruteForceBestSer(allowed);
        FreqConfig pick = exhaustiveBest(em, prof, allowed);
        EXPECT_NEAR(em.ser(prof, pick), brute, brute * 1e-9)
            << "gamma " << gamma;
    }
}

// --- CoScale walk ---

TEST_F(PolicyFixture, CoScaleRespectsAllowedTpi)
{
    CoScalePolicy policy(n(), 0.10);
    FreqConfig current = FreqConfig::allMax(n());
    FreqConfig pick = policy.decide(prof, em, current, tickPerMs);
    FreqConfig all_max = FreqConfig::allMax(n());
    std::vector<double> ref = refTpis(em, prof, all_max);
    // A fresh tracker at the same bound gives the same allowance.
    SlackTracker slack(n(), 0.10);
    std::vector<double> allowed = allowedTpis(slack, ref, tickPerMs);
    EXPECT_TRUE(configFeasible(em, prof, pick, allowed));
}

TEST_F(PolicyFixture, CoScaleImprovesOnAllMax)
{
    CoScalePolicy policy(n(), 0.10);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    EXPECT_LT(em.ser(prof, pick), 1.0);
    // Something actually scaled.
    bool scaled = pick.memIdx > 0;
    for (int idx : pick.coreIdx)
        scaled = scaled || idx > 0;
    EXPECT_TRUE(scaled);
}

TEST_F(PolicyFixture, CoScaleWalkRecordsMonotoneSteps)
{
    CoScalePolicy policy(n(), 0.10);
    policy.recordWalk(true);
    policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    const auto &walk = policy.lastWalk();
    ASSERT_GE(walk.size(), 2u);
    // Each step lowers exactly one component set: indices never rise.
    for (size_t s = 1; s < walk.size(); ++s) {
        EXPECT_GE(walk[s].cfg.memIdx, walk[s - 1].cfg.memIdx);
        for (size_t i = 0; i < walk[s].cfg.coreIdx.size(); ++i)
            EXPECT_GE(walk[s].cfg.coreIdx[i],
                      walk[s - 1].cfg.coreIdx[i]);
        int moved = walk[s].cfg.memIdx - walk[s - 1].cfg.memIdx;
        if (walk[s].memStep) {
            EXPECT_EQ(moved, 1);
        } else {
            EXPECT_EQ(moved, 0);
            EXPECT_GE(walk[s].groupSize, 1);
        }
    }
}

TEST_F(PolicyFixture, CoScaleNearExhaustiveQuality)
{
    // The greedy heuristic should land close to the exhaustive
    // optimum (Section 4.2.3: CoScale does almost as well as
    // Offline).
    CoScalePolicy policy(n(), 0.10);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);

    FreqConfig all_max = FreqConfig::allMax(n());
    std::vector<double> ref = refTpis(em, prof, all_max);
    SlackTracker slack(n(), 0.10);
    std::vector<double> allowed = allowedTpis(slack, ref, tickPerMs);
    FreqConfig best = exhaustiveBest(em, prof, allowed);

    EXPECT_LE(em.ser(prof, pick), em.ser(prof, best) + 0.03);
}

TEST_F(PolicyFixture, TightBoundMeansFewSteps)
{
    CoScalePolicy policy(n(), 0.002);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    // With a ~0.2% bound essentially nothing can scale.
    EXPECT_EQ(pick.memIdx, 0);
    int total = 0;
    for (int idx : pick.coreIdx)
        total += idx;
    EXPECT_LE(total, 1);
}

TEST_F(PolicyFixture, MemScaleTouchesOnlyMemory)
{
    MemScalePolicy policy(n(), 0.10);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    for (int idx : pick.coreIdx)
        EXPECT_EQ(idx, 0);
    EXPECT_GT(pick.memIdx, 0);
}

TEST_F(PolicyFixture, CpuOnlyTouchesOnlyCores)
{
    CpuOnlyPolicy policy(n(), 0.10);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    EXPECT_EQ(pick.memIdx, 0);
    int total = 0;
    for (int idx : pick.coreIdx)
        total += idx;
    EXPECT_GT(total, 0);
}

TEST_F(PolicyFixture, BaselineNeverScales)
{
    BaselinePolicy policy;
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    EXPECT_EQ(pick.memIdx, 0);
    for (int idx : pick.coreIdx)
        EXPECT_EQ(idx, 0);
}

TEST_F(PolicyFixture, OfflineWantsOracle)
{
    OfflinePolicy policy(n(), 0.10);
    EXPECT_TRUE(policy.wantsOracleProfile());
    CoScalePolicy cs(n(), 0.10);
    EXPECT_FALSE(cs.wantsOracleProfile());
}

TEST_F(PolicyFixture, UncoordinatedScalesBothAggressively)
{
    UncoordinatedPolicy policy(n(), 0.10);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    int total = 0;
    for (int idx : pick.coreIdx)
        total += idx;
    // Both managers spend the whole slack independently.
    EXPECT_GT(total, 0);
    EXPECT_GT(pick.memIdx, 0);
}

TEST_F(PolicyFixture, SemiAlternatePhasesManagers)
{
    SemiCoordinatedPolicy policy(n(), 0.10,
                                 SemiCoordinatedPolicy::Phase::Alternate);
    FreqConfig current = FreqConfig::allMax(n());
    FreqConfig first = policy.decide(prof, em, current, tickPerMs);
    // Epoch 0: CPU manager only; memory untouched.
    EXPECT_EQ(first.memIdx, current.memIdx);
    FreqConfig second = policy.decide(prof, em, first, tickPerMs);
    // Epoch 1: memory manager only; cores untouched.
    EXPECT_EQ(second.coreIdx, first.coreIdx);
    EXPECT_GT(second.memIdx, first.memIdx);
}

// --- PowerCap: FastCap with its fairness phase off ---

/** The roster's powercap: FastCap's capping walk alone. */
FastCapPolicy
powerCap(int cores, double cap)
{
    return FastCapPolicy(cores, 0.05, cap, false);
}

TEST_F(PolicyFixture, PowerCapMeetsCapWhenFeasible)
{
    double max_power =
        em.systemPower(prof, FreqConfig::allMax(n()));
    double cap = max_power * 0.8;
    FastCapPolicy policy = powerCap(n(), cap);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    EXPECT_LE(em.systemPower(prof, pick), cap);
    EXPECT_FALSE(policy.lastDecisionOverCap());
    // It keeps PowerCap's name and the audit layer's default bound,
    // whatever gamma it was built with.
    EXPECT_EQ(policy.name(), "PowerCap");
    EXPECT_DOUBLE_EQ(policy.slackGamma(), 0.10);
}

TEST_F(PolicyFixture, PowerCapNoThrottleWhenAlreadyUnder)
{
    double max_power =
        em.systemPower(prof, FreqConfig::allMax(n()));
    FastCapPolicy policy = powerCap(n(), max_power * 1.1);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    EXPECT_EQ(pick.memIdx, 0);
    for (int idx : pick.coreIdx)
        EXPECT_EQ(idx, 0);
}

TEST_F(PolicyFixture, PowerCapReportsInfeasibleCap)
{
    FastCapPolicy policy = powerCap(n(), 1.0);  // 1 W: impossible
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    EXPECT_TRUE(policy.lastDecisionOverCap());
    // Everything pinned at minimum.
    EXPECT_EQ(pick.memIdx, memLadder.size() - 1);
    for (int idx : pick.coreIdx)
        EXPECT_EQ(idx, coreLadder.size() - 1);
}

TEST_F(PolicyFixture, PowerCapPrefersCheapPerformance)
{
    // Tight-ish cap: the policy should shed power where it costs the
    // least performance, keeping relative time modest.
    double max_power =
        em.systemPower(prof, FreqConfig::allMax(n()));
    FastCapPolicy policy = powerCap(n(), max_power * 0.85);
    FreqConfig pick =
        policy.decide(prof, em, FreqConfig::allMax(n()), tickPerMs);
    EXPECT_LT(em.relativeTime(prof, pick), 1.2);
}

} // namespace
} // namespace coscale

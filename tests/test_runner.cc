/**
 * @file
 * Tests for the epoch runner: warmup handling, epoch logging, energy
 * accounting boundaries, the comparison helpers, and runner-level
 * behaviour of the PowerCap and ablated-CoScale variants.
 */

#include <gtest/gtest.h>

#include "policy/coscale_policy.hh"
#include "policy/fastcap.hh"
#include "sim/runner.hh"

namespace coscale {
namespace {

SystemConfig
smallConfig(double scale = 0.05)
{
    return makeScaledConfig(scale);
}

TEST(Runner, WarmupEpochsRunAtMax)
{
    SystemConfig cfg = smallConfig();
    cfg.warmupEpochs = 3;
    CoScalePolicy policy(cfg.numCores, cfg.gamma);
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("MID3")).with(policy));
    ASSERT_GE(r.epochs.size(), 4u);
    for (int e = 0; e < 3; ++e) {
        EXPECT_EQ(r.epochs[static_cast<size_t>(e)].applied.memIdx, 0);
        for (int idx : r.epochs[static_cast<size_t>(e)].applied.coreIdx)
            EXPECT_EQ(idx, 0);
    }
    // After warmup the policy acts.
    bool scaled_later = false;
    for (size_t e = 3; e < r.epochs.size(); ++e) {
        if (r.epochs[e].applied.memIdx > 0)
            scaled_later = true;
        for (int idx : r.epochs[e].applied.coreIdx)
            scaled_later = scaled_later || idx > 0;
    }
    EXPECT_TRUE(scaled_later);
}

TEST(Runner, EpochLogIsChronological)
{
    SystemConfig cfg = smallConfig();
    CoScalePolicy policy(cfg.numCores, cfg.gamma);
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("ILP2")).with(policy));
    ASSERT_GE(r.epochs.size(), 2u);
    for (size_t e = 1; e < r.epochs.size(); ++e) {
        EXPECT_EQ(r.epochs[e].startTick - r.epochs[e - 1].startTick,
                  cfg.epochLen);
    }
    for (const auto &log : r.epochs)
        EXPECT_GT(log.avgPower.totalW(), 10.0);
}

TEST(Runner, EnergyBoundedByPeakPowerTimesRuntime)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("MID1")).with(b));
    double secs = ticksToSeconds(r.finishTick);
    EXPECT_GT(r.totalEnergyJ(), 50.0 * secs);   // > 50 W floor
    EXPECT_LT(r.totalEnergyJ(), 400.0 * secs);  // < 400 W ceiling
}

TEST(Runner, FinishTickIsMaxOfAppCompletions)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("MID2")).with(b));
    Tick last = 0;
    for (Tick t : r.appCompletion)
        last = std::max(last, t);
    EXPECT_EQ(r.finishTick, last);
    EXPECT_EQ(r.appCompletion.size(), 16u);
}

TEST(Runner, CompareOfIdenticalRunsIsZero)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b1, b2;
    RunResult a = coscale::run(RunRequest::forMix(cfg, mixByName("ILP2")).with(b1));
    RunResult c = coscale::run(RunRequest::forMix(cfg, mixByName("ILP2")).with(b2));
    Comparison cmp = compare(a, c);
    EXPECT_DOUBLE_EQ(cmp.fullSystemSavings, 0.0);
    EXPECT_DOUBLE_EQ(cmp.avgDegradation, 0.0);
    EXPECT_DOUBLE_EQ(cmp.worstDegradation, 0.0);
}

TEST(Runner, TinyBudgetTerminatesCleanly)
{
    SystemConfig cfg = smallConfig();
    cfg.instrBudget = 10'000;  // finishes inside the first epoch
    CoScalePolicy policy(cfg.numCores, cfg.gamma);
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("MID1")).with(policy));
    EXPECT_GT(r.totalInstrs, 16u * 10'000u);
    EXPECT_GT(r.totalEnergyJ(), 0.0);
    EXPECT_LT(ticksToSeconds(r.finishTick), 1.0);
}

TEST(Runner, PowerCapHoldsOverWholeRun)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult base = coscale::run(RunRequest::forMix(cfg, mixByName("MID4")).with(b));
    double peak_w =
        base.totalEnergyJ() / ticksToSeconds(base.finishTick);
    double cap = peak_w * 0.85;
    FastCapPolicy policy(cfg.numCores, cfg.gamma, cap, false);
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("MID4")).with(policy));
    // PowerCap keeps no slack ledger.
    for (int i = 0; i < policy.slack().size(); ++i)
        EXPECT_EQ(policy.slack().slackSecs(i), 0.0);
    double avg_w = r.totalEnergyJ() / ticksToSeconds(r.finishTick);
    EXPECT_LE(avg_w, cap * 1.03);
    // Capping costs performance but not catastrophically.
    double slowdown = static_cast<double>(r.finishTick)
                          / static_cast<double>(base.finishTick)
                      - 1.0;
    EXPECT_LT(slowdown, 0.35);
}

TEST(Runner, GroupingAblationSavesLess)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult base = coscale::run(RunRequest::forMix(cfg, mixByName("MID1")).with(b));

    CoScalePolicy with_groups(cfg.numCores, cfg.gamma);
    Comparison c_full =
        compare(base, coscale::run(RunRequest::forMix(cfg, mixByName("MID1")).with(with_groups)));

    CoScaleOptions opts;
    opts.coreGrouping = false;
    CoScalePolicy without(cfg.numCores, cfg.gamma, opts);
    Comparison c_nogroup =
        compare(base, coscale::run(RunRequest::forMix(cfg, mixByName("MID1")).with(without)));

    // Section 3.1: failing to consider group transitions gets the
    // heuristic stuck in local minima.
    EXPECT_GT(c_full.fullSystemSavings,
              c_nogroup.fullSystemSavings + 0.01);
    EXPECT_LE(c_nogroup.worstDegradation, cfg.gamma + 0.005);
}

TEST(Runner, NoSlackCarryUsesLessBudget)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult base = coscale::run(RunRequest::forMix(cfg, mixByName("MID3")).with(b));

    CoScaleOptions opts;
    opts.carrySlack = false;
    CoScalePolicy policy(cfg.numCores, cfg.gamma, opts);
    Comparison c =
        compare(base, coscale::run(RunRequest::forMix(cfg, mixByName("MID3")).with(policy)));
    // Still safe, but leaves slack unused.
    EXPECT_LE(c.worstDegradation, cfg.gamma + 0.005);
    EXPECT_LT(c.avgDegradation, 0.095);
}

TEST(Runner, ChipWideDvfsKeepsCoresUniformAndSavesLess)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult base = coscale::run(RunRequest::forMix(cfg, mixByName("MIX3")).with(b));

    CoScaleOptions opts;
    opts.chipWideCpuDvfs = true;
    CoScalePolicy chip(cfg.numCores, cfg.gamma, opts);
    RunResult chip_run = coscale::run(RunRequest::forMix(cfg, mixByName("MIX3")).with(chip));
    Comparison c_chip = compare(base, chip_run);

    // All cores share one frequency in every epoch.
    for (const auto &e : chip_run.epochs) {
        for (int idx : e.applied.coreIdx)
            EXPECT_EQ(idx, e.applied.coreIdx[0]);
    }
    EXPECT_LE(c_chip.worstDegradation, cfg.gamma + 0.005);

    // On a heterogeneous mix, per-core domains buy extra savings.
    CoScalePolicy per_core(cfg.numCores, cfg.gamma);
    Comparison c_pc =
        compare(base, coscale::run(RunRequest::forMix(cfg, mixByName("MIX3")).with(per_core)));
    EXPECT_GE(c_pc.fullSystemSavings,
              c_chip.fullSystemSavings - 0.002);
}

TEST(Runner, DramTrafficAccounted)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("MEM3")).with(b));
    EXPECT_GT(r.dramReads, 100'000u);
    EXPECT_GT(r.dramWrites, 10'000u);
    EXPECT_EQ(r.dramPrefetches, 0u);  // prefetcher off by default
    EXPECT_EQ(r.dramTraffic(), r.dramReads + r.dramWrites);
}

TEST(Runner, EnergyPerInstrIsPlausible)
{
    SystemConfig cfg = smallConfig();
    BaselinePolicy b;
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("MID1")).with(b));
    // ~145 W over ~16 cores at ~2 GIPS each: a few nJ per instruction.
    EXPECT_GT(r.energyPerInstrNj(), 1.0);
    EXPECT_LT(r.energyPerInstrNj(), 50.0);
}

} // namespace
} // namespace coscale

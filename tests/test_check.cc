/**
 * @file
 * Tests for the correctness-audit layer: the contract macros
 * (COSCALE_CHECK / COSCALE_DCHECK), panic behaviour switching, the
 * DDR3 timing-legality auditor (acceptance on legal traffic plus one
 * injected violation per rule), the energy-conservation auditor, the
 * Eq. 1 residual auditor, and an audited full-policy-sweep smoke run.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "check/contract.hh"
#include "policy/coscale_policy.hh"
#include "policy/simple_policies.hh"
#include "policy/uncoordinated.hh"
#include "sim/runner.hh"

namespace coscale {
namespace {

// ---------------------------------------------------------------------
// Contract macros.
// ---------------------------------------------------------------------

TEST(Contract, CheckPassesSilently)
{
    ScopedPanicThrow guard;
    EXPECT_NO_THROW(COSCALE_CHECK(1 + 1 == 2));
    EXPECT_NO_THROW(COSCALE_CHECK(true, "never printed %d", 1));
}

TEST(Contract, CheckFailureCarriesContext)
{
    ScopedPanicThrow guard;
    try {
        COSCALE_CHECK(2 + 2 == 5, "arithmetic broke: %d", 42);
        FAIL() << "check did not fire";
    } catch (const CheckFailure &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
        EXPECT_NE(what.find("arithmetic broke: 42"), std::string::npos);
        EXPECT_NE(std::string(e.file()).find("test_check.cc"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
}

TEST(Contract, DcheckFollowsBuildMode)
{
    ScopedPanicThrow guard;
    if (COSCALE_DCHECK_IS_ON()) {
        EXPECT_THROW(COSCALE_DCHECK(false, "audit build"), CheckFailure);
    } else {
        EXPECT_NO_THROW(COSCALE_DCHECK(false, "production build"));
    }
}

TEST(Contract, DisabledDcheckDoesNotEvaluateItsCondition)
{
    int calls = 0;
    auto bump = [&calls]() {
        calls += 1;
        return true;
    };
    COSCALE_DCHECK(bump());
    EXPECT_EQ(calls, COSCALE_DCHECK_IS_ON() ? 1 : 0);
}

TEST(Contract, PanicBehaviourIsScopedAndRestored)
{
    ASSERT_EQ(panicBehavior(), PanicBehavior::Abort);
    {
        ScopedPanicThrow guard;
        EXPECT_EQ(panicBehavior(), PanicBehavior::Throw);
        {
            ScopedPanicThrow nested;
            EXPECT_EQ(panicBehavior(), PanicBehavior::Throw);
        }
        EXPECT_EQ(panicBehavior(), PanicBehavior::Throw);
    }
    EXPECT_EQ(panicBehavior(), PanicBehavior::Abort);
}

TEST(ContractDeathTest, DefaultBehaviourAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(COSCALE_CHECK(false, "abort path"), "abort path");
}

// ---------------------------------------------------------------------
// DDR3 timing auditor: acceptance on real controller traffic.
// ---------------------------------------------------------------------

MemCtrlConfig
memConfig(bool open_page = false)
{
    MemCtrlConfig cfg;
    cfg.ladder = defaultMemLadder();
    cfg.backend.rowPolicy = open_page ? RowPolicy::Open : RowPolicy::ClosedAuto;
    return cfg;
}

void
drainAll(MemCtrl &mc)
{
    while (mc.nextEventTick() != maxTick)
        mc.step();
}

TEST(DramAudit, AcceptsLegalClosedPageTraffic)
{
    ScopedPanicThrow guard;
    MemCtrl mc(memConfig(), 0);
    DramTimingAuditor audit;
    mc.attachAuditor(&audit);

    Tick t = 0;
    for (int i = 0; i < 400; ++i) {
        MemReq r;
        r.addr = static_cast<BlockAddr>(i) * 977;
        r.kind = (i % 5 == 4) ? ReqKind::Writeback : ReqKind::Read;
        r.core = i % 4;
        r.arrival = t;
        r.token = static_cast<std::uint64_t>(i);
        mc.enqueue(r);
        t += 2000;
    }
    drainAll(mc);
    EXPECT_GE(audit.commandsAudited(), 400u);
}

TEST(DramAudit, AcceptsLegalOpenPageTraffic)
{
    ScopedPanicThrow guard;
    MemCtrl mc(memConfig(true), 0);
    DramTimingAuditor audit;
    mc.attachAuditor(&audit);

    // Sequential blocks: lots of row hits under open-page management.
    for (int i = 0; i < 400; ++i) {
        MemReq r;
        r.addr = static_cast<BlockAddr>(i);
        r.kind = ReqKind::Read;
        r.core = 0;
        r.arrival = static_cast<Tick>(i) * 1500;
        r.token = static_cast<std::uint64_t>(i);
        mc.enqueue(r);
    }
    drainAll(mc);
    EXPECT_GE(audit.commandsAudited(), 400u);
}

TEST(DramAudit, AcceptsTrafficAcrossFrequencyTransitions)
{
    ScopedPanicThrow guard;
    MemCtrl mc(memConfig(), 0);
    DramTimingAuditor audit;
    mc.attachAuditor(&audit);

    auto burst = [&mc](int base, Tick at) {
        for (int i = 0; i < 64; ++i) {
            MemReq r;
            r.addr = static_cast<BlockAddr>(base + i) * 353;
            r.kind = ReqKind::Read;
            r.core = 0;
            r.arrival = at;
            r.token = static_cast<std::uint64_t>(base + i);
            mc.enqueue(r);
        }
    };
    burst(0, 0);
    drainAll(mc);
    // Step down, then back up; the auditor must follow the resolved
    // timing and the re-calibration halts.
    Tick now = 10 * tickPerMs;
    mc.setFrequency(ChannelSel::all(), mc.cfgRef().ladder.size() - 1, now);
    burst(1000, now);
    drainAll(mc);
    now = 20 * tickPerMs;
    mc.setFrequency(ChannelSel::all(), 0, now);
    burst(2000, now);
    drainAll(mc);
    EXPECT_GE(audit.commandsAudited(), 192u);
    EXPECT_GT(audit.refreshesReplayed(), 0u);
}

TEST(DramAudit, MidRunAttachSeedsWithoutFalsePositives)
{
    ScopedPanicThrow guard;
    MemCtrl mc(memConfig(), 0);
    // Run un-audited traffic first so bank/refresh state is warm.
    for (int i = 0; i < 200; ++i) {
        MemReq r;
        r.addr = static_cast<BlockAddr>(i) * 613;
        r.kind = ReqKind::Read;
        r.core = 0;
        r.arrival = static_cast<Tick>(i) * 1000;
        r.token = static_cast<std::uint64_t>(i);
        mc.enqueue(r);
    }
    drainAll(mc);

    DramTimingAuditor audit;
    mc.attachAuditor(&audit);
    for (int i = 0; i < 200; ++i) {
        MemReq r;
        r.addr = static_cast<BlockAddr>(i) * 613;
        r.kind = ReqKind::Read;
        r.core = 0;
        r.arrival = 300 * tickPerUs + static_cast<Tick>(i) * 1000;
        r.token = static_cast<std::uint64_t>(i);
        mc.enqueue(r);
    }
    drainAll(mc);
    EXPECT_GE(audit.commandsAudited(), 200u);
}

TEST(DramAudit, ClonedControllerRunsUnaudited)
{
    ScopedPanicThrow guard;
    MemCtrl mc(memConfig(), 0);
    DramTimingAuditor audit;
    mc.attachAuditor(&audit);

    // A copy (what the Offline oracle does) must not feed commands
    // into the original's shadow: its stream would diverge.
    MemCtrl clone(mc);
    for (int i = 0; i < 50; ++i) {
        MemReq r;
        r.addr = static_cast<BlockAddr>(i) * 79;
        r.kind = ReqKind::Read;
        r.core = 0;
        r.arrival = static_cast<Tick>(i) * 500;
        r.token = static_cast<std::uint64_t>(i);
        clone.enqueue(r);
    }
    drainAll(clone);
    EXPECT_EQ(audit.commandsAudited(), 0u);
}

// ---------------------------------------------------------------------
// DDR3 timing auditor: injected violations, one per rule.
// ---------------------------------------------------------------------

/** A synthetic single-channel seed with refresh pushed out of the way. */
ChannelAuditSeed
syntheticSeed(int ranks = 1, bool open_page = false)
{
    ChannelAuditSeed seed;
    seed.timing = ResolvedTiming::resolve(DramTimingParams{}, 800 * MHz);
    seed.rowPolicy = open_page ? RowPolicy::Open : RowPolicy::ClosedAuto;
    seed.ranks = ranks;
    seed.banksPerRank = 8;
    seed.rankSeeds.resize(static_cast<size_t>(ranks));
    for (auto &rs : seed.rankSeeds)
        rs.nextRefreshDue = 1'000'000'000;
    return seed;
}

/** A legal closed-page read: ACT at @p issue, earliest data. */
DramCmdEvent
actRead(const ResolvedTiming &t, int bank, Tick issue, int rank = 0)
{
    DramCmdEvent ev;
    ev.channel = 0;
    ev.rank = rank;
    ev.bank = bank;
    ev.isWrite = false;
    ev.rowHit = false;
    ev.arrival = 0;
    ev.issue = issue;
    ev.dataStart = issue + t.tRCD + t.tCL;
    ev.dataEnd = ev.dataStart + t.tBURST;
    return ev;
}

class DramAuditInject : public ::testing::Test
{
  protected:
    void
    seed(int ranks = 1, bool open_page = false)
    {
        s = syntheticSeed(ranks, open_page);
        audit.seedChannel(0, s);
    }

    ScopedPanicThrow guard;
    DramTimingAuditor audit;
    ChannelAuditSeed s;
};

TEST_F(DramAuditInject, CatchesTrrdViolation)
{
    seed();
    const ResolvedTiming &t = s.timing;
    EXPECT_NO_THROW(audit.onCommand(actRead(t, 0, 100000)));
    // Second ACT on the same rank one tick inside the tRRD window.
    EXPECT_THROW(audit.onCommand(actRead(t, 1, 100000 + t.tRRD - 1)),
                 CheckFailure);
}

TEST_F(DramAuditInject, CatchesTfawViolation)
{
    seed();
    const ResolvedTiming &t = s.timing;
    ASSERT_LT(4 * t.tRRD, t.tFAW) << "parameters no longer exercise tFAW";
    Tick base = 100000;
    // Four ACTs at exactly tRRD spacing are legal...
    for (int i = 0; i < 4; ++i) {
        EXPECT_NO_THROW(audit.onCommand(
            actRead(t, i, base + static_cast<Tick>(i) * t.tRRD)));
    }
    // ...but the fifth lands inside the four-activate window.
    EXPECT_THROW(audit.onCommand(actRead(t, 4, base + 4 * t.tRRD)),
                 CheckFailure);
}

TEST_F(DramAuditInject, CatchesBankCycleViolation)
{
    seed();
    const ResolvedTiming &t = s.timing;
    DramCmdEvent first = actRead(t, 0, 100000);
    EXPECT_NO_THROW(audit.onCommand(first));
    // Re-activating the same bank before tRAS + tRP have elapsed.
    Tick too_early = first.issue + t.tRAS + t.tRP - 1;
    EXPECT_THROW(audit.onCommand(actRead(t, 0, too_early)),
                 CheckFailure);
}

TEST_F(DramAuditInject, CatchesBusOverlap)
{
    seed(2);
    const ResolvedTiming &t = s.timing;
    DramCmdEvent first = actRead(t, 0, 100000, 0);
    EXPECT_NO_THROW(audit.onCommand(first));
    // Different rank dodges tRRD/tFAW, but its burst overlaps the
    // first command's occupancy of the shared data bus.
    DramCmdEvent second = actRead(t, 0, 100000 + 2000, 1);
    ASSERT_LT(second.dataStart, first.dataEnd);
    EXPECT_THROW(audit.onCommand(second), CheckFailure);
}

TEST_F(DramAuditInject, CatchesWrongBurstLength)
{
    seed();
    DramCmdEvent ev = actRead(s.timing, 0, 100000);
    ev.dataEnd = ev.dataStart + s.timing.tBURST / 2;
    EXPECT_THROW(audit.onCommand(ev), CheckFailure);
}

TEST_F(DramAuditInject, CatchesCasLatencyViolation)
{
    seed();
    DramCmdEvent ev = actRead(s.timing, 0, 100000);
    ev.dataStart = ev.issue + s.timing.tRCD + s.timing.tCL - 1000;
    ev.dataEnd = ev.dataStart + s.timing.tBURST;
    EXPECT_THROW(audit.onCommand(ev), CheckFailure);
}

TEST_F(DramAuditInject, CatchesCommandInsideRecalibrationHalt)
{
    seed();
    ResolvedTiming slower =
        ResolvedTiming::resolve(DramTimingParams{}, 400 * MHz);
    audit.onFrequencyChange(0, slower, 200000);
    EXPECT_THROW(audit.onCommand(actRead(slower, 0, 150000)),
                 CheckFailure);
    // At the halt boundary the same command is legal again.
    EXPECT_NO_THROW(audit.onCommand(actRead(slower, 0, 200000)));
}

TEST_F(DramAuditInject, CatchesCommandInsideRefreshWindow)
{
    seed();
    s.rankSeeds[0].nextRefreshDue = 1000;
    audit.seedChannel(0, s);
    // The first command's timing floors all sit below the due date,
    // so it may be postponed past it without executing the refresh
    // (JEDEC REF postponement, as the controller models it).
    EXPECT_NO_THROW(audit.onCommand(actRead(s.timing, 0, 2000)));
    EXPECT_EQ(audit.refreshesReplayed(), 0u);
    // The second command's tRRD floor (previous ACT + tRRD) crosses
    // the due date, forcing the refresh: window [1000, 1000 + tRFC).
    // An issue inside that window is illegal.
    ASSERT_LT(Tick{50000}, 1000 + s.timing.tRFC);
    EXPECT_THROW(audit.onCommand(actRead(s.timing, 1, 50000)),
                 CheckFailure);
    EXPECT_GT(audit.refreshesReplayed(), 0u);
}

TEST_F(DramAuditInject, CatchesCommitOrderViolation)
{
    seed();
    EXPECT_NO_THROW(audit.onCommand(actRead(s.timing, 0, 100000)));
    EXPECT_THROW(audit.onCommand(actRead(s.timing, 1, 90000)),
                 CheckFailure);
}

TEST_F(DramAuditInject, CatchesRowHitUnderClosedPage)
{
    seed();
    DramCmdEvent ev = actRead(s.timing, 0, 100000);
    ev.rowHit = true;
    ev.dataStart = ev.issue + s.timing.tCL;
    ev.dataEnd = ev.dataStart + s.timing.tBURST;
    EXPECT_THROW(audit.onCommand(ev), CheckFailure);
}

TEST_F(DramAuditInject, CatchesIssueBeforeArrival)
{
    seed();
    DramCmdEvent ev = actRead(s.timing, 0, 100000);
    ev.arrival = ev.issue + 1;
    EXPECT_THROW(audit.onCommand(ev), CheckFailure);
}

// ---------------------------------------------------------------------
// Energy-conservation auditor.
// ---------------------------------------------------------------------

/** A short profiled run whose profile/model feed the model audits. */
class AuditedProfile : public ::testing::Test
{
  protected:
    AuditedProfile()
        : cfg(makeScaledConfig(0.02)),
          sys(cfg, expandMix(mixByName("MID1"), cfg.numCores,
                             cfg.instrBudget)),
          em(sys.energyModel())
    {
        start = sys.snapshot();
        sys.run(cfg.profileLen);
        prof = sys.makeProfile(start);
    }

    SystemConfig cfg;
    System sys;
    EnergyModel em;
    CounterSnapshot start;
    SystemProfile prof;
};

TEST_F(AuditedProfile, EnergyModelComponentsSumToSystemPower)
{
    ScopedPanicThrow guard;
    EnergyAuditor ea;
    FreqConfig all_max = FreqConfig::allMax(cfg.numCores);
    EXPECT_NO_THROW(ea.auditCandidate(em, prof, all_max));

    // A scaled-down candidate must conserve too.
    FreqConfig slow = all_max;
    slow.memIdx = cfg.memLadder.size() - 1;
    for (int &c : slow.coreIdx)
        c = cfg.coreLadder.size() - 1;
    EXPECT_NO_THROW(ea.auditCandidate(em, prof, slow));
    EXPECT_EQ(ea.candidatesAudited(), 2u);
}

TEST_F(AuditedProfile, SerEvaluatorAgreesWithReferenceModel)
{
    ScopedPanicThrow guard;
    EnergyAuditor ea;
    SerEvaluator ev(em, prof);
    FreqConfig c = FreqConfig::allMax(cfg.numCores);
    for (int m = 0; m < cfg.memLadder.size(); ++m) {
        c.memIdx = m;
        EXPECT_NO_THROW(ea.auditCandidate(em, ev, prof, c));
    }
}

TEST(EnergyAudit, CatchesMisSummedComponents)
{
    ScopedPanicThrow guard;
    EnergyAuditor ea;
    EXPECT_NO_THROW(ea.checkConservation(100.0, 60.0, 30.0, 10.0));
    EXPECT_THROW(ea.checkConservation(100.0, 60.0, 30.0, 11.0),
                 CheckFailure);
}

TEST(EnergyAudit, CatchesAccountingDrift)
{
    ScopedPanicThrow guard;
    EnergyAuditor ea;
    ea.onWindowEnergy(100.0, 40.0, 20.0, 2.0);
    ea.onWindowEnergy(90.0, 50.0, 20.0, 1.0);
    // Matching component streams pass...
    EXPECT_NO_THROW(ea.auditRunTotals(100.0 * 2 + 90.0, 40.0 * 2 + 50.0,
                                      20.0 * 2 + 20.0));
    // ...an epoch dropped from one component stream does not.
    EXPECT_THROW(ea.auditRunTotals(100.0 * 2, 40.0 * 2 + 50.0,
                                   20.0 * 2 + 20.0),
                 CheckFailure);
}

// ---------------------------------------------------------------------
// Performance-model residual auditor.
// ---------------------------------------------------------------------

TEST_F(AuditedProfile, ResidualAuditorAcceptsConsistentEpoch)
{
    ScopedPanicThrow guard;
    PerfAuditor pa(sys.numApps(), cfg.gamma);
    EpochObservation obs;
    obs.epochProfile = prof;
    obs.applied = FreqConfig::allMax(cfg.numCores);
    obs.instrs = sys.instrsSince(start);
    obs.epochTicks = sys.now();
    EXPECT_NO_THROW(pa.onEpoch(obs, em));
    EXPECT_EQ(pa.epochsAudited(), 1u);
}

TEST_F(AuditedProfile, ResidualAuditorCatchesImpossiblyFastEpoch)
{
    ScopedPanicThrow guard;
    PerfAuditor pa(sys.numApps(), cfg.gamma);
    EpochObservation obs;
    obs.epochProfile = prof;
    obs.applied = FreqConfig::allMax(cfg.numCores);
    // Claim two million instructions retired in one nanosecond: far
    // beyond what Eq. 1 allows at any frequency.
    obs.instrs.assign(static_cast<size_t>(cfg.numCores), 2'000'000);
    obs.epochTicks = 1000;
    EXPECT_THROW(pa.onEpoch(obs, em), CheckFailure);
}

TEST_F(AuditedProfile, ResidualAuditorShadowsSlackLedger)
{
    ScopedPanicThrow guard;
    PerfAuditor pa(sys.numApps(), cfg.gamma);
    EpochObservation obs;
    obs.epochProfile = prof;
    obs.applied = FreqConfig::allMax(cfg.numCores);
    obs.instrs = sys.instrsSince(start);
    obs.epochTicks = sys.now();
    for (int e = 0; e < 5; ++e)
        pa.onEpoch(obs, em);
    EXPECT_EQ(pa.epochsAudited(), 5u);
    // At the all-max reference the per-epoch credit is
    // instrs * ref * (1 + gamma) against elapsed = instrs * measured;
    // the shadow must stay finite and replay-consistent (checked
    // internally), and with gamma > 0 a busy app accumulates slack.
    double s0 = pa.shadowSlackSecs(0);
    EXPECT_TRUE(std::isfinite(s0));
}

// ---------------------------------------------------------------------
// Audited end-to-end sweep: every policy family under all three
// auditors on a scaled-down workload.
// ---------------------------------------------------------------------

TEST(AuditSmoke, FullPolicySweepRunsCleanUnderAllAuditors)
{
    ScopedPanicThrow guard;
    SystemConfig cfg = makeScaledConfig(0.02);

    std::vector<std::unique_ptr<Policy>> policies;
    policies.push_back(std::make_unique<BaselinePolicy>());
    policies.push_back(
        std::make_unique<CoScalePolicy>(cfg.numCores, cfg.gamma));
    policies.push_back(
        std::make_unique<MemScalePolicy>(cfg.numCores, cfg.gamma));
    policies.push_back(
        std::make_unique<SemiCoordinatedPolicy>(cfg.numCores, cfg.gamma));
    policies.push_back(
        std::make_unique<UncoordinatedPolicy>(cfg.numCores, cfg.gamma));

    for (auto &policy : policies) {
        SCOPED_TRACE(policy->name());
        AuditSet audit(cfg.numCores, policy->slackGamma());
        RunResult r =
            coscale::run(RunRequest::forMix(cfg, mixByName("MID3")).with(*policy).withAudit(&audit));
        EXPECT_GT(r.totalInstrs, 0u);
        EXPECT_GT(audit.dram.commandsAudited(), 0u);
        EXPECT_GT(audit.dram.refreshesReplayed(), 0u);
        EXPECT_GT(audit.energy.windowsAudited(), 0u);
        EXPECT_GT(audit.perf.epochsAudited(), 0u);
    }
}

TEST(AuditSmoke, RunnerAutoAttachesWhenEnvRequestsAuditing)
{
    ScopedPanicThrow guard;
    // auditingEnabled() caches its env lookup per process; this test
    // only verifies the explicit-AuditSet path composes with the
    // default-off path (no env set in the test harness).
    SystemConfig cfg = makeScaledConfig(0.01);
    BaselinePolicy base;
    RunResult r = coscale::run(RunRequest::forMix(cfg, mixByName("ILP2")).with(base));
    EXPECT_GT(r.totalInstrs, 0u);
}

} // namespace
} // namespace coscale

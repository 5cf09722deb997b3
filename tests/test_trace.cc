/**
 * @file
 * Tests for the trace substrate: synthetic generator statistics
 * (rates, mixes, phases, determinism, clone semantics) and the binary
 * trace file round-trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

namespace coscale {
namespace {

AppSpec
simpleApp(double l1_mpki = 20.0, double llc_mpki = 5.0,
          double write_frac = 0.3)
{
    AppSpec s;
    s.name = "test";
    AppPhase p;
    p.instructions = 10'000'000;
    p.baseCpi = 1.2;
    p.l1Mpki = l1_mpki;
    p.llcMpki = llc_mpki;
    p.writeFrac = write_frac;
    p.seqRunLen = 8.0;
    p.hotBlocks = 1024;
    s.phases.push_back(p);
    return s;
}

TEST(Synthetic, GapMatchesL1Mpki)
{
    SyntheticTraceSource src(simpleApp(20.0), 0, 1);
    std::uint64_t instrs = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        instrs += src.next().gapInstrs;
    double mpki = 1000.0 * n / static_cast<double>(instrs);
    EXPECT_NEAR(mpki, 20.0, 1.0);
}

TEST(Synthetic, CyclesTrackBaseCpi)
{
    SyntheticTraceSource src(simpleApp(), 0, 2);
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    for (int i = 0; i < 50000; ++i) {
        TraceRecord r = src.next();
        instrs += r.gapInstrs;
        cycles += r.gapCycles;
    }
    EXPECT_NEAR(static_cast<double>(cycles) / instrs, 1.2, 0.05);
}

TEST(Synthetic, WriteFraction)
{
    SyntheticTraceSource src(simpleApp(20, 5, 0.4), 0, 3);
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += src.next().isWrite;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.4, 0.02);
}

TEST(Synthetic, InstructionMixFractions)
{
    SyntheticTraceSource src(simpleApp(), 0, 4);
    double alu = 0, fpu = 0, br = 0, mem = 0, instrs = 0;
    for (int i = 0; i < 50000; ++i) {
        TraceRecord r = src.next();
        alu += r.aluOps;
        fpu += r.fpuOps;
        br += r.branchOps;
        mem += r.memOps;
        instrs += r.gapInstrs;
    }
    EXPECT_NEAR(alu / instrs, 0.45, 0.02);
    EXPECT_NEAR(fpu / instrs, 0.05, 0.01);
    EXPECT_NEAR(br / instrs, 0.15, 0.02);
    EXPECT_NEAR(mem / instrs, 0.35, 0.02);
}

TEST(Synthetic, StreamVsHotAddressSplit)
{
    // With llcMpki/l1Mpki = 0.25 intent, ~25% of accesses should
    // stream beyond the hot region.
    AppSpec app = simpleApp(20.0, 5.0);
    SyntheticTraceSource src(app, 0, 5);
    BlockAddr base = 0;
    BlockAddr hot_limit = app.phases[0].hotBlocks;
    int streaming = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        TraceRecord r = src.next();
        if (r.addr - base >= hot_limit)
            streaming += 1;
    }
    EXPECT_NEAR(static_cast<double>(streaming) / n, 0.25, 0.02);
}

TEST(Synthetic, AddressSpacesDisjointAcrossCores)
{
    SyntheticTraceSource a(simpleApp(), 0, 6);
    SyntheticTraceSource b(simpleApp(), 1, 6);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(a.next().addr, BlockAddr(1) << 34);
        EXPECT_GE(b.next().addr, BlockAddr(1) << 34);
    }
}

TEST(Synthetic, DeterministicForSameSeed)
{
    SyntheticTraceSource a(simpleApp(), 0, 7);
    SyntheticTraceSource b(simpleApp(), 0, 7);
    for (int i = 0; i < 1000; ++i) {
        TraceRecord ra = a.next();
        TraceRecord rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.gapInstrs, rb.gapInstrs);
        EXPECT_EQ(ra.gapCycles, rb.gapCycles);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
    }
}

TEST(Synthetic, ClonePreservesPosition)
{
    SyntheticTraceSource src(simpleApp(), 0, 8);
    for (int i = 0; i < 500; ++i)
        src.next();
    auto clone = src.clone();
    for (int i = 0; i < 500; ++i) {
        TraceRecord a = src.next();
        TraceRecord b = clone->next();
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.gapInstrs, b.gapInstrs);
    }
}

TEST(Synthetic, PhasesChangeIntensity)
{
    AppSpec app;
    app.name = "phased";
    AppPhase light;
    light.instructions = 1'000'000;
    light.l1Mpki = 20;
    light.llcMpki = 1.0;
    AppPhase heavy = light;
    heavy.llcMpki = 15.0;
    app.phases = {light, heavy};

    SyntheticTraceSource src(app, 0, 9);
    // Consume most of the light phase, then sample the heavy one.
    auto measure_stream_frac = [&](std::uint64_t instr_budget) {
        std::uint64_t instrs = 0;
        int stream = 0, n = 0;
        while (instrs < instr_budget) {
            TraceRecord r = src.next();
            instrs += r.gapInstrs;
            n += 1;
            if (r.addr >= light.hotBlocks)
                stream += 1;
        }
        return static_cast<double>(stream) / n;
    };
    double frac_light = measure_stream_frac(800'000);
    // Skip the phase boundary and its ramp.
    measure_stream_frac(500'000);
    double frac_heavy = measure_stream_frac(500'000);
    EXPECT_LT(frac_light, 0.10);
    EXPECT_GT(frac_heavy, 0.5);
}

TEST(Synthetic, PhaseRampIsGradual)
{
    AppSpec app;
    AppPhase a;
    a.instructions = 1'000'000;
    a.l1Mpki = 20;
    a.llcMpki = 0.0;
    AppPhase b = a;
    b.llcMpki = 20.0;   // miss everything
    app.name = "ramp";
    app.phases = {a, b};

    SyntheticTraceSource src(app, 0, 10);
    std::uint64_t instrs = 0;
    while (instrs < 1'000'000)
        instrs += src.next().gapInstrs;
    // First ~7% of phase b (half of the 15% ramp): stream fraction
    // should be clearly below the full-phase intensity.
    int stream = 0, n = 0;
    std::uint64_t start = instrs;
    while (instrs < start + 70'000) {
        TraceRecord r = src.next();
        instrs += r.gapInstrs;
        n += 1;
        if (r.addr >= a.hotBlocks)
            stream += 1;
    }
    double early = static_cast<double>(stream) / n;
    EXPECT_LT(early, 0.75);
    EXPECT_GT(early, 0.05);
}

TEST(TraceHandle, CopyClones)
{
    TraceHandle h(std::make_unique<SyntheticTraceSource>(simpleApp(), 0,
                                                         11));
    h.next();
    TraceHandle copy = h;
    TraceRecord a = h.next();
    TraceRecord b = copy.next();
    EXPECT_EQ(a.addr, b.addr);
    // Diverge independently afterwards.
    h.next();
    TraceRecord c = h.next();
    TraceRecord d = copy.next();
    EXPECT_EQ(c.gapInstrs, c.gapInstrs);
    (void)d;
}

/** Every field of @p got equals @p want's. */
void
expectSameRecord(const TraceRecord &got, const TraceRecord &want)
{
    EXPECT_EQ(got.addr, want.addr);
    EXPECT_EQ(got.gapInstrs, want.gapInstrs);
    EXPECT_EQ(got.gapCycles, want.gapCycles);
    EXPECT_EQ(got.aluOps, want.aluOps);
    EXPECT_EQ(got.fpuOps, want.fpuOps);
    EXPECT_EQ(got.branchOps, want.branchOps);
    EXPECT_EQ(got.memOps, want.memOps);
    EXPECT_EQ(got.isWrite, want.isWrite);
}

TEST(TraceHandle, CopyMidRingContinuesTheStream)
{
    // The handle hands out exactly its source's stream, in order.
    SyntheticTraceSource ref(simpleApp(), 0, 21);
    TraceHandle h(std::make_unique<SyntheticTraceSource>(simpleApp(), 0,
                                                         21));
    // Stop mid-stream, so a copy must carry the record generated
    // ahead as well as the source's position.
    for (int i = 0; i < 4; ++i)
        expectSameRecord(h.next(), ref.next());

    TraceHandle copy = h;
    TraceHandle assigned;
    assigned = h;
    SyntheticTraceSource ref_copy = ref;
    SyntheticTraceSource ref_assigned = ref;
    const int n = 8;
    for (int i = 0; i < n; ++i)
        expectSameRecord(copy.next(), ref_copy.next());
    for (int i = 0; i < n; ++i)
        expectSameRecord(assigned.next(), ref_assigned.next());
    // The original is untouched by its copies.
    for (int i = 0; i < n; ++i)
        expectSameRecord(h.next(), ref.next());
}

TEST(TraceFile, RoundTrip)
{
    std::string path = "test_trace_roundtrip.bin";
    std::vector<TraceRecord> records;
    {
        SyntheticTraceSource src(simpleApp(), 0, 12);
        TraceFileWriter w(path);
        for (int i = 0; i < 1000; ++i) {
            TraceRecord r = src.next();
            records.push_back(r);
            w.append(r);
        }
        w.close();
        EXPECT_EQ(w.recordsWritten(), 1000u);
    }
    auto buf = loadTraceFile(path);
    ASSERT_EQ(buf->size(), 1000u);
    for (size_t i = 0; i < 1000; ++i) {
        EXPECT_EQ((*buf)[i].addr, records[i].addr);
        EXPECT_EQ((*buf)[i].gapInstrs, records[i].gapInstrs);
        EXPECT_EQ((*buf)[i].gapCycles, records[i].gapCycles);
        EXPECT_EQ((*buf)[i].aluOps, records[i].aluOps);
        EXPECT_EQ((*buf)[i].isWrite, records[i].isWrite);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, ReplayWrapsAround)
{
    std::string path = "test_trace_wrap.bin";
    {
        TraceFileWriter w(path);
        for (int i = 0; i < 10; ++i) {
            TraceRecord r;
            r.addr = static_cast<BlockAddr>(i);
            r.gapInstrs = 1;
            r.gapCycles = 1;
            w.append(r);
        }
    }
    ReplayTraceSource src(loadTraceFile(path));
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(src.next().addr, static_cast<BlockAddr>(i));
    }
    std::remove(path.c_str());
}

TEST(TraceFile, ReplayCloneIsCheapAndIndependent)
{
    std::string path = "test_trace_clone.bin";
    {
        TraceFileWriter w(path);
        for (int i = 0; i < 5; ++i) {
            TraceRecord r;
            r.addr = static_cast<BlockAddr>(i);
            w.append(r);
        }
    }
    ReplayTraceSource src(loadTraceFile(path));
    src.next();
    auto clone = src.clone();
    EXPECT_EQ(src.next().addr, clone->next().addr);
    src.next();
    EXPECT_NE(src.next().addr, clone->next().addr);
    std::remove(path.c_str());
}

} // namespace
} // namespace coscale

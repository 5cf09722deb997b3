/**
 * @file
 * Unit tests for the shared LLC: geometry, hit/miss behaviour, LRU
 * replacement, dirty-writeback generation, the next-line prefetcher
 * (issue, accuracy accounting, pollution writebacks), and an
 * access-for-access comparison with a naive stamp-based reference.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/llc.hh"
#include "check/contract.hh"

namespace coscale {
namespace {

LlcConfig
tinyConfig(int ways = 2, std::uint64_t blocks = 16)
{
    LlcConfig cfg;
    cfg.sizeBytes = blocks * blockBytes;
    cfg.ways = ways;
    return cfg;
}

TEST(Llc, GeometryOfPaperConfig)
{
    Llc llc{LlcConfig{}};
    // 16 MB / 64 B / 16 ways = 16384 sets.
    EXPECT_EQ(llc.numSets(), 16384);
    EXPECT_EQ(llc.hitLatency(), nsToTicks(7.5));
}

TEST(Llc, MissThenHit)
{
    Llc llc(tinyConfig());
    LlcAccessResult r1 = llc.access(0x42, false);
    EXPECT_FALSE(r1.hit);
    LlcAccessResult r2 = llc.access(0x42, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(llc.counters().accesses, 2u);
    EXPECT_EQ(llc.counters().hits, 1u);
    EXPECT_EQ(llc.counters().misses, 1u);
}

TEST(Llc, ProbeDoesNotDisturbState)
{
    Llc llc(tinyConfig());
    EXPECT_FALSE(llc.probe(7));
    llc.access(7, false);
    EXPECT_TRUE(llc.probe(7));
    EXPECT_EQ(llc.counters().accesses, 1u);
}

TEST(Llc, LruEvictsOldest)
{
    // 2-way, 8 sets: addresses 0, 8, 16 share set 0.
    Llc llc(tinyConfig(2, 16));
    llc.access(0, false);
    llc.access(8, false);
    llc.access(0, false);   // make 0 the MRU
    llc.access(16, false);  // evicts 8
    EXPECT_TRUE(llc.probe(0));
    EXPECT_FALSE(llc.probe(8));
    EXPECT_TRUE(llc.probe(16));
}

TEST(Llc, DirtyEvictionGeneratesWriteback)
{
    Llc llc(tinyConfig(2, 16));
    llc.access(0, true);    // dirty
    llc.access(8, false);
    LlcAccessResult r = llc.access(16, false);  // evicts dirty 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0u);
    EXPECT_EQ(llc.counters().writebacks, 1u);
}

TEST(Llc, CleanEvictionGeneratesNoWriteback)
{
    Llc llc(tinyConfig(2, 16));
    llc.access(0, false);
    llc.access(8, false);
    LlcAccessResult r = llc.access(16, false);
    EXPECT_FALSE(r.writeback);
    EXPECT_EQ(llc.counters().writebacks, 0u);
}

TEST(Llc, WriteHitMarksLineDirty)
{
    Llc llc(tinyConfig(2, 16));
    llc.access(0, false);   // clean insert
    llc.access(0, true);    // write hit dirties it
    llc.access(8, false);
    LlcAccessResult r = llc.access(16, false);  // evicts 0
    EXPECT_TRUE(r.writeback);
}

TEST(Llc, PrefetcherIssuesNextLine)
{
    LlcConfig cfg = tinyConfig(4, 64);
    cfg.prefetchNextLine = true;
    Llc llc(cfg);
    LlcAccessResult r = llc.access(100, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.prefetchIssued);
    EXPECT_EQ(r.prefetchAddr, 101u);
    EXPECT_TRUE(llc.probe(101));
}

TEST(Llc, PrefetchHitCountsAsUseful)
{
    LlcConfig cfg = tinyConfig(4, 64);
    cfg.prefetchNextLine = true;
    Llc llc(cfg);
    llc.access(100, false);       // prefetches 101
    LlcAccessResult r = llc.access(101, false);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.hitOnPrefetch);
    EXPECT_EQ(llc.counters().prefetchIssued, 2u);  // 101 then 102
    EXPECT_EQ(llc.counters().prefetchUseful, 1u);
    EXPECT_DOUBLE_EQ(llc.prefetchAccuracy(), 0.5);
}

TEST(Llc, NoPrefetchWhenLineAlreadyPresent)
{
    LlcConfig cfg = tinyConfig(4, 64);
    cfg.prefetchNextLine = true;
    Llc llc(cfg);
    llc.access(101, false);       // brings in 101 (prefetches 102)
    LlcAccessResult r = llc.access(100, false);  // 101 present
    EXPECT_FALSE(r.prefetchIssued);
}

TEST(Llc, SecondUseOfPrefetchedLineIsNotUsefulAgain)
{
    LlcConfig cfg = tinyConfig(4, 64);
    cfg.prefetchNextLine = true;
    Llc llc(cfg);
    llc.access(100, false);
    llc.access(101, false);
    llc.access(101, false);
    EXPECT_EQ(llc.counters().prefetchUseful, 1u);
}

TEST(Llc, StreamingAccuracyApproachesRunLength)
{
    // A pure sequential stream: every block after the first per run
    // hits on a prefetch; accuracy should be high.
    LlcConfig cfg;
    cfg.sizeBytes = 1 << 20;
    cfg.ways = 16;
    cfg.prefetchNextLine = true;
    Llc llc(cfg);
    for (BlockAddr a = 0; a < 4096; ++a)
        llc.access(a, false);
    EXPECT_GT(llc.prefetchAccuracy(), 0.95);
    // Demand misses collapse to ~1 per stream start.
    EXPECT_LT(llc.counters().misses, 64u);
}

TEST(Llc, CopyIsIndependent)
{
    Llc a(tinyConfig());
    a.access(1, false);
    Llc b = a;
    b.access(2, false);
    EXPECT_EQ(a.counters().accesses, 1u);
    EXPECT_EQ(b.counters().accesses, 2u);
    EXPECT_TRUE(b.probe(1));
    EXPECT_FALSE(a.probe(2));
}

// --- Differential check against a reference LRU ---

/**
 * Reference LLC kept deliberately naive: every line holds its full
 * block address and a unique 64-bit stamp taken from one counter per
 * touch. A miss fills the first empty way of the range it may use,
 * else evicts the lowest stamp in that range; a shadow hit's depth is
 * the number of newer stamps in its set. Same partition, prefetch and
 * shadow semantics as Llc, spelled out without any packing.
 */
class StampLlc
{
  public:
    explicit StampLlc(const LlcConfig &cfg)
        : config(cfg),
          sets(cfg.sizeBytes / blockBytes
               / static_cast<std::uint64_t>(cfg.ways)),
          lines(sets * static_cast<std::uint64_t>(cfg.ways))
    {
    }

    void
    setPartition(const std::vector<int> &counts)
    {
        partBase.clear();
        int base = 0;
        for (int c : counts) {
            partBase.push_back(base);
            base += c;
        }
        partCount = counts;
    }

    void
    setShadowTracking(int cores)
    {
        shadow.assign(static_cast<std::size_t>(cores),
                      std::vector<Line>(lines.size()));
        shadowHits.assign(static_cast<std::size_t>(cores * config.ways),
                          0);
        shadowMisses.assign(static_cast<std::size_t>(cores), 0);
    }

    LlcAccessResult
    access(BlockAddr addr, bool write, int core)
    {
        LlcAccessResult res;
        stats.accesses += 1;
        if (core >= 0 && core < static_cast<int>(shadow.size()))
            shadowAccess(core, addr);
        bool want_prefetch = false;
        Line *line = find(addr);
        if (line != nullptr) {
            stats.hits += 1;
            res.hit = true;
            if (line->prefetched) {
                res.hitOnPrefetch = true;
                stats.prefetchUseful += 1;
                want_prefetch = true;
            }
            line->stamp = ++clock;
            line->dirty = line->dirty || write;
            line->prefetched = false;
        } else {
            stats.misses += 1;
            res.writeback =
                insert(addr, write, false, res.writebackAddr, core);
            want_prefetch = true;
        }
        if (config.prefetchNextLine && want_prefetch
            && find(addr + 1) == nullptr) {
            res.prefetchIssued = true;
            res.prefetchAddr = addr + 1;
            stats.prefetchIssued += 1;
            res.prefetchWriteback = insert(
                addr + 1, false, true, res.prefetchWritebackAddr, core);
        }
        return res;
    }

    LlcCounters stats;
    std::vector<std::uint64_t> shadowHits;   //!< [core * ways + depth]
    std::vector<std::uint64_t> shadowMisses; //!< [core]

  private:
    struct Line
    {
        bool valid = false;
        BlockAddr addr = 0;
        std::uint64_t stamp = 0;
        bool dirty = false;
        bool prefetched = false;
    };

    Line *
    row(std::vector<Line> &array, BlockAddr addr)
    {
        return &array[(addr % sets) * static_cast<std::uint64_t>(config.ways)];
    }

    Line *
    find(BlockAddr addr)
    {
        Line *set = row(lines, addr);
        for (int w = 0; w < config.ways; ++w) {
            if (set[w].valid && set[w].addr == addr)
                return &set[w];
        }
        return nullptr;
    }

    /** First empty way in [lo, hi), else the lowest stamp there. */
    static Line *
    victimIn(Line *set, int lo, int hi)
    {
        for (int w = lo; w < hi; ++w) {
            if (!set[w].valid)
                return &set[w];
        }
        Line *oldest = &set[lo];
        for (int w = lo + 1; w < hi; ++w) {
            if (set[w].stamp < oldest->stamp)
                oldest = &set[w];
        }
        return oldest;
    }

    bool
    insert(BlockAddr addr, bool dirty, bool prefetched, BlockAddr &victim,
           int core)
    {
        int lo = 0;
        int hi = config.ways;
        if (core >= 0 && core < static_cast<int>(partCount.size())) {
            lo = partBase[static_cast<std::size_t>(core)];
            hi = lo + partCount[static_cast<std::size_t>(core)];
        }
        Line *slot = victimIn(row(lines, addr), lo, hi);
        bool dirty_evict = slot->valid && slot->dirty;
        if (dirty_evict) {
            victim = slot->addr;
            stats.writebacks += 1;
        }
        *slot = Line{true, addr, ++clock, dirty, prefetched};
        return dirty_evict;
    }

    void
    shadowAccess(int core, BlockAddr addr)
    {
        Line *set = row(shadow[static_cast<std::size_t>(core)], addr);
        for (int w = 0; w < config.ways; ++w) {
            if (set[w].valid && set[w].addr == addr) {
                int depth = 0;
                for (int v = 0; v < config.ways; ++v) {
                    if (set[v].valid && set[v].stamp > set[w].stamp)
                        depth += 1;
                }
                shadowHits[static_cast<std::size_t>(core * config.ways
                                                    + depth)] += 1;
                set[w].stamp = ++shadowClock;
                return;
            }
        }
        shadowMisses[static_cast<std::size_t>(core)] += 1;
        *victimIn(set, 0, config.ways) =
            Line{true, addr, ++shadowClock, false, false};
    }

    LlcConfig config;
    std::uint64_t sets;
    std::vector<Line> lines;  //!< [set][way]
    std::uint64_t clock = 0;
    std::vector<int> partBase;
    std::vector<int> partCount;
    std::vector<std::vector<Line>> shadow;  //!< [core][set][way]
    std::uint64_t shadowClock = 0;
};

/** splitmix64's output mix: the access stream is a pure hash of i. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

TEST(LlcReference, MatchesStampLruAccessForAccess)
{
    // Eight sets at every associativity, so the cache evicts
    // constantly; the hot range is twice its capacity, so hits land
    // at every stack depth.
    // 63 is the most ways a recency rank can order.
    const int accesses = 20000;
    for (int ways : {1, 2, 4, 8, 16, 63}) {
        for (bool partitioned : {false, true}) {
            if (partitioned && ways < 2)
                continue;  // one way leaves no room for slack
            for (bool prefetch : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << ways << " ways, partition "
                             << partitioned << ", prefetch " << prefetch);
                LlcConfig cfg = tinyConfig(
                    ways, 8 * static_cast<std::uint64_t>(ways));
                cfg.prefetchNextLine = prefetch;
                Llc llc(cfg);
                StampLlc ref(cfg);
                llc.setShadowTracking(3);
                ref.setShadowTracking(3);
                // Core 0 gets a quarter of the ways, core 1 half, and
                // the rest stay unallocated; core 2 and unattributed
                // accesses (-1) are outside the partition and may
                // allocate anywhere. Installed a third of the way in,
                // so the ranges start out holding others' lines.
                std::vector<int> part =
                    ways == 2 ? std::vector<int>{1}
                              : std::vector<int>{ways / 4, ways / 2};
                const std::uint64_t hot =
                    2 * 8 * static_cast<std::uint64_t>(ways);
                for (int i = 0; i < accesses; ++i) {
                    if (partitioned && i == accesses / 3) {
                        llc.setPartition(part);
                        ref.setPartition(part);
                    }
                    std::uint64_t h = mix64(static_cast<std::uint64_t>(i));
                    BlockAddr addr = (h >> 8) % 4 == 0
                                         ? (h >> 16) % (8 * hot)
                                         : (h >> 16) % hot;
                    bool write = (h & 3) == 0;
                    int core = static_cast<int>((h >> 2) % 4) - 1;
                    LlcAccessResult got = llc.access(addr, write, core);
                    LlcAccessResult want = ref.access(addr, write, core);
                    ASSERT_EQ(got.hit, want.hit) << "access " << i;
                    ASSERT_EQ(got.hitOnPrefetch, want.hitOnPrefetch)
                        << "access " << i;
                    ASSERT_EQ(got.writeback, want.writeback)
                        << "access " << i;
                    ASSERT_EQ(got.writebackAddr, want.writebackAddr)
                        << "access " << i;
                    ASSERT_EQ(got.prefetchIssued, want.prefetchIssued)
                        << "access " << i;
                    ASSERT_EQ(got.prefetchAddr, want.prefetchAddr)
                        << "access " << i;
                    ASSERT_EQ(got.prefetchWriteback,
                              want.prefetchWriteback)
                        << "access " << i;
                    ASSERT_EQ(got.prefetchWritebackAddr,
                              want.prefetchWritebackAddr)
                        << "access " << i;
                }
                const LlcCounters &c = llc.counters();
                EXPECT_EQ(c.accesses, ref.stats.accesses);
                EXPECT_EQ(c.hits, ref.stats.hits);
                EXPECT_EQ(c.misses, ref.stats.misses);
                EXPECT_EQ(c.writebacks, ref.stats.writebacks);
                EXPECT_EQ(c.prefetchIssued, ref.stats.prefetchIssued);
                EXPECT_EQ(c.prefetchUseful, ref.stats.prefetchUseful);
                EXPECT_EQ(llc.shadowHits(), ref.shadowHits);
                EXPECT_EQ(llc.shadowMisses(), ref.shadowMisses);
                // The stream must exercise what it claims to.
                EXPECT_GT(c.hits, 0u);
                EXPECT_GT(c.writebacks, 0u);
                if (prefetch) {
                    EXPECT_GT(c.prefetchUseful, 0u);
                }
                if (ways > 1) {
                    EXPECT_GT(ref.shadowHits[static_cast<std::size_t>(
                                  ways - 1)],
                              0u);
                }
            }
        }
    }
}

TEST(Llc, RejectsAssociativityTheRankCannotOrder)
{
    ScopedPanicThrow guard;
    // One set of 64 ways: one more than the rank field can order.
    EXPECT_THROW(Llc{tinyConfig(64, 64)}, CheckFailure);
    EXPECT_NO_THROW(Llc{tinyConfig(63, 63)});
}

} // namespace
} // namespace coscale

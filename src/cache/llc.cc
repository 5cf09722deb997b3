#include "cache/llc.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "check/contract.hh"
#include "common/log.hh"

namespace coscale {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

int
log2OfPowerOfTwo(std::uint64_t v)
{
    int n = 0;
    while ((std::uint64_t(1) << n) < v)
        ++n;
    return n;
}

} // namespace

Llc::Llc(const LlcConfig &cfg)
    : config(cfg), hitLatTicks(nsToTicks(cfg.hitLatencyNs))
{
    std::uint64_t blocks = cfg.sizeBytes / blockBytes;
    COSCALE_CHECK(cfg.ways > 0, "LLC needs at least one way");
    COSCALE_CHECK(cfg.ways <= LineMeta::maxRank,
                  "LLC associativity %d exceeds the %d ways a recency "
                  "rank can order",
                  cfg.ways, LineMeta::maxRank);
    std::uint64_t set_count = blocks / static_cast<std::uint64_t>(cfg.ways);
    COSCALE_CHECK(isPowerOfTwo(set_count),
                  "LLC set count must be a power of two, got %llu",
                  static_cast<unsigned long long>(set_count));
    sets = static_cast<int>(set_count);
    setShift = log2OfPowerOfTwo(set_count);
    setMask = set_count - 1;
    std::uint64_t n = set_count * static_cast<std::uint64_t>(cfg.ways);
    tags.resize(n);  // every way empty: invalidTag is zero
    meta.resize(n);  // and every rank 0
}

inline void
Llc::touch(LineMeta *row, int way, std::uint8_t flags)
{
    // Lines ranked ahead of the touched one are those below its old
    // rank; an empty way (rank 0) sits behind every valid line.
    int limit = row[way].rank();
    if (limit == 0)
        limit = LineMeta::maxRank + 1;
#if defined(__SSE2__)
    if (config.ways == 16) {
        // Every access runs this, and on 16 ways a scalar loop made
        // fleet-capped 17% slower. Ranks stay below 64, so signed
        // byte compares order them exactly. A matching lane is all
        // ones (-1), so subtracting the mask adds one to exactly those
        // ranks; a rank below the limit never carries into the flag
        // bits.
        __m128i *p = reinterpret_cast<__m128i *>(row);
        const __m128i bytes = _mm_loadu_si128(p);
        const __m128i rank = _mm_and_si128(
            bytes, _mm_set1_epi8(static_cast<char>(LineMeta::rankMask)));
        const __m128i ahead = _mm_and_si128(
            _mm_cmpgt_epi8(rank, _mm_setzero_si128()),
            _mm_cmplt_epi8(rank, _mm_set1_epi8(static_cast<char>(limit))));
        _mm_storeu_si128(p, _mm_sub_epi8(bytes, ahead));
    } else
#endif
    {
        for (int w = 0; w < config.ways; ++w) {
            int r = row[w].rank();
            if (r != 0 && r < limit)
                row[w].bits = static_cast<std::uint8_t>(row[w].bits + 1);
        }
    }
    row[way].bits = static_cast<std::uint8_t>(1 | flags);
}

inline int
Llc::victimWay(const LineMeta *row, int lo, int hi) const
{
    int slot = lo;
    for (int w = lo + 1; w < hi; ++w) {
        if (row[w].rank() > row[slot].rank())
            slot = w;
    }
    return slot;
}

int
Llc::findWay(const StoredTag *base, StoredTag tag) const
{
#if defined(__SSE2__)
    // The common 16-way geometry scans its 64-byte tag row with four
    // packed compares instead of a data-dependent branchy loop. Tags
    // are unique within a set, so first-set-bit of the match mask is
    // exactly the way the scalar scan would return.
    if (config.ways == 16) {
        const __m128i needle = _mm_set1_epi32(static_cast<int>(tag));
        const __m128i *row = reinterpret_cast<const __m128i *>(base);
        __m128i eq0 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 0), needle);
        __m128i eq1 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 1), needle);
        __m128i eq2 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 2), needle);
        __m128i eq3 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 3), needle);
        // Narrow the four 32-bit lane masks to one byte per way
        // (saturating packs map 0xffffffff -> 0xff, 0 -> 0) so a
        // single movemask yields way-ordered match bits.
        __m128i half01 = _mm_packs_epi32(eq0, eq1);
        __m128i half23 = _mm_packs_epi32(eq2, eq3);
        __m128i bytes = _mm_packs_epi16(half01, half23);
        int mask = _mm_movemask_epi8(bytes);
        return mask ? __builtin_ctz(static_cast<unsigned>(mask)) : -1;
    }
#endif
    for (int w = 0; w < config.ways; ++w) {
        if (base[w] == tag)
            return w;
    }
    return -1;
}

bool
Llc::probe(BlockAddr addr) const
{
    COSCALE_DCHECK((addr >> setShift) < shiftedTagLimit,
                   "block address overflows the stored tag");
    std::uint64_t base =
        (addr & setMask) * static_cast<std::uint64_t>(config.ways);
    return findWay(&tags[base], tagOf(addr)) >= 0;
}

void
Llc::setPartition(const std::vector<int> &counts)
{
    COSCALE_CHECK(!counts.empty(), "empty partition");
    int sum = 0;
    for (int c : counts) {
        COSCALE_CHECK(c >= 1, "partition way count %d < 1", c);
        sum += c;
    }
    COSCALE_CHECK(sum <= config.ways,
                  "partition allocates %d of %d ways", sum,
                  config.ways);
    partCount = counts;
    partBase.clear();
    int base = 0;
    for (int c : counts) {
        partBase.push_back(base);
        base += c;
    }
    partActive = true;
}

void
Llc::setShadowTracking(int num_cores)
{
    COSCALE_CHECK(num_cores > 0, "shadow tracking needs cores");
    std::uint64_t n = static_cast<std::uint64_t>(num_cores)
                      * static_cast<std::uint64_t>(sets)
                      * static_cast<std::uint64_t>(config.ways);
    shadowTags.assign(n, invalidTag);
    shadowMeta.assign(n, LineMeta{});
    shadowHitsCtr.assign(static_cast<std::uint64_t>(num_cores)
                             * static_cast<std::uint64_t>(config.ways),
                         0);
    shadowMissCtr.assign(static_cast<std::uint64_t>(num_cores), 0);
}

void
Llc::shadowAccess(int core, std::uint64_t set, StoredTag tag)
{
    std::uint64_t ways = static_cast<std::uint64_t>(config.ways);
    std::uint64_t base = (static_cast<std::uint64_t>(core)
                              * static_cast<std::uint64_t>(sets)
                          + set)
                         * ways;
    StoredTag *stags = &shadowTags[base];
    LineMeta *srow = &shadowMeta[base];
    int way = findWay(stags, tag);
    if (way >= 0) {
        // Stack distance: how many lines in this set were touched
        // more recently, which is the line's rank minus one. A hit at
        // depth d needs >= d+1 ways to stay a hit under LRU, which is
        // what builds the miss curve.
        int depth = srow[way].rank() - 1;
        shadowHitsCtr[static_cast<std::uint64_t>(core) * ways
                      + static_cast<std::uint64_t>(depth)] += 1;
    } else {
        shadowMissCtr[static_cast<std::uint64_t>(core)] += 1;
        way = findWay(stags, invalidTag);
        if (way < 0)
            way = victimWay(srow, 0, config.ways);
        stags[way] = tag;
    }
    touch(srow, way, 0);
}

bool
Llc::insert(BlockAddr addr, bool dirty, bool prefetched,
            BlockAddr &victim, int core)
{
    std::uint64_t set = addr & setMask;
    std::uint64_t base = set * static_cast<std::uint64_t>(config.ways);
    StoredTag *tag_base = &tags[base];
    int lo = 0;
    int hi = config.ways;
    int slot;
    if (partActive && core >= 0
        && core < static_cast<int>(partCount.size())) {
        // Allocation restricted to the core's contiguous way range.
        lo = partBase[static_cast<size_t>(core)];
        hi = lo + partCount[static_cast<size_t>(core)];
        slot = -1;
        for (int w = lo; w < hi; ++w) {
            if (tag_base[w] == invalidTag) {
                slot = w;
                break;
            }
        }
    } else {
        // First empty way, if any: same "first match" scan as a tag
        // probe (the sentinel is just another needle), so reuse the
        // fast path.
        slot = findWay(tag_base, invalidTag);
    }
    LineMeta *meta_base = &meta[base];
    bool dirty_evict = false;
    if (slot < 0) {
        slot = victimWay(meta_base, lo, hi);
        if (meta_base[slot].dirty()) {
            dirty_evict = true;
            victim = (static_cast<BlockAddr>(
                          static_cast<StoredTag>(~tag_base[slot]))
                      << setShift)
                     | set;
            stats.writebacks += 1;
        }
    }
    tag_base[slot] = tagOf(addr);
    touch(meta_base, slot, LineMeta::flags(dirty, prefetched));
    return dirty_evict;
}

LlcAccessResult
Llc::access(BlockAddr addr, bool write, int core)
{
    LlcAccessResult res;
    stats.accesses += 1;

    COSCALE_DCHECK((addr >> setShift) < shiftedTagLimit,
                   "block address overflows the stored tag");
    std::uint64_t set = addr & setMask;
    std::uint64_t base = set * static_cast<std::uint64_t>(config.ways);
    if (core >= 0 && !shadowMissCtr.empty()
        && core < static_cast<int>(shadowMissCtr.size()))
        shadowAccess(core, set, tagOf(addr));
    bool want_prefetch = false;
    int way = findWay(&tags[base], tagOf(addr));
    if (way >= 0) {
        LineMeta *row = &meta[base];
        const LineMeta line = row[way];
        stats.hits += 1;
        res.hit = true;
        if (line.prefetched()) {
            // Tagged next-line prefetching: the first demand use of a
            // prefetched line re-arms the prefetcher, so sequential
            // streams stay covered after the initial miss.
            res.hitOnPrefetch = true;
            stats.prefetchUseful += 1;
            want_prefetch = true;
        }
        // Most recently used now, dirty |= write, prefetched cleared
        // (it is false on every post-hit line).
        touch(row, way, LineMeta::flags(line.dirty() || write, false));
    } else {
        stats.misses += 1;
        res.writeback =
            insert(addr, write, false, res.writebackAddr, core);
        want_prefetch = true;
    }

    if (config.prefetchNextLine && want_prefetch) {
        BlockAddr next = addr + 1;
        if (!probe(next)) {
            res.prefetchIssued = true;
            res.prefetchAddr = next;
            stats.prefetchIssued += 1;
            res.prefetchWriteback = insert(next, false, true,
                                           res.prefetchWritebackAddr,
                                           core);
        }
    }
    return res;
}

} // namespace coscale

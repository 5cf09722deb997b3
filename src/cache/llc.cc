#include "cache/llc.hh"

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

int
Llc::findWayScalar(const StoredTag *base, StoredTag tag) const
{
    for (int w = 0; w < config.ways; ++w) {
        if (base[w] == tag)
            return w;
    }
    return -1;
}

void
Llc::ageScalar(LineMeta *row, int limit)
{
    for (int w = 0; w < config.ways; ++w) {
        int r = row[w].rank();
        if (r != 0 && r < limit)
            row[w].bits = static_cast<std::uint8_t>(row[w].bits + 1);
    }
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
Llc::accessMiss(BlockAddr addr, bool write, int core)
{
    LlcAccessResult res;
    stats.misses += 1;
    res.writeback = insert(addr, write, false, res.writebackAddr, core);
    if (config.prefetchNextLine)
        prefetchNextLine(addr, core, res);
    return res;
}

LlcAccessResult
Llc::accessHitPrefetched(BlockAddr addr, int core)
{
    LlcAccessResult res;
    res.hit = true;
    res.hitOnPrefetch = true;
    stats.prefetchUseful += 1;
    if (config.prefetchNextLine)
        prefetchNextLine(addr, core, res);
    return res;
}

void
Llc::prefetchNextLine(BlockAddr addr, int core, LlcAccessResult &res)
{
    BlockAddr next = addr + 1;
    if (probe(next))
        return;
    res.prefetchIssued = true;
    res.prefetchAddr = next;
    stats.prefetchIssued += 1;
    res.prefetchWriteback =
        insert(next, false, true, res.prefetchWritebackAddr, core);
}

} // namespace coscale

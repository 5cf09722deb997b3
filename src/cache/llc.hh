/**
 * @file
 * The shared last-level cache: 16 MB, 16-way, 64 B blocks, LRU,
 * write-back with writeback generation on dirty eviction, and an
 * optional next-line prefetcher (Section 4.2.4).
 *
 * The LLC sits in a fixed voltage/frequency domain (Section 3), so its
 * hit latency is constant in wall-clock terms (30 CPU cycles at the
 * nominal 4 GHz = 7.5 ns) regardless of core or memory DVFS state.
 */

#ifndef COSCALE_CACHE_LLC_HH
#define COSCALE_CACHE_LLC_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "check/contract.hh"
#include "common/types.hh"
#include "stats/perf_counters.hh"

namespace coscale {

/** LLC geometry and behaviour knobs. */
struct LlcConfig
{
    std::uint64_t sizeBytes = std::uint64_t(16) << 20;
    int ways = 16;
    double hitLatencyNs = 7.5;   //!< 30 CPU cycles at nominal 4 GHz
    bool prefetchNextLine = false;
};

/** Result of one LLC access, including side effects to forward. */
struct LlcAccessResult
{
    bool hit = false;
    bool hitOnPrefetch = false;  //!< first demand use of a prefetch
    bool writeback = false;      //!< dirty victim evicted
    BlockAddr writebackAddr = 0;
    bool prefetchIssued = false; //!< next-line fill request to DRAM
    BlockAddr prefetchAddr = 0;
    bool prefetchWriteback = false; //!< eviction caused by the prefetch
    BlockAddr prefetchWritebackAddr = 0;
};

/** Set-associative LLC tag/state array. Plain value type (copyable). */
class Llc
{
  public:
    Llc() = default;
    explicit Llc(const LlcConfig &cfg);

    /**
     * Perform a demand access; returns hit/miss and side effects.
     * @p core attributes the access for way-partitioning and the
     * shadow monitors; -1 (unknown) keeps legacy unattributed
     * behaviour — lookups always probe the whole set either way,
     * only miss *allocation* is restricted (CAT semantics).
     */
    inline LlcAccessResult access(BlockAddr addr, bool write,
                                  int core = -1);

    /**
     * Install a per-core way partition: core i may allocate only in
     * a contiguous range of @p counts[i] ways (each >= 1, summing to
     * at most the associativity; slack ways are simply unallocated).
     * Takes effect on subsequent misses — resident lines are not
     * flushed, matching way-mask hardware.
     */
    void setPartition(const std::vector<int> &counts);

    bool partitionActive() const { return partActive; }

    /** The installed per-core way counts (empty when inactive). */
    const std::vector<int> &partition() const { return partCount; }

    /**
     * Enable per-core UMON shadow tag directories: every demand
     * access with a known core also probes a private full-
     * associativity LRU stack, yielding the per-core miss curve
     * m_i(w) = shadowMiss(i) + sum_{d >= w} shadowHits(i)[d]
     * independent of the installed partition. Zero cost when off.
     */
    void setShadowTracking(int num_cores);

    bool shadowTracking() const { return !shadowMissCtr.empty(); }

    /** Shadow hit counters, core-major [core * ways + depth]. */
    const std::vector<std::uint64_t> &shadowHits() const
    {
        return shadowHitsCtr;
    }

    /** Shadow (full-associativity) misses per core. */
    const std::vector<std::uint64_t> &shadowMisses() const
    {
        return shadowMissCtr;
    }

    /** True if @p addr is currently resident (no state change). */
    bool
    probe(BlockAddr addr) const
    {
        COSCALE_DCHECK((addr >> setShift) < shiftedTagLimit,
                       "block address overflows the stored tag");
        std::uint64_t base =
            (addr & setMask) * static_cast<std::uint64_t>(config.ways);
        return findWay(&tags[base], tagOf(addr)) >= 0;
    }

    /**
     * Host-side hint that @p addr is accessed soon: prefetch its
     * set's tag row and recency row into the host's caches, so the
     * access does not wait on two dependent misses into the tag and
     * meta arrays. A 16-way set's meta row is 16 bytes and never
     * straddles a host cache line. Changes no simulated state.
     *
     * Always inline, as is prefetchRange(): GCC treats a prefetch as
     * free of side effects, so a call to an out-of-line function that
     * only prefetches is deleted as dead code.
     */
    [[gnu::always_inline]] void
    prefetchSet(BlockAddr addr) const
    {
        std::size_t base = static_cast<std::size_t>(addr & setMask)
                           * static_cast<std::size_t>(config.ways);
        std::size_t ways = static_cast<std::size_t>(config.ways);
        prefetchRange(&tags[base], ways * sizeof(StoredTag));
        prefetchRange(&meta[base], ways * sizeof(LineMeta));
    }

    /** Hit latency, in ticks (fixed domain; resolved once). */
    Tick hitLatency() const { return hitLatTicks; }

    const LlcCounters &counters() const { return stats; }

    /** Fraction of issued prefetches that saw a demand hit. */
    double
    prefetchAccuracy() const
    {
        return stats.prefetchIssued
                   ? static_cast<double>(stats.prefetchUseful)
                         / static_cast<double>(stats.prefetchIssued)
                   : 0.0;
    }

    int numSets() const { return sets; }
    const LlcConfig &cfg() const { return config; }

  private:
    /**
     * Stored tag type: the bitwise complement of the block address
     * with the set-index bits shifted off (a bijection within a set,
     * so compares are exact and the victim address reconstructs as
     * (~tag << shift) | set). Block addresses are block *indices*
     * (byte address >> 6) inside a bounded per-core address space (a
     * few times 2^38 at most), so shifted tags fit 32 bits with room
     * to spare (checked per access in debug builds) — and a 16-way
     * tag scan touches exactly one cache line.
     */
    using StoredTag = std::uint32_t;

    /** Shifted tags must stay below this, so none stores as zero. */
    static constexpr BlockAddr shiftedTagLimit = ~StoredTag(0);

    /**
     * Tag-match sentinel for an empty way: no real shifted tag can
     * reach 2^32 - 1, so none complements to zero, and one compare
     * covers validity and match. Zero, so an empty cache is all-zero
     * bytes (see ZeroedAllocator).
     */
    static constexpr StoredTag invalidTag = 0;

    /**
     * Allocator for arrays whose empty state is all-zero bytes: the
     * memory comes from calloc, so default construction writes
     * nothing, and fresh pages stay the host's zero pages until the
     * simulation first touches them. Building a System then costs no
     * pass over the multi-megabyte tag and meta arrays. Only for
     * vectors sized once, from empty.
     */
    template <class T>
    struct ZeroedAllocator
    {
        using value_type = T;

        ZeroedAllocator() = default;
        template <class U>
        ZeroedAllocator(const ZeroedAllocator<U> &) noexcept
        {
        }

        T *
        allocate(std::size_t n)
        {
            void *p = std::calloc(n, sizeof(T));
            if (p == nullptr)
                throw std::bad_alloc();
            return static_cast<T *>(p);
        }

        void deallocate(T *p, std::size_t) noexcept { std::free(p); }

        /** Value-initialization: calloc already zeroed the bytes. */
        template <class U>
        void
        construct(U *) noexcept
        {
        }

        template <class U, class... Args>
        void
        construct(U *p, Args &&...args)
        {
            ::new (static_cast<void *>(p))
                U(std::forward<Args>(args)...);
        }

        friend bool
        operator==(const ZeroedAllocator &,
                   const ZeroedAllocator &) noexcept
        {
            return true;
        }
    };

    /**
     * Per-line state other than the tag, in one byte: the line's
     * recency rank among its set's valid lines in bits 0-5 (1 = most
     * recently used; a set with k valid lines holds ranks 1..k
     * exactly once; 0 = empty way), dirty in bit 6, prefetched
     * (inserted by prefetch, not yet demand-used) in bit 7.
     *
     * The rank is exact LRU state: a per-touch stamp would only ever
     * be compared among the valid lines of one set, so all it carries
     * is that set's recency order, which the rank holds directly. A
     * 16-way set's meta is one 16-byte row that the rank update treats
     * as one SSE2 register, and an empty cache is all-zero bytes. Tags
     * live in their own dense array so the way scan stays within one
     * row.
     */
    struct LineMeta
    {
        std::uint8_t bits = 0;

        static constexpr std::uint8_t rankMask = 0x3f;
        static constexpr std::uint8_t dirtyBit = 0x40;
        static constexpr std::uint8_t prefetchedBit = 0x80;
        /** The largest associativity the rank field can order. */
        static constexpr int maxRank = rankMask;

        int rank() const { return bits & rankMask; }
        bool dirty() const { return (bits & dirtyBit) != 0; }
        bool prefetched() const { return (bits & prefetchedBit) != 0; }

        /** The flag bits of a line being made most recently used. */
        static std::uint8_t
        flags(bool dirty, bool prefetched)
        {
            return static_cast<std::uint8_t>(
                (dirty ? dirtyBit : 0) | (prefetched ? prefetchedBit : 0));
        }
    };
    static_assert(sizeof(LineMeta) == 1, "one meta byte per line");

    /**
     * Make @p way the most recently used line of @p row (one set's
     * meta bytes) with flag bits @p flags: it takes rank 1, and every
     * valid line that ranked ahead of it moves back one (every valid
     * line, when @p way was empty).
     */
    inline void touch(LineMeta *row, int way, std::uint8_t flags);

    /**
     * The least recently used way in [@p lo, @p hi) of @p row, whose
     * ways there are all valid: the highest rank in the range.
     */
    inline int victimWay(const LineMeta *row, int lo, int hi) const;

    /** Prefetch every host cache line overlapping [p, p + bytes). */
    [[gnu::always_inline]] static void
    prefetchRange(const void *p, std::size_t bytes)
    {
        const char *c = static_cast<const char *>(p);
        for (std::size_t off = 0; off < bytes; off += 64)
            __builtin_prefetch(c + off);
        __builtin_prefetch(c + bytes - 1);
    }

    StoredTag tagOf(BlockAddr addr) const
    {
        return ~static_cast<StoredTag>(addr >> setShift);
    }

    /** access() after the tag probe missed: allocate, maybe prefetch. */
    LlcAccessResult accessMiss(BlockAddr addr, bool write, int core);

    /**
     * access() after a demand hit on a line a prefetch brought in:
     * tagged next-line prefetching re-arms on the first demand use,
     * so sequential streams stay covered after the initial miss.
     */
    LlcAccessResult accessHitPrefetched(BlockAddr addr, int core);

    /** The next-line prefetch after @p addr, into @p res. */
    void prefetchNextLine(BlockAddr addr, int core, LlcAccessResult &res);

    /**
     * Insert @p addr into its set, evicting LRU if needed. With an
     * active partition and a known @p core the victim scan is
     * restricted to the core's way range.
     * @return true and the victim address via @p victim if a dirty
     *         line was evicted.
     */
    bool insert(BlockAddr addr, bool dirty, bool prefetched,
                BlockAddr &victim, int core = -1);

    /** Way index of @p tag within @p row (one set's tags), or -1. */
    inline int findWay(const StoredTag *row, StoredTag tag) const;

    // The scalar halves of findWay() and touch(), for associativities
    // other than 16 (and hosts without SSE2): out of line, off the
    // default geometry's hit path.

    /** findWay() one way at a time. */
    int findWayScalar(const StoredTag *row, StoredTag tag) const;

    /** Add one to each valid rank in @p row below @p limit. */
    void ageScalar(LineMeta *row, int limit);

    /** One demand access against @p core's shadow tag directory. */
    void shadowAccess(int core, std::uint64_t set, StoredTag tag);

    LlcConfig config;
    Tick hitLatTicks = 0;         //!< nsToTicks(hitLatencyNs), cached
    int sets = 0;
    int setShift = 0;             //!< log2(sets)
    std::uint64_t setMask = 0;
    //! sets * ways, set-major; all-zero (empty) when built
    std::vector<StoredTag, ZeroedAllocator<StoredTag>> tags;
    //! parallel to tags; all-zero (every rank 0) when built
    std::vector<LineMeta, ZeroedAllocator<LineMeta>> meta;
    LlcCounters stats;

    // Way partition (empty / inactive by default).
    bool partActive = false;
    std::vector<int> partBase;    //!< first way per core
    std::vector<int> partCount;   //!< ways per core

    // Shadow monitors (allocated only by setShadowTracking).
    std::vector<StoredTag> shadowTags;     //!< [core][set][way]
    std::vector<LineMeta> shadowMeta;      //!< parallel ranks, no flags
    std::vector<std::uint64_t> shadowHitsCtr; //!< [core][depth]
    std::vector<std::uint64_t> shadowMissCtr; //!< [core]
};

// --- the hit path, inline so System::run's loop carries it ---
// (always_inline where the compiler's size heuristics would otherwise
// keep a call on every access)

inline int
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
    return findWayScalar(base, tag);
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
        ageScalar(row, limit);
    row[way].bits = static_cast<std::uint8_t>(1 | flags);
}

[[gnu::always_inline]] inline LlcAccessResult
Llc::access(BlockAddr addr, bool write, int core)
{
    stats.accesses += 1;

    COSCALE_DCHECK((addr >> setShift) < shiftedTagLimit,
                   "block address overflows the stored tag");
    std::uint64_t set = addr & setMask;
    std::uint64_t base = set * static_cast<std::uint64_t>(config.ways);
    if (core >= 0 && !shadowMissCtr.empty()
        && core < static_cast<int>(shadowMissCtr.size()))
        shadowAccess(core, set, tagOf(addr));
    int way = findWay(&tags[base], tagOf(addr));
    if (way < 0)
        return accessMiss(addr, write, core);

    LineMeta *row = &meta[base];
    const LineMeta line = row[way];
    stats.hits += 1;
    // Most recently used now, dirty |= write, prefetched cleared
    // (it is false on every post-hit line).
    touch(row, way, LineMeta::flags(line.dirty() || write, false));
    if (line.prefetched())
        return accessHitPrefetched(addr, core);
    LlcAccessResult res;
    res.hit = true;
    return res;
}

} // namespace coscale

#endif // COSCALE_CACHE_LLC_HH

/**
 * @file
 * Unit tests for the deterministic event-scheduler kernel
 * (sim/event_queue.hh): tie-break ordering (the memory controller's
 * rank 0 beats cores at equal ticks, cores fire in index order),
 * reschedule/cancel semantics, the monotonic-clock invariant under
 * back-dated issues (the case documented in System::run), and
 * behaviour at the maxTick sentinel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace coscale {
namespace {

/** Pop the top entry the way System::run does: read it, then park. */
int
popTop(EventQueue &eq)
{
    int rank = eq.topRank();
    eq.schedule(rank, maxTick);
    return rank;
}

TEST(EventQueue, StartsFullyParked)
{
    EventQueue eq(5);
    EXPECT_EQ(eq.size(), 5);
    EXPECT_EQ(eq.topTick(), maxTick);
    for (int r = 0; r < 5; ++r)
        EXPECT_EQ(eq.tickOf(r), maxTick);
}

TEST(EventQueue, EmptyQueueReportsMaxTick)
{
    EventQueue eq(0);
    EXPECT_EQ(eq.size(), 0);
    EXPECT_EQ(eq.topTick(), maxTick);
}

TEST(EventQueue, ControllerBeatsCoresAtEqualTicks)
{
    // Rank 0 is the memory controller, ranks 1..4 are cores; at equal
    // ticks the historical polling loop served the controller first.
    EventQueue eq(5);
    for (int r = 4; r >= 0; --r)
        eq.schedule(r, 1000);
    EXPECT_EQ(eq.topTick(), 1000);
    EXPECT_EQ(eq.topRank(), 0);
}

TEST(EventQueue, CoresFireInIndexOrderAtEqualTicks)
{
    EventQueue eq(9);
    // Schedule in reverse so the order cannot come from insertion.
    for (int r = 8; r >= 1; --r)
        eq.schedule(r, 500);
    std::vector<int> order;
    while (eq.topTick() != maxTick)
        order.push_back(popTop(eq));
    std::vector<int> want = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(order, want);
}

TEST(EventQueue, EarlierTickWinsOverLowerRank)
{
    EventQueue eq(3);
    eq.schedule(0, 2000);
    eq.schedule(2, 1000);
    EXPECT_EQ(eq.topRank(), 2);
    EXPECT_EQ(eq.topTick(), 1000);
}

TEST(EventQueue, RescheduleMovesBothDirections)
{
    EventQueue eq(4);
    eq.schedule(1, 1000);
    eq.schedule(2, 2000);
    EXPECT_EQ(eq.topRank(), 1);

    // Later: rank 1 defers past rank 2.
    eq.schedule(1, 3000);
    EXPECT_EQ(eq.topRank(), 2);
    EXPECT_EQ(eq.tickOf(1), 3000);

    // Earlier: rank 3 jumps to the front.
    eq.schedule(3, 500);
    EXPECT_EQ(eq.topRank(), 3);
    EXPECT_EQ(eq.topTick(), 500);
}

TEST(EventQueue, RescheduleToSameTickIsIdempotent)
{
    EventQueue eq(3);
    eq.schedule(0, 100);
    eq.schedule(1, 100);
    eq.schedule(1, 100);
    eq.schedule(0, 100);
    EXPECT_EQ(eq.topRank(), 0);
    EXPECT_EQ(popTop(eq), 0);
    EXPECT_EQ(popTop(eq), 1);
    EXPECT_EQ(eq.topTick(), maxTick);
}

TEST(EventQueue, ParkingCancelsAPendingEvent)
{
    EventQueue eq(3);
    eq.schedule(0, 100);
    eq.schedule(1, 200);
    eq.schedule(0, maxTick);  // cancel
    EXPECT_EQ(eq.topRank(), 1);
    EXPECT_EQ(eq.topTick(), 200);
    eq.schedule(1, maxTick);
    EXPECT_EQ(eq.topTick(), maxTick);
}

TEST(EventQueue, ParkedComponentsTieBreakByRankAtSentinel)
{
    // All keys equal maxTick is the everything-idle steady state; the
    // queue must stay valid and re-activation must still work.
    EventQueue eq(6);
    eq.schedule(3, 10);
    EXPECT_EQ(popTop(eq), 3);
    EXPECT_EQ(eq.topTick(), maxTick);
    eq.schedule(5, 7);
    eq.schedule(4, 7);
    EXPECT_EQ(popTop(eq), 4);
    EXPECT_EQ(popTop(eq), 5);
    EXPECT_EQ(eq.topTick(), maxTick);
}

TEST(EventQueue, ResetRestoresParkedStateAtNewSize)
{
    EventQueue eq(2);
    eq.schedule(0, 42);
    eq.reset(7);
    EXPECT_EQ(eq.size(), 7);
    EXPECT_EQ(eq.topTick(), maxTick);
    for (int r = 0; r < 7; ++r)
        EXPECT_EQ(eq.tickOf(r), maxTick);
}

TEST(EventQueue, CopyIsIndependent)
{
    // The System deep-copies (Offline clone-ahead); the copy's queue
    // must not alias the original's key array.
    EventQueue a(4);
    a.schedule(1, 100);
    a.schedule(2, 50);
    EventQueue b = a;
    EXPECT_EQ(b.topRank(), 2);
    b.schedule(3, 10);
    EXPECT_EQ(b.topRank(), 3);
    EXPECT_EQ(a.topRank(), 2);  // untouched
    EXPECT_EQ(a.tickOf(3), maxTick);
}

/**
 * The back-dated-issue case documented in System::run: engaging write
 * drain can expose a command whose issue tick the channel back-dates
 * below the current clock. The queue must serve such an event
 * immediately (it is the minimum key), and the kernel's
 * `curTick = max(curTick, topTick)` clamp keeps the simulated clock
 * monotonic. Replay that loop against the queue directly.
 */
TEST(EventQueue, BackDatedIssueKeepsClampedClockMonotonic)
{
    EventQueue eq(3);
    eq.schedule(0, 1000);
    eq.schedule(1, 1200);

    Tick cur = 0;
    cur = std::max(cur, eq.topTick());
    EXPECT_EQ(cur, 1000);
    EXPECT_EQ(popTop(eq), 0);

    // Dispatching rank 0 exposes a command due in the past (tick 800
    // < cur): schedule it back-dated. It must be the next event.
    eq.schedule(0, 800);
    EXPECT_EQ(eq.topRank(), 0);
    EXPECT_EQ(eq.topTick(), 800);

    Tick best = eq.topTick();
    cur = std::max(cur, best);  // the System::run clamp
    EXPECT_EQ(cur, 1000);       // the clock never regresses
    EXPECT_EQ(popTop(eq), 0);

    // The un-clamped event stream continues in key order afterwards.
    cur = std::max(cur, eq.topTick());
    EXPECT_EQ(cur, 1200);
    EXPECT_EQ(popTop(eq), 1);
}

/**
 * Randomized differential test: the queue's (topRank, topTick) must
 * always equal a from-scratch linear scan with the historical
 * tie-break (strict <, lowest rank wins) over any schedule sequence,
 * including back-dated keys and sentinel parks.
 */
TEST(EventQueue, FuzzMatchesLinearScanReference)
{
    constexpr int ranks = 17;  // 1 controller + 16 cores
    EventQueue eq(ranks);
    std::vector<Tick> ref(ranks, maxTick);
    Rng rng(2026);

    auto refTop = [&]() {
        int best_rank = 0;
        for (int r = 1; r < ranks; ++r) {
            if (ref[static_cast<size_t>(r)]
                < ref[static_cast<size_t>(best_rank)]) {
                best_rank = r;
            }
        }
        return best_rank;
    };

    for (int i = 0; i < 20000; ++i) {
        int r = static_cast<int>(rng.range(ranks));
        Tick t;
        std::uint64_t kind = rng.range(10);
        if (kind == 0)
            t = maxTick;  // park
        else if (kind == 1)
            t = eq.topTick() == maxTick ? 0 : eq.topTick();  // tie
        else
            t = static_cast<Tick>(rng.range(1'000'000));
        eq.schedule(r, t);
        ref[static_cast<size_t>(r)] = t;

        int want_rank = refTop();
        Tick want_tick = ref[static_cast<size_t>(want_rank)];
        ASSERT_EQ(eq.topTick(), want_tick) << "iteration " << i;
        if (want_tick != maxTick) {
            ASSERT_EQ(eq.topRank(), want_rank) << "iteration " << i;
        }
        ASSERT_EQ(eq.tickOf(r), t);
    }
}

} // namespace
} // namespace coscale

/**
 * @file
 * Unit tests for serialized-resource timelines, the tick arithmetic
 * they run on, and the panic/assert helpers.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/timeline.hh"

namespace ms = morpheus::sim;

TEST(Timeline, FirstAcquireStartsAtRequest)
{
    ms::Timeline t("t");
    EXPECT_EQ(t.acquire(100, 50), 100u);
    EXPECT_EQ(t.freeAt(), 150u);
}

TEST(Timeline, BackToBackRequestsQueue)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    // Second op asks for tick 10 but the resource is busy until 100.
    EXPECT_EQ(t.acquire(10, 30), 100u);
    EXPECT_EQ(t.freeAt(), 130u);
}

TEST(Timeline, GapsLeaveIdleTime)
{
    ms::Timeline t("t");
    t.acquire(0, 10);
    EXPECT_EQ(t.acquire(100, 10), 100u);
    EXPECT_EQ(t.busyTicks(), 20u);
    EXPECT_DOUBLE_EQ(t.utilization(200), 0.1);
}

TEST(Timeline, AcquireUntilReturnsCompletion)
{
    ms::Timeline t("t");
    EXPECT_EQ(t.acquireUntil(5, 20), 25u);
}

TEST(Timeline, UtilizationClampsToOne)
{
    ms::Timeline t("t");
    t.acquire(0, 1000);
    EXPECT_DOUBLE_EQ(t.utilization(10), 1.0);
    EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
}

TEST(Timeline, ResetClearsState)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    t.reset();
    EXPECT_EQ(t.freeAt(), 0u);
    EXPECT_EQ(t.busyTicks(), 0u);
    EXPECT_EQ(t.ops(), 0u);
}

TEST(TimelineBank, DispatchesToEarliestFreeUnit)
{
    ms::TimelineBank bank("b", 2);
    unsigned unit = 99;
    EXPECT_EQ(bank.acquire(0, 100, &unit), 0u);
    EXPECT_EQ(unit, 0u);
    // Unit 0 busy until 100; unit 1 free: second op runs immediately.
    EXPECT_EQ(bank.acquire(0, 100, &unit), 0u);
    EXPECT_EQ(unit, 1u);
    // Both busy until 100: third op waits.
    EXPECT_EQ(bank.acquire(0, 50, &unit), 100u);
}

TEST(TimelineBank, AcquireUnitTargetsSpecificUnit)
{
    ms::TimelineBank bank("b", 3);
    bank.acquireUnit(2, 0, 40);
    EXPECT_EQ(bank.unit(2).busyTicks(), 40u);
    EXPECT_EQ(bank.unit(0).busyTicks(), 0u);
    EXPECT_EQ(bank.totalBusyTicks(), 40u);
}

TEST(TimelineBankDeath, ZeroUnitsPanics)
{
    EXPECT_DEATH(ms::TimelineBank("b", 0), "at least one unit");
}

TEST(Timeline, GapFillingPlacesLateArrivalsEarly)
{
    // A reservation far in the future must not block a later-issued
    // request for an earlier slot (logically concurrent activities are
    // walked sequentially by the simulator).
    ms::Timeline t("t");
    t.acquire(1000000, 500);
    EXPECT_EQ(t.acquire(0, 200), 0u);          // fills the early gap
    EXPECT_EQ(t.acquire(100, 800000), 200u);   // fits before the island
    EXPECT_EQ(t.freeAt(), 1000500u);
}

TEST(Timeline, GapTooSmallSkipsToNextGap)
{
    ms::Timeline t("t");
    t.acquire(100, 50);   // busy [100,150)
    t.acquire(200, 50);   // busy [200,250)
    // A 80-tick request at 90 does not fit in [150,200); lands at 250.
    EXPECT_EQ(t.acquire(90, 80), 250u);
}

TEST(Timeline, AdjacentReservationsMerge)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    t.acquire(100, 100);
    t.acquire(200, 100);
    EXPECT_EQ(t.intervals(), 1u);
    EXPECT_EQ(t.freeAt(), 300u);
}

TEST(Timeline, ZeroDurationIsFree)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    EXPECT_EQ(t.acquire(50, 0), 50u);  // no occupancy, no queueing
    EXPECT_EQ(t.busyTicks(), 100u);
}

TEST(Timeline, BusyTicksAccumulateAcrossGapFills)
{
    ms::Timeline t("t");
    t.acquire(1000, 10);
    t.acquire(0, 10);
    t.acquire(500, 10);
    EXPECT_EQ(t.busyTicks(), 30u);
    EXPECT_EQ(t.ops(), 3u);
    EXPECT_EQ(t.intervals(), 3u);
}

namespace {

/**
 * Reference Timeline: busy spans in an ordered map, merged on insert.
 * Its placement and merge rules are the specification the flat
 * Timeline must reproduce exactly.
 */
class MapTimeline
{
  public:
    /** Where the last reservation landed, counted from the tail. */
    std::size_t lastDepth = 0;

    ms::Tick
    acquire(ms::Tick earliest, ms::Tick duration)
    {
        ++ops;
        if (duration == 0)
            return earliest;
        busyTicks += duration;
        ms::Tick t = earliest;
        auto it = busy.upper_bound(t);
        if (it != busy.begin()) {
            const auto prev = std::prev(it);
            if (prev->second > t)
                t = prev->second;
        }
        while (it != busy.end() && it->first < t + duration) {
            t = it->second;
            ++it;
        }
        lastDepth = static_cast<std::size_t>(std::distance(it, busy.end()));
        ms::Tick start = t;
        ms::Tick end = t + duration;
        if (!busy.empty() && it != busy.begin()) {
            const auto prev = std::prev(it);
            if (prev->second == start) {
                start = prev->first;
                it = busy.erase(prev);
            }
        }
        if (it != busy.end() && it->first == end) {
            end = it->second;
            it = busy.erase(it);
        }
        busy.emplace(start, end);
        return t;
    }

    ms::Tick freeAt() const
    {
        return busy.empty() ? 0 : busy.rbegin()->second;
    }

    void
    reset()
    {
        busy.clear();
        busyTicks = 0;
        ops = 0;
    }

    std::map<ms::Tick, ms::Tick> busy;
    ms::Tick busyTicks = 0;
    std::uint64_t ops = 0;
};

/** The span at position @p i of the reference map. */
std::pair<ms::Tick, ms::Tick>
spanAt(const MapTimeline &ref, std::size_t i)
{
    auto it = ref.busy.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(i));
    return *it;
}

}  // namespace

TEST(TimelineDifferential, MatchesOrderedMapReference)
{
    // Seeded random mixes of appends, gap fills that join the previous
    // span, the next span or both, zero-length reservations and
    // resets. Each history grows past the 64-span walk-back window,
    // so deep reservations take the binary-search fallback.
    std::size_t deep = 0, join_prev = 0, join_next = 0, join_both = 0,
                zero = 0, resets = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        ms::Rng rng(seed);
        ms::Timeline flat("flat");
        MapTimeline ref;
        for (int op = 0; op < 6000; ++op) {
            ms::Tick earliest = 0;
            ms::Tick duration = 0;
            const std::uint64_t kind = rng.nextBelow(100);
            const std::size_t n = ref.busy.size();
            if (kind == 0 && op % 3000 > 2900) {
                flat.reset();
                ref.reset();
                ++resets;
                ASSERT_EQ(flat.freeAt(), 0u);
                ASSERT_EQ(flat.intervals(), 0u);
                continue;
            } else if (kind < 50 || n < 2) {
                // Append past the tail, mostly leaving a gap.
                earliest = ref.freeAt() + rng.nextBelow(4) * 40;
                duration = 10 + rng.nextBelow(30);
            } else if (kind < 60) {
                // Zero-length reservation anywhere.
                earliest = rng.nextBelow(ref.freeAt() + 100);
                duration = 0;
            } else {
                // Start at a span's end: the reservation joins the
                // previous span, and the next one too when it fills
                // the gap exactly.
                const std::size_t i = rng.nextBelow(n - 1);
                const ms::Tick e0 = spanAt(ref, i).second;
                const ms::Tick s1 = spanAt(ref, i + 1).first;
                const ms::Tick gap = s1 - e0;
                switch (rng.nextBelow(4)) {
                  case 0:  // fill the gap exactly: join both
                    earliest = e0;
                    duration = gap;
                    break;
                  case 1:  // join the previous span only
                    earliest = e0;
                    duration = 1 + rng.nextBelow(gap > 1 ? gap - 1 : 1);
                    break;
                  case 2:  // end where the next span starts
                    duration = 1 + rng.nextBelow(gap > 1 ? gap - 1 : 1);
                    earliest = s1 - duration;
                    break;
                  default:  // too long for the gap: slides onward
                    earliest = e0 + rng.nextBelow(gap);
                    duration = gap + 1 + rng.nextBelow(20);
                    break;
                }
            }
            const std::size_t before = ref.busy.size();
            const ms::Tick want = ref.acquire(earliest, duration);
            const ms::Tick got = flat.acquire(earliest, duration);
            ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
            ASSERT_EQ(flat.freeAt(), ref.freeAt());
            ASSERT_EQ(flat.busyTicks(), ref.busyTicks);
            ASSERT_EQ(flat.ops(), ref.ops);
            ASSERT_EQ(flat.intervals(), ref.busy.size());
            if (duration == 0) {
                ++zero;
                continue;
            }
            if (ref.lastDepth > 64)
                ++deep;
            if (ref.busy.size() + 1 == before)
                ++join_both;
            else if (ref.busy.size() == before && ref.busy.count(want))
                ++join_next;
            else if (ref.busy.size() == before)
                ++join_prev;
        }
    }
    // Every path the flat layout has was exercised.
    EXPECT_GT(deep, 1000u);
    EXPECT_GT(join_prev, 1000u);
    EXPECT_GT(join_next, 1000u);
    EXPECT_GT(join_both, 1000u);
    EXPECT_GT(zero, 1000u);
    EXPECT_GT(resets, 4u);
}

TEST(Tick, ConversionHelpers)
{
    EXPECT_EQ(ms::secondsToTicks(1.0), ms::kPsPerSec);
    EXPECT_DOUBLE_EQ(ms::ticksToSeconds(ms::kPsPerSec), 1.0);
    EXPECT_DOUBLE_EQ(ms::ticksToUs(ms::kPsPerUs), 1.0);
    EXPECT_DOUBLE_EQ(ms::ticksToMs(ms::kPsPerMs), 1.0);
    // Transfers round up: a nonzero payload never takes zero time.
    EXPECT_EQ(ms::transferTicks(0, 1e9), 0u);
    EXPECT_GE(ms::transferTicks(1, 1e15), 1u);
    // 1 GB at 1 GB/s = 1 second.
    EXPECT_EQ(ms::transferTicks(1000000000ULL, 1e9), ms::kPsPerSec);
    // Cycles: 1000 cycles at 1 GHz = 1 us.
    EXPECT_EQ(ms::cyclesToTicks(1000.0, 1e9), ms::kPsPerUs);
}

TEST(LoggingDeath, PanicAbortsAndFatalExits)
{
    // gem5 semantics: panic() = simulator bug -> abort (SIGABRT);
    // fatal() = user error -> exit(1).
    EXPECT_DEATH(MORPHEUS_PANIC("boom ", 42), "panic: boom 42");
    EXPECT_EXIT(MORPHEUS_FATAL("bad config ", 7),
                ::testing::ExitedWithCode(1), "fatal: bad config 7");
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    MORPHEUS_ASSERT(1 + 1 == 2, "arithmetic works");
    EXPECT_DEATH(MORPHEUS_ASSERT(false, "ctx ", 99),
                 "assertion failed");
}

TEST(Logging, LogLevelRoundTrips)
{
    using morpheus::sim::LogLevel;
    const auto old = morpheus::sim::logLevel();
    morpheus::sim::setLogLevel(LogLevel::kQuiet);
    EXPECT_EQ(morpheus::sim::logLevel(), LogLevel::kQuiet);
    morpheus::sim::setLogLevel(old);
}

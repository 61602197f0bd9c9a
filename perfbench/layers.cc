/**
 * @file
 * Host-clock timings of single layers, called through their public
 * functions on inputs the workloads generate. Each figure is the
 * median over several rounds; a round repeats the call until it has
 * run for a minimum time, so short calls are not dominated by clock
 * resolution.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hh"
#include "core/storage_app.hh"
#include "serde/columnar.hh"
#include "sim/rng.hh"
#include "sim/timeline.hh"
#include "workloads/generators.hh"

namespace perfbench {

namespace wk = morpheus::workloads;
namespace serde = morpheus::serde;
namespace sim = morpheus::sim;

namespace {

constexpr int kRounds = 7;
constexpr double kMinRoundSeconds = 0.03;

/** Keeps results observable so the timed calls are not elided. */
volatile std::uint64_t g_sink = 0;

/**
 * Median over rounds of host ns per unit of work. @p prepare runs
 * untimed before every call; @p body does one call and returns the
 * units of work it did.
 */
double
nsPerUnit(const std::function<void()> &prepare,
          const std::function<std::uint64_t()> &body)
{
    prepare();
    body();  // warm-up: first-touch allocations, caches
    std::vector<double> per_unit;
    for (int r = 0; r < kRounds; ++r) {
        double seconds = 0.0;
        std::uint64_t units = 0;
        while (seconds < kMinRoundSeconds) {
            prepare();
            const Clock::time_point t0 = Clock::now();
            units += body();
            seconds += secondsSince(t0);
        }
        per_unit.push_back(seconds * 1e9 / static_cast<double>(units));
    }
    return median(per_unit);
}

}  // namespace

double
timeParse(wk::ObjectKind kind,
          const std::vector<std::vector<std::uint8_t>> &texts)
{
    if (texts.empty())
        return 0.0;
    return nsPerUnit([] {}, [&] {
        std::uint64_t bytes = 0;
        for (const auto &t : texts) {
            serde::ParseCost cost;
            const wk::AnyObject obj =
                wk::parseObject(kind, t.data(), t.size(), &cost);
            g_sink = g_sink + wk::objectBytes(obj);
            bytes += t.size();
        }
        return bytes;
    });
}

double
timeScan(const std::vector<std::vector<std::uint8_t>> &tables,
         double selectivity, unsigned project, unsigned cols)
{
    if (tables.empty())
        return 0.0;
    const serde::ScanSpec spec =
        serde::makeSelectivitySpec(selectivity, project, cols);
    return nsPerUnit([] {}, [&] {
        std::uint64_t bytes = 0;
        for (const auto &t : tables) {
            const serde::ScanResult r =
                serde::scanTable(t.data(), t.size(), spec);
            g_sink = g_sink + r.out.size();
            bytes += t.size();
        }
        return bytes;
    });
}

double
timeSerialize(const std::vector<std::uint32_t> &values,
              std::uint64_t seed)
{
    if (values.empty())
        return 0.0;
    std::vector<wk::AnyObject> objs;
    for (std::size_t i = 0; i < values.size(); ++i)
        objs.emplace_back(wk::genIntArray(seed + i, values[i]));
    return nsPerUnit([] {}, [&] {
        std::uint64_t bytes = 0;
        for (const auto &o : objs)
            bytes += wk::serializeObject(o).size();
        g_sink = g_sink + bytes;
        return bytes;
    });
}

double
timeStaging(std::uint32_t dsram, std::uint32_t flush_threshold)
{
    // One stream's worth of int64 emits, drained the way the device
    // engine drains a chunk: flush segments are taken after every
    // batch of emits, the residual at the end.
    constexpr std::uint64_t kValues = 1 << 18;
    constexpr std::uint64_t kPerChunk = 8192;
    return nsPerUnit([] {}, [&] {
        morpheus::core::MsChunkContext ctx(dsram, flush_threshold, 0);
        std::uint64_t segments = 0;
        for (std::uint64_t i = 0; i < kValues; ++i) {
            ctx.msEmitValue(static_cast<std::int64_t>(i * 2654435761u));
            if ((i + 1) % kPerChunk == 0)
                segments += ctx.takeFlushes().size();
        }
        ctx.flushResidual();
        segments += ctx.takeFlushes().size();
        g_sink = g_sink + segments;
        return kValues;
    });
}

double
timeTimeline(std::size_t intervals, bool gap, std::uint64_t seed)
{
    // History: `intervals` busy spans of length kSpan separated by
    // idle gaps of the same length, so no two spans merge.
    constexpr sim::Tick kSpan = 1000;
    constexpr std::uint64_t kOps = 4096;
    sim::Timeline tl;
    std::vector<sim::Tick> at(kOps);
    sim::Rng rng(seed);
    for (auto &t : at)
        t = rng.nextBelow(intervals) * 2 * kSpan;
    return nsPerUnit(
        [&] {
            tl.reset();
            for (std::size_t i = 0; i < intervals; ++i)
                tl.acquire(static_cast<sim::Tick>(i) * 2 * kSpan, kSpan);
        },
        [&] {
            sim::Tick sum = 0;
            if (gap) {
                // Half-gap reservations starting inside the history.
                for (const sim::Tick t : at)
                    sum += tl.acquire(t, kSpan / 2);
            } else {
                // Appends past the tail, each leaving an idle gap.
                for (std::uint64_t i = 0; i < kOps; ++i)
                    sum += tl.acquire(tl.freeAt() + kSpan, kSpan);
            }
            g_sink = g_sink + sum;
            return kOps;
        });
}

}  // namespace perfbench

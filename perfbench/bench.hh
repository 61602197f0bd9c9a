/**
 * @file
 * Shared declarations of the two-clock benchmark.
 *
 * A workload is a fixed amount of simulated work (a fixed set of
 * seeded runWorkload/runServing calls). main.cc repeats it, times each
 * repetition on the host clock, and reads the simulated clock's
 * figures from the program's own reports. Metric names follow one
 * rule: host_* metrics are host wall-clock figures, sim_* metrics come
 * from the simulated clock and are bit-identical for one seed.
 */

#ifndef MORPHEUS_PERFBENCH_BENCH_HH
#define MORPHEUS_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/objects.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/** One named value; units are declared with the metric lists in
 *  main.cc. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** The outcome of one repetition of a workload. */
struct RepResult
{
    /** Simulated requests attempted and those that failed a check
     *  (rejected, lost, unvalidated, or part of a failed rep). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check. */
    std::vector<std::string> errors;
    /** End-to-end simulated-clock metrics (sim_*), only those that
     *  have a meaning on the workload. */
    std::vector<Metric> sim;
    /** Simulated-clock per-layer metrics (traced repetitions only). */
    std::vector<Metric> layers;

    void
    fail(std::string what)
    {
        errors.push_back(std::move(what));
    }
};

/** A workload: fixed simulated work, repeatable bit for bit. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate the inputs and build and ingest the simulated system,
     *  without serving a request: what setup_s times. */
    virtual void setup() = 0;

    /** Run the whole workload once. With @p traced, the program's
     *  instrumentation is on and RepResult::layers is filled. */
    virtual RepResult run(bool traced) = 0;

    /** Output checks beyond those run() makes, run once, untimed. */
    virtual void verify(RepResult &) {}

    /** Host-clock per-layer timings on the workload's own inputs,
     *  each the median of several timed rounds. */
    virtual std::vector<Metric> hostLayers() = 0;
};

/** The workload called @p name, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

// ---- host-clock layer timings (layers.cc) ----------------------------

/** ns per input byte of workloads::parseObject over @p texts. */
double timeParse(morpheus::workloads::ObjectKind kind,
                 const std::vector<std::vector<std::uint8_t>> &texts);

/** ns per input byte of serde::scanTable over @p tables (flash
 *  images) with the spec makeSelectivitySpec(@p selectivity,
 *  @p project, @p cols) builds. */
double timeScan(const std::vector<std::vector<std::uint8_t>> &tables,
                double selectivity, unsigned project, unsigned cols);

/** ns per output byte of workloads::serializeObject on int arrays of
 *  @p values (one per entry). */
double timeSerialize(const std::vector<std::uint32_t> &values,
                     std::uint64_t seed);

/** ns per staged int64 of MsChunkContext::msEmit plus the flush
 *  hand-off, at @p flush_threshold bytes in @p dsram bytes. */
double timeStaging(std::uint32_t dsram, std::uint32_t flush_threshold);

/** ns per sim::Timeline::acquire holding about @p intervals busy
 *  intervals: appended at the tail (@p gap false) or filling a gap
 *  inside the history (@p gap true). */
double timeTimeline(std::size_t intervals, bool gap, std::uint64_t seed);

}  // namespace perfbench

#endif  // MORPHEUS_PERFBENCH_BENCH_HH

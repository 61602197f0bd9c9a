/**
 * @file
 * Two-clock benchmark: command line, timed repetitions, result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --describe
 *
 * A run times setup several times, runs the workload once untimed
 * (the first call in a process runs slower than later ones, and its
 * simulated figures are the reference), then repeats the identical
 * seeded workload until S seconds have passed and reports the median
 * repetition. Every repetition's simulated metrics must equal the
 * reference bit for bit. With --trace 1 the run instead alternates
 * untraced and instrumented repetitions and times single layers, and
 * reports the per-layer metrics.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics. The exit status is 0 only when every check passed.
 * --describe prints the workloads and metrics as JSON.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/** A metric as BENCHMARK.json declares it. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    bool higherIsBetter;
};

struct WorkloadSpec
{
    const char *name;
    const char *why;
};

const WorkloadSpec kWorkloads[] = {
    {"deser_suite",
     "Table I apps in baseline and Morpheus mode: serde kernels and chunk "
     "staging work, the serving layers stay idle"},
    {"fleet_open",
     "open-loop rate ladder on 4 hash-sharded SSDs: serving loop, "
     "scheduler, shard routing and Timeline contention"},
    {"mixed_cached",
     "closed loop past saturation with cache, writes, pushdown scans and "
     "JSON: object cache, serializer, scanner and host execution"},
};

const std::vector<MetricSpec> kEndToEnd = {
    {"host_req_per_s", "1/s", true},
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"success_share", "share", true},
    {"sim_p50_us", "us", false},
    {"sim_p99_us", "us", false},
    {"sim_rate_at_slo_rps", "1/s", true},
    {"sim_throughput_rps", "1/s", true},
    {"sim_pcie_bytes_per_req", "B", false},
    {"sim_deser_speedup", "x", true},
    {"sim_pcie_ratio", "ratio", false},
    {"sim_membus_ratio", "ratio", false},
};

std::vector<MetricSpec>
perLayerSpecs()
{
    std::vector<MetricSpec> specs = {
        {"serde.parse_ns_per_byte", "ns/B", false},
        {"serde.csv_ns_per_byte", "ns/B", false},
        {"serde.json_ns_per_byte", "ns/B", false},
        {"serde.scan_ns_per_byte", "ns/B", false},
        {"serde.serialize_ns_per_byte", "ns/B", false},
        {"core.stage_ns_per_value", "ns/value", false},
        {"sim.timeline_acquire_ns_tail", "ns", false},
        {"sim.timeline_acquire_ns_gap", "ns", false},
        {"obs.trace_overhead_pct", "%", false},
    };
    static const char *const kStages[] = {
        "host",  "queue",     "admission", "dispatch", "fetch",
        "parse", "flush",     "cache_hit", "retry",    "host_exec"};
    for (const char *kind : {"mean", "p99"})
        for (const char *stage : kStages)
            specs.push_back({std::string("obs.stage_") + kind + "_us." + stage,
                             "us", false});
    const std::vector<MetricSpec> rest = {
        {"ssd.cache_hit_rate", "share", true},
        {"ssd.cache_evictions", "count", false},
        {"ssd.cache_invalidations", "count", false},
        {"sched.drr_delays", "count", false},
        {"sched.migrations", "count", false},
        {"sched.dsram_bounces", "count", false},
        {"sched.overload_bounces", "count", false},
        {"shard.imbalance", "ratio", false},
        {"shard.straggler_p99_us", "us", false},
        {"sched.hybrid_share.device", "share", true},
        {"sched.hybrid_share.host", "share", false},
        {"sched.hybrid_share.split", "share", false},
        {"sched.hybrid_share.shed", "share", false},
        {"sched.hybrid_flips", "count", false},
        {"nvme.commands_per_req", "count", false},
        {"flash.pages_read_per_req", "count", false},
        {"host.membus_bytes_per_req", "B", false},
        {"host.ctx_switches_deser", "count", false},
    };
    specs.insert(specs.end(), rest.begin(), rest.end());
    return specs;
}

void
describe()
{
    std::printf("{\"workloads\": [");
    for (std::size_t i = 0; i < std::size(kWorkloads); ++i)
        std::printf("%s{\"name\": \"%s\", \"why\": \"%s\"}", i ? ", " : "",
                    kWorkloads[i].name, kWorkloads[i].why);
    auto list = [](const char *key, const std::vector<MetricSpec> &ms) {
        std::printf("], \"%s\": [", key);
        for (std::size_t i = 0; i < ms.size(); ++i)
            std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"better\": \"%s\"}",
                        i ? ", " : "", ms[i].name.c_str(), ms[i].unit.c_str(),
                        ms[i].higherIsBetter ? "higher" : "lower");
    };
    list("end_to_end", kEndToEnd);
    list("per_layer", perLayerSpecs());
    std::printf("]}\n");
}

/** Value of @p name in @p ms, or @p absent. */
double
valueOf(const std::vector<Metric> &ms, const std::string &name,
        double absent)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return m.value;
    return absent;
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Bit-for-bit equality of two repetitions' simulated metrics. */
bool
sameSim(const RepResult &a, const RepResult &b)
{
    if (a.sim.size() != b.sim.size())
        return false;
    for (std::size_t i = 0; i < a.sim.size(); ++i)
        if (a.sim[i].name != b.sim[i].name ||
            std::memcmp(&a.sim[i].value, &b.sim[i].value,
                        sizeof(double)) != 0)
            return false;
    return true;
}

struct Totals
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    add(const RepResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &e : r.errors)
            if (std::find(errors.begin(), errors.end(), e) == errors.end())
                errors.push_back(e);
    }
};

/** Count @p r and hold its simulated metrics to @p reference. */
void
account(const RepResult &reference, RepResult r, Totals &totals)
{
    if (!sameSim(reference, r)) {
        r.failed = r.attempted;
        r.fail("simulated metrics differ between identical seeded runs");
    }
    totals.add(r);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n       perfbench --describe\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--describe") {
            describe();
            return 0;
        }
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(val);
        else if (arg == "--trace")
            trace = std::atoi(val);
        else
            return usage();
    }
    if (seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage();
    const auto wl = makeWorkload(workload, seed);
    if (!wl)
        return usage();

    // Keep freed memory in the process: every repetition then reuses
    // the pages the first one touched instead of faulting them in
    // again, which costs system time that swings with the host's
    // memory pressure. Peak RSS is a high-water mark either way.
    // 32 MiB is the largest mmap threshold glibc accepts.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    // Setup, timed at least 9 times and for at least a second (one
    // fleet_open setup takes ~15 ms); the median is reported.
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < 9 || setup_total < 1.0) {
        const Clock::time_point t0 = Clock::now();
        wl->setup();
        setup_s.push_back(secondsSince(t0));
        setup_total += setup_s.back();
    }

    Totals totals;
    RepResult checks;
    wl->verify(checks);
    totals.add(checks);

    // Untimed first repetition: warms the process, gives the reference.
    const RepResult reference = wl->run(false);
    totals.add(reference);
    const double requests = static_cast<double>(reference.attempted);
    std::fprintf(stderr, "%s seed %llu: %llu requests per repetition\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(reference.attempted));

    // At least this many timed repetitions, whatever --seconds says.
    constexpr int kMinReps = 3;
    std::vector<Metric> metrics;
    if (trace == 0) {
        std::vector<double> rep_s;
        const Clock::time_point start = Clock::now();
        while (rep_s.size() < kMinReps || secondsSince(start) < seconds) {
            const Clock::time_point t0 = Clock::now();
            RepResult r = wl->run(false);
            rep_s.push_back(secondsSince(t0));
            account(reference, std::move(r), totals);
        }
        std::fprintf(stderr, "%zu timed repetitions, median %.4f s\n",
                     rep_s.size(), median(rep_s));
        metrics.push_back({"host_req_per_s", requests / median(rep_s)});
        metrics.push_back({"setup_s", median(setup_s)});
        metrics.push_back({"peak_rss_mb", peakRssMb()});
        metrics.push_back(
            {"success_share",
             static_cast<double>(totals.attempted - totals.failed) /
                 static_cast<double>(totals.attempted)});
        for (const Metric &m : reference.sim)
            metrics.push_back(m);
    } else {
        // Alternate untraced and traced repetitions so both see the
        // same machine state; their median ratio is the overhead.
        std::vector<double> plain_s, traced_s;
        RepResult layers;
        const Clock::time_point start = Clock::now();
        while (traced_s.size() < kMinReps ||
               secondsSince(start) < 0.6 * seconds) {
            Clock::time_point t0 = Clock::now();
            account(reference, wl->run(false), totals);
            plain_s.push_back(secondsSince(t0));
            t0 = Clock::now();
            RepResult r = wl->run(true);
            traced_s.push_back(secondsSince(t0));
            if (layers.layers.empty())
                layers = r;
            account(reference, std::move(r), totals);
        }
        metrics = layers.layers;
        for (const Metric &m : wl->hostLayers())
            metrics.push_back(m);
        metrics.push_back(
            {"obs.trace_overhead_pct",
             (median(traced_s) / median(plain_s) - 1.0) * 100.0});
    }

    // Every declared metric, in declaration order, so that every
    // workload prints one format. An end-to-end metric without meaning
    // on this workload reads 1, a layer it does not exercise 0.
    const std::vector<MetricSpec> specs =
        trace == 0 ? kEndToEnd : perLayerSpecs();
    const double absent = trace == 0 ? 1.0 : 0.0;
    for (const std::string &e : totals.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    const bool correct = totals.errors.empty() && totals.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(totals.attempted),
                static_cast<unsigned long long>(totals.failed));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", specs[i].name.c_str(),
                    valueOf(metrics, specs[i].name, absent),
                    specs[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}

/**
 * @file
 * The three benchmark workloads. Each drives the simulator only
 * through its public entry points (workloads::runWorkload and
 * workloads::runServing), checks every output, and reads the
 * simulated-clock figures from the reports and the federated metrics
 * registry the program already fills.
 *
 * Why these three: deser_suite loads the serde kernels and chunk
 * staging with one stream at a time and leaves the serving layers
 * idle; fleet_open loads the serving event loop, scheduler, shard
 * routing and Timeline contention with int-array traffic only;
 * mixed_cached loads the object cache, the serializer, the columnar
 * scanner and host execution while int parsing does little. A change
 * to one layer therefore has a workload that exercises it and one
 * that bypasses it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serde/columnar.hh"
#include "workloads/app_spec.hh"
#include "workloads/generators.hh"
#include "workloads/partition.hh"
#include "workloads/runner.hh"
#include "workloads/serving.hh"

namespace perfbench {

namespace {

using namespace morpheus;
namespace wk = morpheus::workloads;

/** The serving layer's default latency target (SloOptions). */
const double kSloUs = wk::SloOptions{}.targetUs;

// ---- registry and statistics helpers ----------------------------------

using Counters = std::map<std::string, double>;

/** The registry as name -> value, parsed from its flat report. */
Counters
flatten(const obs::MetricsRegistry &reg)
{
    std::ostringstream os;
    reg.report(os);
    std::istringstream is(os.str());
    Counters out;
    std::string name;
    double value = 0.0;
    while (is >> name >> value)
        out[name] = value;
    return out;
}

/** Sum of every counter whose full name matches @p pattern. */
double
sumMatching(const Counters &c, const std::string &pattern)
{
    const std::regex re(pattern);
    double sum = 0.0;
    for (const auto &[name, value] : c)
        if (std::regex_match(name, re))
            sum += value;
    return sum;
}

/** The counters matching @p pattern (one per device in a fleet),
 *  summed, minus what set-up alone left in them. */
double
runDelta(const Counters &run, const Counters &setup,
         const std::string &pattern)
{
    return sumMatching(run, pattern) - sumMatching(setup, pattern);
}

/** Nearest-rank quantile (ceil(q * n)-th smallest). */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::max<std::size_t>(rank, 1) - 1];
}

double
geomean(const std::vector<double> &xs)
{
    double log_sum = 0.0;
    for (const double x : xs)
        log_sum += std::log(x);
    return xs.empty() ? 0.0
                      : std::exp(log_sum / static_cast<double>(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double
perReq(double total, std::uint64_t requests)
{
    return requests ? total / static_cast<double>(requests) : 0.0;
}

// ---- shared serving checks and layer figures ----------------------------

/** Every submitted request completes or is counted as rejected, and
 *  none is lost. Rejected and lost requests count as failures. */
void
checkServing(const char *what, const wk::ServingReport &r, RepResult &out)
{
    out.attempted += r.submitted;
    out.failed += r.rejected + r.lost;
    if (r.completed + r.rejected != r.submitted || r.lost != 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: submitted %llu != completed %llu + rejected "
                      "%llu, lost %llu",
                      what, static_cast<unsigned long long>(r.submitted),
                      static_cast<unsigned long long>(r.completed),
                      static_cast<unsigned long long>(r.rejected),
                      static_cast<unsigned long long>(r.lost));
        out.fail(buf);
    }
}

/** The p99 stage decomposition must sum to the p99 within 1%. */
void
checkStageSum(const char *what, const wk::ServingReport &r,
              RepResult &out)
{
    double sum = 0.0;
    for (const double s : r.stageP99Us)
        sum += s;
    if (r.attributed == 0 || std::fabs(sum - r.p99Us) > 0.01 * r.p99Us) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%s: p99 stage sum %.3f us != p99 %.3f us", what,
                      sum, r.p99Us);
        out.fail(buf);
    }
}

const char *const kSchedCounters[] = {
    "sched.drr_delays", "sched.migrations", "sched.dsram_bounces",
    "sched.overload_bounces"};

/** Add @p r's scheduler counters (kSchedCounters) to @p layers. */
void
addSchedCounters(const wk::ServingReport &r, std::vector<Metric> &layers)
{
    std::uint64_t dsram_bounces = 0;
    for (const wk::TenantReport &t : r.tenants)
        dsram_bounces += t.dsramBounces;
    const double counts[] = {static_cast<double>(r.drrDelays),
                             static_cast<double>(r.migrations),
                             static_cast<double>(dsram_bounces),
                             static_cast<double>(r.overloadBounces)};
    for (Metric &m : layers)
        for (std::size_t i = 0; i < std::size(kSchedCounters); ++i)
            if (m.name == kSchedCounters[i])
                m.value += counts[i];
}

/** Simulated-clock layer figures of one traced serving run. */
void
servingLayers(const wk::ServingReport &r, const Counters &run,
              const Counters &setup, std::vector<Metric> &out)
{
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
        const std::string stage =
            obs::stageName(static_cast<obs::Stage>(s));
        out.push_back({"obs.stage_mean_us." + stage, r.stageMeanUs[s]});
        out.push_back({"obs.stage_p99_us." + stage, r.stageP99Us[s]});
    }
    out.push_back({"ssd.cache_hit_rate",
                   perReq(static_cast<double>(r.cacheHits), r.completed)});
    out.push_back({"ssd.cache_evictions",
                   runDelta(run, setup,
                            R"(sys\.morpheus[0-9]*\.cache\.evictions)")});
    out.push_back(
        {"ssd.cache_invalidations",
         runDelta(run, setup, R"(sys\.morpheus[0-9]*\.cache\.invalidations)")});

    for (const char *name : kSchedCounters)
        out.push_back({name, 0.0});
    addSchedCounters(r, out);

    double imbalance = 0.0, straggler_p99 = 0.0;
    if (!r.shards.empty()) {
        std::uint64_t lo = ~0ULL, hi = 0;
        for (const wk::ShardReport &s : r.shards) {
            lo = std::min(lo, s.requests);
            hi = std::max(hi, s.requests);
        }
        imbalance = lo ? static_cast<double>(hi) / static_cast<double>(lo)
                       : 0.0;
        straggler_p99 = r.shards[r.stragglerShard].p99Us;
    }
    out.push_back({"shard.imbalance", imbalance});
    out.push_back({"shard.straggler_p99_us", straggler_p99});

    std::uint64_t decisions = 0;
    for (const std::uint64_t d : r.hybridDecisions)
        decisions += d;
    for (std::size_t p = 0; p < sched::kNumPlacements; ++p) {
        out.push_back(
            {std::string("sched.hybrid_share.") +
                 sched::placementName(static_cast<sched::ExecPlacement>(p)),
             perReq(static_cast<double>(r.hybridDecisions[p]), decisions)});
    }
    out.push_back({"sched.hybrid_flips", static_cast<double>(r.hybridFlips)});

    out.push_back(
        {"nvme.commands_per_req",
         perReq(runDelta(run, setup, R"(sys\.ssd[0-9]*\.nvme\.commands)"),
                r.completed)});
    out.push_back(
        {"flash.pages_read_per_req",
         perReq(runDelta(run, setup, R"(sys\.ssd[0-9]*\.flash\.reads)"),
                r.completed)});
    out.push_back(
        {"host.membus_bytes_per_req",
         perReq(runDelta(run, setup, R"(sys\.host\.mem\.busBytes.*)"),
                r.completed)});
}

/**
 * Timeline size the per-layer acquire timings use: the NVMe commands
 * of one call, since each command reserves the shared controller,
 * link and core timelines and the history is never pruned. The
 * registry has no interval gauge, so this is an estimate; acquire
 * cost grows with the log of the size, so the estimate need not be
 * exact. At least 1024.
 */
std::size_t
timelineIntervals(const Counters &run, const Counters &setup)
{
    return std::max<std::size_t>(
        1024, static_cast<std::size_t>(runDelta(
                  run, setup, R"(sys\.ssd[0-9]*\.nvme\.commands)")));
}

/** The layer timings every workload has: chunk staging at the
 *  workload's flush threshold and Timeline reservations at its size. */
std::vector<Metric>
stagingAndTimeline(std::uint32_t flush_threshold, std::size_t intervals,
                   std::uint64_t seed)
{
    return {
        {"core.stage_ns_per_value",
         timeStaging(ssd::EmbeddedCoreConfig{}.dsramBytes, flush_threshold)},
        {"sim.timeline_acquire_ns_tail", timeTimeline(intervals, false, seed)},
        {"sim.timeline_acquire_ns_gap", timeTimeline(intervals, true, seed)},
    };
}

/** The device's default flush threshold: a quarter of the D-SRAM. */
const std::uint32_t kDefaultFlush = ssd::EmbeddedCoreConfig{}.dsramBytes / 4;

/**
 * The int-array tenant of both serving workloads. Two size classes:
 * the default mix's rare 32000-value class carries a third of the
 * bytes in 5% of the requests, so it alone sets the p99 and makes both
 * clocks swing with which seed draws how many of them.
 */
wk::TenantSpec
intArrayTenant(std::uint32_t id)
{
    wk::TenantSpec spec;
    spec.id = id;
    spec.sizeClassValues = {2000, 8000};
    spec.sizeClassProb = {0.75, 0.25};
    return spec;
}

std::vector<std::uint8_t>
intArrayText(std::uint64_t seed, std::uint32_t values)
{
    return wk::serializeObject(wk::AnyObject(wk::genIntArray(seed, values)));
}

// ---- deser_suite ---------------------------------------------------------

/**
 * The ten Table I applications, each run once in baseline mode and
 * once in Morpheus mode through runWorkload at one fixed scale. A
 * request is one runWorkload call; each builds its own simulated
 * system, so the serving loop, the scheduler, shard routing and the
 * object cache do no work here.
 */
class DeserSuite : public Workload
{
  public:
    /** The default scale of the figure benches (Table I sizes / 3200). */
    static constexpr double kScale = 0.25;

    explicit DeserSuite(std::uint64_t seed) : _seed(seed) {}

    void
    setup() override
    {
        // What runWorkload does before its first simulated request:
        // generate, partition, serialize, build the system and ingest.
        const bool keep = _texts.empty();
        _setupCounters.clear();
        for (const wk::AppSpec &app : wk::standardSuite()) {
            host::HostSystem sys;
            const unsigned ranks =
                app.parallel == wk::ParallelModel::kMpi ? app.ranks : 1;
            const auto shards = wk::partitionObject(
                app.generate(_seed, kScale), ranks);
            for (unsigned r = 0; r < ranks; ++r) {
                auto text = wk::serializeObject(shards[r]);
                sys.createFile(app.name + ".part" + std::to_string(r), text);
                if (keep)
                    _texts[app.object].push_back(std::move(text));
            }
            sim::stats::StatSet set;
            sys.registerStats(set);
            obs::MetricsRegistry reg;
            reg.absorb(set, "sys.");
            _setupCounters[app.name] = flatten(reg);
        }
    }

    RepResult
    run(bool traced) override
    {
        RepResult out;
        std::vector<double> deser_us, speedup, pcie_ratio, membus_ratio;
        double total_s = 0.0, pcie_bytes = 0.0, membus_bytes = 0.0;
        double ctx_switches = 0.0, nvme_cmds = 0.0, pages_read = 0.0;
        std::size_t intervals = 0;
        for (const wk::AppSpec &app : wk::standardSuite()) {
            wk::RunMetrics m[2];
            for (int i = 0; i < 2; ++i) {
                wk::RunOptions opts;
                opts.mode = i == 0 ? wk::ExecutionMode::kBaseline
                                   : wk::ExecutionMode::kMorpheus;
                opts.scale = kScale;
                opts.seed = _seed;
                obs::MetricsRegistry reg;
                obs::InMemoryTraceSink sink;
                std::optional<obs::ScopedTraceSink> attach;
                if (traced) {
                    opts.metrics = &reg;
                    attach.emplace(sink);
                }
                m[i] = wk::runWorkload(app, opts);
                ++out.attempted;
                if (!m[i].validated) {
                    ++out.failed;
                    out.fail(app.name + ": output failed validation");
                }
                deser_us.push_back(sim::ticksToSeconds(m[i].deserTime) * 1e6);
                total_s += m[i].totalSeconds();
                pcie_bytes += static_cast<double>(m[i].pcieBytesTotal);
                membus_bytes += static_cast<double>(m[i].membusBytesTotal);
                ctx_switches += static_cast<double>(m[i].contextSwitchesDeser);
                if (traced) {
                    const Counters run = flatten(reg);
                    const Counters &setup = _setupCounters[app.name];
                    nvme_cmds += runDelta(run, setup,
                                          R"(sys\.ssd[0-9]*\.nvme\.commands)");
                    pages_read += runDelta(run, setup,
                                           R"(sys\.ssd[0-9]*\.flash\.reads)");
                    intervals = std::max(intervals,
                                         timelineIntervals(run, setup));
                }
            }
            speedup.push_back(static_cast<double>(m[0].deserTime) /
                              static_cast<double>(m[1].deserTime));
            pcie_ratio.push_back(static_cast<double>(m[1].pcieBytesDeser) /
                                 static_cast<double>(m[0].pcieBytesDeser));
            membus_ratio.push_back(
                static_cast<double>(m[1].membusBytesDeser) /
                static_cast<double>(m[0].membusBytesDeser));
        }
        const std::uint64_t n = out.attempted;
        out.sim = {
            {"sim_p50_us", quantile(deser_us, 0.50)},
            {"sim_p99_us", quantile(deser_us, 0.99)},
            {"sim_throughput_rps", static_cast<double>(n) / total_s},
            {"sim_pcie_bytes_per_req", perReq(pcie_bytes, n)},
            {"sim_deser_speedup", geomean(speedup)},
            {"sim_pcie_ratio", mean(pcie_ratio)},
            {"sim_membus_ratio", mean(membus_ratio)},
        };
        if (traced) {
            _intervals = intervals;
            out.layers = {
                {"nvme.commands_per_req", perReq(nvme_cmds, n)},
                {"flash.pages_read_per_req", perReq(pages_read, n)},
                {"host.membus_bytes_per_req", perReq(membus_bytes, n)},
                {"host.ctx_switches_deser", perReq(ctx_switches, n)},
            };
        }
        return out;
    }

    std::vector<Metric>
    hostLayers() override
    {
        // Byte-weighted over the object kinds of the suite.
        double ns = 0.0, bytes = 0.0;
        for (const auto &[kind, texts] : _texts) {
            double kind_bytes = 0.0;
            for (const auto &t : texts)
                kind_bytes += static_cast<double>(t.size());
            ns += timeParse(kind, texts) * kind_bytes;
            bytes += kind_bytes;
        }
        std::vector<Metric> out = stagingAndTimeline(kDefaultFlush,
                                                     _intervals, _seed);
        out.push_back({"serde.parse_ns_per_byte", ns / bytes});
        return out;
    }

  private:
    std::uint64_t _seed;
    std::map<wk::ObjectKind, std::vector<std::vector<std::uint8_t>>> _texts;
    std::map<std::string, Counters> _setupCounters;
    std::size_t _intervals = 1024;
};

// ---- fleet_open ----------------------------------------------------------

/**
 * Open-loop Poisson arrivals on four SSDs with hash sharding: three
 * int-array tenants, eight objects per size class, Zipf 1.1 object
 * popularity. A ladder of offered rates runs from below the knee to
 * past it, with a fixed expected request count at each rate. No cache,
 * no writes. The generator runs in simulated time, so it is never
 * late: each latency is measured from the request's due time.
 */
class FleetOpen : public Workload
{
  public:
    struct Rung
    {
        double rate;      ///< Offered req/s over all tenants.
        double requests;  ///< Expected count: durationSec = requests/rate.
    };
    /** The reference rate, below the knee, that sim_p50_us,
     *  sim_p99_us, sim_throughput_rps and the per-layer figures are
     *  read at; it runs long enough that about 60 samples lie beyond
     *  its p99. */
    static constexpr Rung kReference{60000, 6000};
    /** The climb from the reference rate through the knee. It stops at
     *  the first rate that misses the SLO, so no run goes deep into
     *  overload, where D-SRAM bounce storms make memory and host time
     *  swing from seed to seed. The top rate exceeds the fleet's
     *  capacity by more than 1/kKeepUp, so it always misses. */
    static constexpr Rung kClimb[] = {
        {80000, 3000}, {84000, 3000},  {88000, 3000},  {92000, 3000},
        {96000, 3000}, {100000, 3000}, {120000, 3000}};
    /** Completions keep up with arrivals: throughput over the rung's
     *  span is at least this share of the offered rate. */
    static constexpr double kKeepUp = 0.9;

    explicit FleetOpen(std::uint64_t seed) : _seed(seed) {}

    wk::ServingOptions
    options(const Rung &rung) const
    {
        wk::ServingOptions opts;
        opts.seed = _seed;
        opts.durationSec = rung.requests / rung.rate;
        for (std::uint32_t t = 0; t < 3; ++t) {
            wk::TenantSpec spec = intArrayTenant(t + 1);
            spec.arrivalsPerSec = rung.rate / 3;
            opts.tenants.push_back(spec);
        }
        opts.sys.numSsds = 4;
        opts.objectsPerClass = 8;
        opts.zipfSkew = 1.1;
        opts.shardPolicy = shard::ShardPolicy::kHash;
        // The scheduler posture of the fleet bench: bounded in-flight
        // instances and partitioned D-SRAM grants.
        opts.sys.ssd.sched.maxInflightTotal = 12;
        opts.sys.ssd.sched.dsramPartitioning = true;
        opts.flushThreshold = kFlushThreshold;
        return opts;
    }

    void
    setup() override
    {
        wk::ServingOptions opts = options(kReference);
        opts.durationSec = 0.0;
        obs::MetricsRegistry reg;
        opts.metrics = &reg;
        wk::runServing(opts);
        _setupCounters = flatten(reg);
    }

    RepResult
    run(bool traced) override
    {
        RepResult out;
        obs::MetricsRegistry reg;
        const wk::ServingReport ref = serve(kReference, traced, &reg, out);
        const Counters run = flatten(reg);
        out.sim = {
            {"sim_p50_us", ref.p50Us},
            {"sim_p99_us", ref.p99Us},
            {"sim_throughput_rps", ref.throughputPerSec},
            {"sim_pcie_bytes_per_req",
             perReq(runDelta(run, _setupCounters, R"(sys\.pcie\.fabricBytes)"),
                    ref.completed)},
        };
        if (ref.completed < 1000)
            out.fail("reference rate: fewer than 1000 samples for p99");
        if (traced) {
            checkStageSum("reference rate", ref, out);
            servingLayers(ref, run, _setupCounters, out.layers);
            _intervals = timelineIntervals(run, _setupCounters);
        }

        double rate_at_slo = 0.0;
        if (meets(ref, kReference)) {
            rate_at_slo = kReference.rate;
            bool missed = false;
            for (const Rung &rung : kClimb) {
                const wk::ServingReport r = serve(rung, traced, nullptr, out);
                // The scheduler works hardest at the knee: its counters
                // cover every rate the climb ran, the other layer
                // figures only the reference rate.
                if (traced)
                    addSchedCounters(r, out.layers);
                if (!meets(r, rung)) {
                    missed = true;
                    break;
                }
                rate_at_slo = rung.rate;
            }
            if (!missed)
                out.fail("the ladder's top rate meets the SLO: extend it");
        } else {
            out.fail("the reference rate misses the SLO");
        }
        out.sim.push_back({"sim_rate_at_slo_rps", rate_at_slo});
        return out;
    }

    std::vector<Metric>
    hostLayers() override
    {
        std::vector<std::vector<std::uint8_t>> texts;
        for (const std::uint32_t n : intArrayTenant(0).sizeClassValues)
            texts.push_back(intArrayText(_seed + n, n));
        std::vector<Metric> out =
            stagingAndTimeline(kFlushThreshold, _intervals, _seed);
        out.push_back({"serde.parse_ns_per_byte",
                       timeParse(wk::ObjectKind::kIntArray, texts)});
        return out;
    }

  private:
    static constexpr std::uint32_t kFlushThreshold = 60 * 1024;

    wk::ServingReport
    serve(const Rung &rung, bool traced, obs::MetricsRegistry *reg,
          RepResult &out) const
    {
        wk::ServingOptions opts = options(rung);
        opts.metrics = reg;
        opts.breakdown = traced;
        const wk::ServingReport r = wk::runServing(opts);
        char what[32];
        std::snprintf(what, sizeof(what), "rate %.0f", rung.rate);
        checkServing(what, r, out);
        return r;
    }

    /** p99 within the SLO, every request completed, and completions
     *  keeping up with arrivals. */
    static bool
    meets(const wk::ServingReport &r, const Rung &rung)
    {
        return r.completed == r.submitted && r.p99Us <= kSloUs &&
               r.throughputPerSec >= kKeepUp * rung.rate;
    }

    std::uint64_t _seed;
    Counters _setupCounters;
    std::size_t _intervals = 1024;
};

// ---- mixed_cached --------------------------------------------------------

/**
 * Closed loop on one SSD with the object cache and hybrid placement on.
 * Four tenants: Zipf-skewed int-array reads (cache hits skip flash and
 * parse), CSV with ~20% MWRITE serializations, columnar scans with
 * pushdown at 10% selectivity, and JSON reads. Sixteen requests in flight pass device saturation, so the
 * hybrid policy spills work to host execution; admission is bounded
 * as in the traffic-reduction bench.
 */
class MixedCached : public Workload
{
  public:
    static constexpr unsigned kConcurrency = 4;     ///< Per tenant.
    static constexpr std::uint64_t kRequests = 1000; ///< Per tenant.
    static constexpr double kSelectivity = 0.10;
    static constexpr unsigned kProject = 2;
    static constexpr unsigned kColumns = 6;

    explicit MixedCached(std::uint64_t seed) : _seed(seed) {}

    wk::ServingOptions
    options() const
    {
        wk::ServingOptions opts;
        opts.seed = _seed;
        opts.closedLoop = true;
        opts.closedLoopConcurrency = kConcurrency;
        opts.closedLoopRequests = kRequests;
        opts.objectsPerClass = 8;
        opts.zipfSkew = 1.1;
        opts.sys.ssd.sched.maxInflightTotal = 12;
        opts.sys.ssd.cache.enabled = true;
        opts.hybrid.enabled = true;

        wk::TenantSpec ints = intArrayTenant(1);
        wk::TenantSpec csv;
        csv.id = 2;
        csv.format = wk::TenantFormat::kCsv;
        csv.sizeClassValues = kCsvRows;
        csv.sizeClassProb = {0.8, 0.2};
        csv.writeFraction = 0.2;
        wk::TenantSpec scan;
        scan.id = 3;
        scan.format = wk::TenantFormat::kColumnar;
        scan.pushdown = true;
        scan.selectivity = kSelectivity;
        scan.projectColumns = kProject;
        scan.tableColumns = kColumns;
        scan.sizeClassValues = kScanRows;
        scan.sizeClassProb = {0.75, 0.25};
        wk::TenantSpec json;
        json.id = 4;
        json.format = wk::TenantFormat::kJson;
        json.sizeClassValues = kJsonRecords;
        json.sizeClassProb = {0.8, 0.2};
        opts.tenants = {ints, csv, scan, json};
        return opts;
    }

    void
    setup() override
    {
        wk::ServingOptions opts = options();
        opts.closedLoopRequests = 0;
        obs::MetricsRegistry reg;
        opts.metrics = &reg;
        wk::runServing(opts);
        _setupCounters = flatten(reg);
    }

    RepResult
    run(bool traced) override
    {
        RepResult out;
        wk::ServingOptions opts = options();
        obs::MetricsRegistry reg;
        opts.metrics = &reg;
        opts.breakdown = traced;
        const wk::ServingReport r = wk::runServing(opts);
        checkServing("mixed", r, out);
        if (r.writes == 0)
            out.fail("mixed: no MWRITE completed");

        const Counters run = flatten(reg);
        out.sim = {
            {"sim_p50_us", r.p50Us},
            {"sim_p99_us", r.p99Us},
            {"sim_throughput_rps", r.throughputPerSec},
            {"sim_pcie_bytes_per_req",
             perReq(runDelta(run, _setupCounters, R"(sys\.pcie\.fabricBytes)"),
                    r.completed)},
        };
        if (traced) {
            checkStageSum("mixed", r, out);
            servingLayers(r, run, _setupCounters, out.layers);
            _intervals = timelineIntervals(run, _setupCounters);
        }
        return out;
    }

    std::vector<Metric>
    hostLayers() override
    {
        std::vector<std::vector<std::uint8_t>> ints, csv, json, tables;
        for (const std::uint32_t n : intArrayTenant(0).sizeClassValues)
            ints.push_back(intArrayText(_seed + n, n));
        for (const std::uint32_t n : kCsvRows)
            csv.push_back(wk::serializeObject(
                wk::AnyObject(wk::genCsvTable(_seed + n, n, 8))));
        for (const std::uint32_t n : kJsonRecords)
            json.push_back(wk::serializeObject(
                wk::AnyObject(wk::genJsonRecords(_seed + n, n))));
        for (const std::uint32_t n : kScanRows)
            tables.push_back(
                serde::genColumnarTable(_seed + n, n, kColumns).toFlash());
        std::vector<Metric> out =
            stagingAndTimeline(kDefaultFlush, _intervals, _seed);
        const std::vector<Metric> serde = {
            {"serde.parse_ns_per_byte",
             timeParse(wk::ObjectKind::kIntArray, ints)},
            {"serde.csv_ns_per_byte",
             timeParse(wk::ObjectKind::kCsvTable, csv)},
            {"serde.json_ns_per_byte",
             timeParse(wk::ObjectKind::kJsonRecords, json)},
            {"serde.scan_ns_per_byte",
             timeScan(tables, kSelectivity, kProject, kColumns)},
            {"serde.serialize_ns_per_byte", timeSerialize(kCsvRows, _seed)},
        };
        out.insert(out.end(), serde.begin(), serde.end());
        return out;
    }

    /** Columnar device bytes must equal the host scanTable bytes for
     *  the same spec: one pushdown invocation per table size. */
    void
    verify(RepResult &out) override
    {
        host::HostSystem sys;
        core::MorpheusDeviceRuntime device(sys.ssd());
        core::NvmeP2p p2p(sys);
        core::MorpheusRuntime rt(sys, device, p2p);
        const core::StandardImages images = core::StandardImages::make();
        const serde::ScanSpec spec =
            serde::makeSelectivitySpec(kSelectivity, kProject, kColumns);
        for (const std::uint32_t rows : kScanRows) {
            const auto flash =
                serde::genColumnarTable(_seed + rows, rows, kColumns).toFlash();
            const serde::ScanResult ref =
                serde::scanTable(flash.data(), flash.size(), spec);
            const host::FileExtent file = sys.createFile(
                "check.columnar." + std::to_string(rows), flash);
            core::InvokeOptions iopts;
            iopts.pushdown = spec.encode();
            const core::DmaTarget target = rt.hostTarget(ref.out.size() + 64);
            const core::MsStream stream =
                rt.streamCreate(file, file.readyAt, iopts.hostCore);
            const core::InvokeResult res = rt.invoke(
                images.columnarScan, stream, target, file.readyAt, iopts);
            const auto payload = sys.mem().store().readVec(
                target.addr, static_cast<std::size_t>(res.objectBytes));
            ++out.attempted;
            if (!ref.ok || res.failed || payload != ref.out) {
                ++out.failed;
                out.fail("columnar: device scan bytes != host scanTable "
                         "bytes at " + std::to_string(rows) + " rows");
            }
        }
    }

    inline static const std::vector<std::uint32_t> kCsvRows{512, 2048};
    inline static const std::vector<std::uint32_t> kScanRows{4096, 16384};
    inline static const std::vector<std::uint32_t> kJsonRecords{256, 1024};

    std::uint64_t _seed;
    Counters _setupCounters;
    std::size_t _intervals = 1024;
};

}  // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "deser_suite")
        return std::make_unique<DeserSuite>(seed);
    if (name == "fleet_open")
        return std::make_unique<FleetOpen>(seed);
    if (name == "mixed_cached")
        return std::make_unique<MixedCached>(seed);
    return nullptr;
}

}  // namespace perfbench

#include "workloads/serving.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "host/host_exec.hh"
#include "obs/critical_path.hh"
#include "obs/flight_recorder.hh"
#include "obs/gauge_series.hh"
#include "serde/columnar.hh"
#include "shard/shard_fabric.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workloads/generators.hh"
#include "workloads/objects.hh"

namespace morpheus::workloads {

namespace {

/** Exact latency tails: every completed request's latency is kept and
 *  quantiles are true ceil-rank order statistics — the same pick the
 *  per-stage summarizer makes for its p99 exemplar, so a tenant's
 *  stage decomposition sums to its reported p99 exactly even when an
 *  overloaded run stretches the tail arbitrarily (a fixed-range
 *  histogram degraded to max() there). */
struct LatencyTally
{
    void sample(double us)
    {
        _v.push_back(us);
        _sorted = false;
    }
    double mean() const
    {
        if (_v.empty())
            return 0.0;
        double sum = 0.0;
        for (const double x : _v)
            sum += x;
        return sum / static_cast<double>(_v.size());
    }
    double max() const
    {
        ensureSorted();
        return _v.empty() ? 0.0 : _v.back();
    }
    double quantile(double q) const
    {
        if (_v.empty())
            return 0.0;
        ensureSorted();
        const auto rank = std::min<std::size_t>(
            _v.size() - 1,
            std::max<std::size_t>(
                1, static_cast<std::size_t>(std::ceil(
                       q * static_cast<double>(_v.size())))) -
                1);
        return _v[rank];
    }

  private:
    void ensureSorted() const
    {
        if (!_sorted) {
            std::sort(_v.begin(), _v.end());
            _sorted = true;
        }
    }
    mutable std::vector<double> _v;
    mutable bool _sorted = true;
};

/** One generated request of the open-loop trace. */
struct Request
{
    sim::Tick arrival = 0;
    unsigned tenantIdx = 0;
    unsigned classIdx = 0;  ///< Into the tenant's size classes.
    unsigned objIdx = 0;    ///< Into the class's object instances.
    /** MWRITE serialization request instead of a read. */
    bool write = false;
};

/** One pre-ingested object file a request can target. */
struct ObjectInstance
{
    host::FileExtent extent;
    std::uint64_t objectBytes = 0;
    /** Parse cost of the file, for the host-fallback path's CPU
     *  conversion charge (the paper's baseline model). For columnar
     *  tenants this is the reference scan's cost (same kernel the
     *  device runs), so the fallback charge matches the pushdown. */
    serde::ParseCost cost;
    /** SSD holding the file (0 outside fleet runs). */
    unsigned device = 0;

    // Write-path resources (tenants with writeFraction > 0 only).
    /** Host buffer of binary i64 values an MWRITE request streams. */
    pcie::Addr writeSrc = 0;
    std::uint64_t writeSrcBytes = 0;
    /** Scratch flash region the serialized text lands in (disjoint
     *  from every read file, so read-object cache entries survive). */
    host::FileExtent writeDst;
};

/** A request's size class: its object instances. Single-SSD runs keep
 *  exactly one; fleet runs spread objectsPerClass across the SSDs. */
struct SizeClass
{
    std::vector<ObjectInstance> objects;
};

/** Instant on the serving driver's own track (breaker transitions,
 *  fallback starts, hybrid placement decisions, shed bounces). */
void
recordServingInstant(const char *name, std::uint32_t tenant,
                     sim::Tick when)
{
    if (auto *sink = obs::traceSink())
        obs::recordInstant(*sink, "host.serving", name, "serving", when,
                           {.tenant = tenant});
}

struct ActiveSession
{
    core::InvokeSession session;
    unsigned requestIdx = 0;
    unsigned device = 0;  ///< Which runtime the session belongs to.
};

/** Event-loop entry: what happens next and when. */
struct Event
{
    sim::Tick time = 0;
    std::uint64_t seq = 0;  ///< Deterministic FIFO tie-break.
    enum Kind { kArrival, kStep } kind = kArrival;
    unsigned idx = 0;  ///< Request index / active-session index.

    bool
    operator>(const Event &o) const
    {
        return time != o.time ? time > o.time : seq > o.seq;
    }
};

/** Draw a size-class index from the tenant's (normalized) mix. */
unsigned
drawClass(const TenantSpec &tenant, sim::Rng &rng)
{
    double total = 0.0;
    for (double p : tenant.sizeClassProb)
        total += p;
    double u = rng.nextDouble() * total;
    for (unsigned k = 0; k < tenant.sizeClassProb.size(); ++k) {
        u -= tenant.sizeClassProb[k];
        if (u <= 0.0)
            return k;
    }
    return static_cast<unsigned>(tenant.sizeClassProb.size() - 1);
}

/** Draw the object instance within a size class: one extra Rng draw
 *  only when there is a choice to make, so single-object runs keep the
 *  classic draw sequence bit-identical. */
unsigned
drawObject(const ZipfianGenerator *zipf, sim::Rng &rng)
{
    return zipf != nullptr ? zipf->draw(rng) : 0;
}

/** Draw whether the request is an MWRITE serialization: the extra Rng
 *  draw happens only for tenants with writeFraction > 0, so read-only
 *  runs keep the classic draw sequence bit-identical. */
bool
drawWrite(const TenantSpec &tenant, sim::Rng &rng)
{
    return tenant.writeFraction > 0.0 &&
           rng.nextDouble() < tenant.writeFraction;
}

/** Tenant @p tenant_idx's next request: its size class, object and
 *  read/write draws, in that order. */
Request
drawRequest(const ServingOptions &opts, unsigned tenant_idx,
            const ZipfianGenerator *obj_zipf, sim::Rng &rng)
{
    const TenantSpec &tenant = opts.tenants[tenant_idx];
    Request r;
    r.tenantIdx = tenant_idx;
    r.classIdx = drawClass(tenant, rng);
    r.objIdx = drawObject(obj_zipf, rng);
    r.write = drawWrite(tenant, rng);
    return r;
}

/** Poisson (or on/off-modulated) arrival trace for one tenant. */
std::vector<Request>
genArrivals(const ServingOptions &opts, unsigned tenant_idx,
            const ZipfianGenerator *obj_zipf, sim::Rng &rng)
{
    const TenantSpec &tenant = opts.tenants[tenant_idx];
    const sim::Tick horizon = static_cast<sim::Tick>(
        opts.durationSec * static_cast<double>(sim::kPsPerSec));
    const sim::Tick period = static_cast<sim::Tick>(
        opts.burstPeriodSec * static_cast<double>(sim::kPsPerSec));
    const sim::Tick on_window = static_cast<sim::Tick>(
        static_cast<double>(period) * opts.burstOnFraction);

    // The off-phase rate that keeps the long-run mean at
    // arrivalsPerSec given the boosted on-phase rate.
    const double on_rate = tenant.arrivalsPerSec * opts.burstFactor;
    const double off_rate = std::max(
        0.0, (tenant.arrivalsPerSec -
              on_rate * opts.burstOnFraction) /
                 (1.0 - opts.burstOnFraction));

    std::vector<Request> out;
    double t_ps = 0.0;
    while (true) {
        double rate = tenant.arrivalsPerSec;
        if (opts.bursty) {
            const auto phase = static_cast<sim::Tick>(t_ps) %
                               std::max<sim::Tick>(period, 1);
            rate = phase < on_window ? on_rate : off_rate;
            if (rate <= 0.0) {
                // Skip to the next burst window.
                t_ps += static_cast<double>(period - phase);
                continue;
            }
        }
        const double gap_sec =
            -std::log(1.0 - rng.nextDouble()) / rate;
        t_ps += gap_sec * static_cast<double>(sim::kPsPerSec);
        if (t_ps >= static_cast<double>(horizon))
            break;
        Request r = drawRequest(opts, tenant_idx, obj_zipf, rng);
        r.arrival = static_cast<sim::Tick>(t_ps);
        out.push_back(r);
    }
    return out;
}

/** Copy @p lat's summary into a TenantReport, ShardReport or
 *  ServingReport (the mean first, over samples in arrival order). */
template <class Report>
void
fillLatency(Report &r, const LatencyTally &lat)
{
    r.meanUs = lat.mean();
    r.maxUs = lat.max();
    r.p50Us = lat.quantile(0.50);
    r.p95Us = lat.quantile(0.95);
    r.p99Us = lat.quantile(0.99);
    r.p999Us = lat.quantile(0.999);
}

/** Registry scalars "<prefix>mean_us" .. "p999_us" (and "max_us" when
 *  @p with_max) of a latency summary filled by fillLatency(). */
template <class Report>
void
setLatencyScalars(obs::MetricsRegistry &reg, const std::string &prefix,
                  const Report &r, bool with_max)
{
    reg.setScalar(prefix + "mean_us", r.meanUs);
    reg.setScalar(prefix + "p50_us", r.p50Us);
    reg.setScalar(prefix + "p95_us", r.p95Us);
    reg.setScalar(prefix + "p99_us", r.p99Us);
    reg.setScalar(prefix + "p999_us", r.p999Us);
    if (with_max)
        reg.setScalar(prefix + "max_us", r.maxUs);
}

/** Outcome counters a TenantReport and the ServingReport share. */
template <class Report>
void
setOutcomeCounters(obs::MetricsRegistry &reg, const std::string &prefix,
                   const Report &r)
{
    reg.setCounter(prefix + "submitted", r.submitted);
    reg.setCounter(prefix + "completed", r.completed);
    reg.setCounter(prefix + "rejected", r.rejected);
    reg.setCounter(prefix + "deviceFailures", r.deviceFailures);
    reg.setCounter(prefix + "fallbacks", r.fallbacks);
    reg.setCounter(prefix + "fallback.breaker", r.fallbackBreaker);
    reg.setCounter(prefix + "fallback.overload", r.fallbackOverload);
    reg.setCounter(prefix + "fallback.probe", r.fallbackProbe);
    reg.setCounter(prefix + "lost", r.lost);
    reg.setCounter(prefix + "writes", r.writes);
    reg.setCounter(prefix + "writeBytes", r.writeBytes);
    reg.setCounter(prefix + "cacheHits", r.cacheHits);
}

/** "<prefix>breakdown.<stage>_mean_us" / "_p99_us" for every stage. */
void
setStageScalars(obs::MetricsRegistry &reg, const std::string &prefix,
                const std::array<double, obs::kNumStages> &mean,
                const std::array<double, obs::kNumStages> &p99)
{
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
        const std::string stage =
            obs::stageName(static_cast<obs::Stage>(s));
        reg.setScalar(prefix + "breakdown." + stage + "_mean_us", mean[s]);
        reg.setScalar(prefix + "breakdown." + stage + "_p99_us", p99[s]);
    }
}

/** Why a request ran on the host path instead of the device. */
enum class FallbackReason : std::uint8_t {
    kBreaker,   ///< Circuit breaker open (or post-failure rescue).
    kProbe,     ///< A failed half-open probe's rescue.
    kOverload,  ///< Hybrid placement spilled past device pressure.
};

/** One request's routing state and what happened to it. */
struct Outcome
{
    bool completed = false;
    bool rejected = false;
    bool fellBack = false;
    /** Valid when fellBack: which trigger host-routed it. */
    FallbackReason fallbackReason = FallbackReason::kBreaker;
    bool split = false;
    bool shedRejected = false;
    std::uint64_t retries = 0;
    std::uint64_t dsramBounces = 0;
    std::uint64_t overloadBounces = 0;
    std::uint64_t shedBounces = 0;
    std::uint64_t deviceFailures = 0;
    bool servedFromCache = false;
    sim::Tick latency = 0;
    std::uint64_t servedBytes = 0;
    /** The latest device attempt was a half-open probe (a failed
     *  probe's rescue counts under the probe reason). */
    bool probe = false;
    /** In-flight split: device-prefix bytes and the completion tick of
     *  the host half (hybrid runs only). */
    std::uint64_t splitCut = 0;
    sim::Tick splitHostDone = 0;
};

/** The five ways a request leaves the loop. */
enum class Terminal {
    kCompleted,     ///< The device session finished.
    kFellBack,      ///< The host path served it.
    kRejected,      ///< Admission refused its MINIT.
    kShedRejected,  ///< Shed past the bounce budget.
    kLost,          ///< Failed on the device with no rescue.
};

/** Serialize @p tenant's object @p k with @p gen_seed and fill @p inst's
 *  object size and reference parse cost. */
std::vector<std::uint8_t>
objectText(const TenantSpec &tenant, unsigned k, std::uint64_t gen_seed,
           const serde::ScanSpec &spec, ObjectInstance &inst)
{
    std::vector<std::uint8_t> text;
    ObjectKind kind = ObjectKind::kIntArray;
    AnyObject obj;
    switch (tenant.format) {
      case TenantFormat::kIntArray:
        obj = genIntArray(gen_seed, tenant.sizeClassValues[k]);
        break;
      case TenantFormat::kCsv:
        kind = ObjectKind::kCsvTable;
        obj = genCsvTable(gen_seed, tenant.sizeClassValues[k], 8);
        break;
      case TenantFormat::kJson:
        kind = ObjectKind::kJsonRecords;
        obj = genJsonRecords(gen_seed, tenant.sizeClassValues[k]);
        break;
      case TenantFormat::kColumnar: {
        text = serde::genColumnarTable(gen_seed, tenant.sizeClassValues[k],
                                       tenant.tableColumns)
                   .toFlash();
        // Reference scan with the tenant's effective spec (full scan
        // when pushdown is off): the emitted size is what the device
        // DMAs out, and the cost is the host fallback's conversion
        // charge — the same shared kernel either way.
        const serde::ScanResult ref =
            serde::scanTable(text.data(), text.size(), spec);
        MORPHEUS_ASSERT(ref.ok, "columnar ingest scan failed");
        inst.objectBytes = ref.out.size();
        inst.cost = ref.cost;
        return text;
      }
    }
    text = serializeObject(obj);
    inst.objectBytes = objectBytes(obj);
    // Reference parse for the host-fallback conversion charge.
    parseObject(kind, text.data(), text.size(), &inst.cost);
    return text;
}

/**
 * One runServing() call, phase by phase: ingest(), generateTrace(),
 * serve(), aggregate(), federate(). serve()'s loop pops (time, seq,
 * kind, idx) entries: an arrival is routed (breaker, then hybrid
 * placement) and submitted, a step advances one session by an MREAD
 * batch. Every terminal outcome goes through finish().
 */
class ServingRun
{
  public:
    explicit ServingRun(const ServingOptions &opts)
        : _opts(opts), _sys(opts.sys),
          // One MorpheusRuntime per SSD (the classic single runtime
          // when sys.numSsds == 1).
          _fabric(_sys, opts.shardPolicy),
          _images(core::StandardImages::make()), _numSsds(_sys.numSsds()),
          _objsPerClass(std::max(1u, opts.objectsPerClass)),
          _breakers(opts.tenants.size(),
                    sched::CircuitBreaker(opts.breakerThreshold,
                                          opts.breakerProbeEvery)),
          // Host execution serves breaker fallbacks, and in hybrid runs
          // overload spill and split halves too.
          _hostExec(_sys, opts.hybrid.hostCostScale),
          _hybridPol(_numSsds, sched::HybridPlacementPolicy(opts.hybrid)),
          _tenantDoneRun(opts.tenants.size(), 0)
    {
        _fabric.setRecovery(opts.recovery);
        for (const TenantSpec &t : opts.tenants)
            _fabric.setTenantWeight(t.id, t.weight);
        if (_objsPerClass > 1)
            _objZipf.emplace(_objsPerClass, opts.zipfSkew);
    }

    void ingest()
    {
        _tenantPushdown.resize(_opts.tenants.size());
        _classes.resize(_opts.tenants.size());
        for (unsigned ti = 0; ti < _opts.tenants.size(); ++ti) {
            const TenantSpec &tenant = _opts.tenants[ti];
            MORPHEUS_ASSERT(tenant.sizeClassValues.size() ==
                                tenant.sizeClassProb.size(),
                            "size class values/probabilities mismatch");
            // Columnar pushdown tenants carry their encoded ScanSpec on
            // every read's MINIT; an empty vector keeps the pre-pushdown
            // MINIT encoding, and the default ScanSpec is a full-table
            // scan the applet runs descriptor-less.
            serde::ScanSpec spec;
            if (tenant.format == TenantFormat::kColumnar && tenant.pushdown) {
                spec = serde::makeSelectivitySpec(tenant.selectivity,
                                                  tenant.projectColumns,
                                                  tenant.tableColumns);
                _tenantPushdown[ti] = spec.encode();
            }
            _classes[ti].resize(tenant.sizeClassValues.size());
            for (unsigned k = 0; k < tenant.sizeClassValues.size(); ++k) {
                _classes[ti][k].objects.resize(_objsPerClass);
                for (unsigned o = 0; o < _objsPerClass; ++o) {
                    ObjectInstance &inst = _classes[ti][k].objects[o];
                    const std::uint64_t gen_seed =
                        _opts.seed + ti * 131 + k + o * 7919;
                    const std::vector<std::uint8_t> text =
                        objectText(tenant, k, gen_seed, spec, inst);
                    // Single-object classes keep the classic file name so
                    // single-SSD runs stay bit-identical.
                    std::string name = "serve.t" + std::to_string(tenant.id) +
                                       ".c" + std::to_string(k);
                    if (_objsPerClass > 1)
                        name += ".o" + std::to_string(o);
                    if (_numSsds > 1)
                        inst.device = _fabric.router().shardForKey(name);
                    inst.extent = _sys.createFileOn(inst.device, name, text);
                    _ingestDone = std::max(_ingestDone, inst.extent.readyAt);
                    if (tenant.writeFraction <= 0.0)
                        continue;
                    // MWRITE resources: the binary values a write request
                    // streams through the on-device serializer, and a
                    // scratch flash region (its own file, disjoint from
                    // every read extent) the text lands in.
                    const serde::IntArrayObject wobj = genIntArray(
                        gen_seed + 0x9E3779B9u, tenant.sizeClassValues[k]);
                    std::vector<std::uint8_t> binary(wobj.values.size() * 8);
                    std::memcpy(binary.data(), wobj.values.data(),
                                binary.size());
                    inst.writeSrcBytes = binary.size();
                    inst.writeSrc = _sys.allocHost(binary.size());
                    _sys.mem().store().writeVec(inst.writeSrc, binary);
                    const auto wtext = serializeObject(AnyObject(wobj));
                    inst.writeDst = _sys.createFileOn(
                        inst.device, name + ".wdst",
                        std::vector<std::uint8_t>(wtext.size(), 0));
                    _ingestDone = std::max(_ingestDone, inst.writeDst.readyAt);
                }
            }
        }
    }

    void generateTrace()
    {
        const ZipfianGenerator *zipf = _objZipf ? &*_objZipf : nullptr;
        for (unsigned ti = 0; ti < _opts.tenants.size(); ++ti) {
            sim::Rng rng(_opts.seed * 1000003u + _opts.tenants[ti].id);
            if (!_opts.closedLoop) {
                auto trace = genArrivals(_opts, ti, zipf, rng);
                _requests.insert(_requests.end(), trace.begin(), trace.end());
                continue;
            }
            // Closed loop: the size-class draws are fixed up front (so the
            // run is deterministic in the seed), but arrival times are
            // assigned at issue — each tenant's next request starts when
            // one of its in-flight requests finishes.
            for (std::uint64_t n = 0; n < _opts.closedLoopRequests; ++n)
                _requests.push_back(drawRequest(_opts, ti, zipf, rng));
        }
        if (_opts.closedLoop)
            return;
        // Arrivals start after ingest so admission sees a settled device.
        for (Request &r : _requests)
            r.arrival += _ingestDone;
        std::stable_sort(_requests.begin(), _requests.end(),
                         [](const Request &a, const Request &b) {
                             return a.arrival < b.arrival;
                         });
    }

    void serve()
    {
        // Fault injection covers only the measured loop (ingest ran clean);
        // the injector stays installed through metrics federation so
        // sys.faults.* is visible there. An inactive plan installs nothing,
        // keeping the fault-free run bit-identical.
        if (_opts.faults.active()) {
            _injector.emplace(_opts.faults);
            _faultScope.emplace(&*_injector);
        }

        // The recorder becomes THE trace sink for the measured loop,
        // tee-ing to whatever sink was attached (a breakdown without an
        // explicit recorder gets a private one). It observes simulated
        // time without perturbing it: results stay bit-identical.
        _recorder = _opts.flightRecorder;
        if (_recorder == nullptr && _opts.breakdown) {
            obs::FlightRecorderConfig frc;
            frc.downstream = obs::traceSink();
            _localRecorder.emplace(frc);
            _recorder = &*_localRecorder;
        }
        // Attach/detach by hand instead of an optional ScopedTraceSink:
        // GCC 12's -Wmaybe-uninitialized misfires on the optional's
        // destructor path at this inlining depth.
        obs::TraceSink *const prev_sink = obs::traceSink();
        if (_recorder != nullptr)
            obs::setTraceSink(_recorder);

        const std::size_t n = _requests.size();
        _outcomes.resize(n);
        if (_recorder != nullptr) {
            _reqTraces.resize(n);
            _reqAttr.resize(n);
            _reqAttributed.assign(n, 0);
            _parkBegin.assign(n, 0);
        }
        _lastDone = _ingestDone;

        _loopQueue.resize(_opts.tenants.size());
        _loopNext.assign(_opts.tenants.size(), 0);
        if (_opts.closedLoop) {
            for (unsigned i = 0; i < n; ++i)
                _loopQueue[_requests[i].tenantIdx].push_back(i);
            for (unsigned ti = 0; ti < _opts.tenants.size(); ++ti)
                for (unsigned c = 0; c < _opts.closedLoopConcurrency; ++c)
                    issueNext(ti, _ingestDone);
        } else {
            for (unsigned i = 0; i < n; ++i)
                schedule(Event::kArrival, i, _requests[i].arrival);
        }

        // Gauge schema + cadence anchored at the first arrival.
        obs::GaugeSeries *tl = _opts.timeline;
        if (tl != nullptr) {
            std::vector<std::string> cols{
                "inflight",        "parked",          "completed",
                "rejected",        "lost",            "fallbacks",
                "backlog_bytes",   "dsram_used_bytes", "cache_hits",
                "cache_misses",    "driver_retries",  "driver_timeouts",
                "faults"};
            for (const TenantSpec &t : _opts.tenants)
                cols.push_back("tenant" + std::to_string(t.id) +
                               "_completed");
            tl->setColumns(std::move(cols));
            tl->start(firstArrival());
        }

        while (!_events.empty()) {
            const Event ev = _events.top();
            _events.pop();
            if (tl != nullptr) {
                // Catch the cadence up to this event: rows land at exact
                // interval boundaries with the state as of the boundary.
                while (tl->due(ev.time))
                    tl->record(sampleRow());
            }
            std::uint64_t cut = 0;
            if (ev.kind == Event::kStep)
                stepSession(ev.idx);
            else if (route(ev.idx, ev.time, &cut))
                submit(ev.idx, ev.time, cut);
        }
        MORPHEUS_ASSERT(_parked.empty(),
                        "parked requests with no active session left");
        if (tl != nullptr) {
            // Close the series with one row at or past the last event so
            // the final counter state is visible in the export.
            while (tl->due(_lastDone))
                tl->record(sampleRow());
            tl->record(sampleRow());
        }
        // Detach the recorder before teardown; retained traces and the
        // per-request attributions survive in the recorder and _reqAttr.
        if (_recorder != nullptr)
            obs::setTraceSink(prev_sink);
    }

    ServingReport aggregate()
    {
        ServingReport report;
        LatencyTally all_lat;
        std::vector<unsigned> all_attr_idx;
        std::vector<double> fairness_x;
        for (unsigned ti = 0; ti < _opts.tenants.size(); ++ti) {
            const TenantReport tr = tenantReport(ti, &all_lat, &all_attr_idx);
            report.submitted += tr.submitted;
            report.completed += tr.completed;
            report.rejected += tr.rejected;
            report.deviceFailures += tr.deviceFailures;
            report.fallbacks += tr.fallbacks;
            report.fallbackBreaker += tr.fallbackBreaker;
            report.fallbackOverload += tr.fallbackOverload;
            report.fallbackProbe += tr.fallbackProbe;
            report.splitRequests += tr.splitRequests;
            report.overloadBounces += tr.overloadBounces;
            report.shedBounces += tr.shedBounces;
            report.shedRejected += tr.shedRejected;
            report.lost += tr.lost;
            report.writes += tr.writes;
            report.writeBytes += tr.writeBytes;
            report.cacheHits += tr.cacheHits;
            fairness_x.push_back(static_cast<double>(tr.servedBytes) /
                                 _opts.tenants[ti].weight);
            report.tenants.push_back(tr);
        }
        fillLatency(report, all_lat);
        summarizeStages(std::move(all_attr_idx), &report.stageMeanUs,
                        &report.stageP99Us, &report.attributed);

        double sum = 0.0, sum_sq = 0.0;
        for (double x : fairness_x) {
            sum += x;
            sum_sq += x * x;
        }
        report.jainFairness =
            sum_sq > 0.0
                ? (sum * sum) /
                      (static_cast<double>(fairness_x.size()) * sum_sq)
                : 1.0;

        if (_opts.hybrid.enabled) {
            for (const sched::HybridPlacementPolicy &pol : _hybridPol) {
                for (unsigned p = 0; p < sched::kNumPlacements; ++p)
                    report.hybridDecisions[p] +=
                        pol.decisions(static_cast<sched::ExecPlacement>(p));
                report.hybridFlips += pol.flips();
            }
        }

        report.makespan = _lastDone - firstArrival();
        report.throughputPerSec =
            report.makespan
                ? static_cast<double>(report.completed) /
                      (static_cast<double>(report.makespan) /
                       static_cast<double>(sim::kPsPerSec))
                : 0.0;
        for (unsigned d = 0; d < _numSsds; ++d) {
            report.migrations +=
                _sys.ssd(d).scheduler().dispatcher().migrations();
            report.drrDelays += _sys.ssd(d).scheduler().arbiter().dataDelays();
            report.driverRetries += _sys.nvmeDriver(d).retriesIssued();
            report.driverTimeouts += _sys.nvmeDriver(d).timeoutsSynthesized();
        }
        if (_numSsds > 1)
            shardReports(report);
        return report;
    }

    /** Federate the machine's stats and the report into the registry (the
     *  values must be snapshotted before `_sys` and the device stats die
     *  with this run). */
    void federate(const ServingReport &report, obs::MetricsRegistry &reg)
    {
        sim::stats::StatSet set;
        _sys.registerStats(set);
        // Device 0 keeps the classic "morpheus" prefix; fleet devices
        // federate under "morpheus1", "morpheus2", ...
        for (unsigned d = 0; d < _numSsds; ++d) {
            _fabric.deviceRuntime(d).registerStats(
                set, d == 0 ? "morpheus" : "morpheus" + std::to_string(d));
        }
        reg.absorb(set, "sys.");
        for (const TenantReport &tr : report.tenants) {
            const std::string p =
                "serving.tenant." + std::to_string(tr.id) + ".";
            setOutcomeCounters(reg, p, tr);
            reg.setCounter(p + "retries", tr.retries);
            reg.setCounter(p + "dsramBounces", tr.dsramBounces);
            reg.setCounter(p + "format",
                           static_cast<std::uint64_t>(tr.format));
            reg.setScalar(p + "cache_hit_rate", tr.cacheHitRate);
            reg.setCounter(p + "servedBytes", tr.servedBytes);
            setLatencyScalars(reg, p, tr, /*with_max=*/true);
            if (_opts.slo.enabled) {
                reg.setScalar(p + "slo.target_us", tr.sloTargetUs);
                reg.setCounter(p + "slo.violations", tr.sloViolations);
                reg.setCounter(p + "slo.good_windows", tr.sloGoodWindows);
                reg.setCounter(p + "slo.bad_windows", tr.sloBadWindows);
                reg.setScalar(p + "slo.burn_rate", tr.sloBurnRate);
            }
            if (tr.attributed > 0)
                setStageScalars(reg, p, tr.stageMeanUs, tr.stageP99Us);
        }
        setOutcomeCounters(reg, "serving.", report);
        reg.setCounter("serving.driverRetries", report.driverRetries);
        reg.setCounter("serving.driverTimeouts", report.driverTimeouts);
        reg.setCounter("serving.migrations", report.migrations);
        reg.setCounter("serving.drrDelays", report.drrDelays);
        reg.setCounter("serving.makespan_ticks", report.makespan);
        setLatencyScalars(reg, "serving.", report, /*with_max=*/true);
        reg.setScalar("serving.jain_fairness", report.jainFairness);
        reg.setScalar("serving.throughput_per_sec", report.throughputPerSec);
        if (_opts.hybrid.enabled) {
            for (unsigned p = 0; p < sched::kNumPlacements; ++p) {
                reg.setCounter(std::string("sched.hybrid.decisions.") +
                                   sched::placementName(
                                       static_cast<sched::ExecPlacement>(p)),
                               report.hybridDecisions[p]);
            }
            reg.setCounter("sched.hybrid.flips", report.hybridFlips);
            reg.setCounter("serving.split", report.splitRequests);
            reg.setCounter("serving.overloadBounces", report.overloadBounces);
            reg.setCounter("serving.shed.bounces", report.shedBounces);
            reg.setCounter("serving.shed.rejected", report.shedRejected);
        }
        if (report.attributed > 0) {
            reg.setCounter("serving.attributed", report.attributed);
            setStageScalars(reg, "serving.", report.stageMeanUs,
                            report.stageP99Us);
        }
        if (_numSsds > 1) {
            for (const ShardReport &sr : report.shards) {
                const std::string p =
                    "shard." + std::to_string(sr.device) + ".";
                reg.setCounter(p + "requests", sr.requests);
                reg.setCounter(p + "completed", sr.completed);
                reg.setCounter(p + "servedBytes", sr.servedBytes);
                setLatencyScalars(reg, p, sr, /*with_max=*/false);
            }
            reg.setCounter("serving.straggler_shard", report.stragglerShard);
            reg.setCounter("fleet.devices", _numSsds);
            reg.setCounter("fleet.completed", report.completed);
            setLatencyScalars(reg, "fleet.", report, /*with_max=*/false);
            reg.setScalar("fleet.throughput_per_sec", report.throughputPerSec);
        }
    }

  private:
    const ObjectInstance &objectOf(unsigned req_idx) const
    {
        const Request &req = _requests[req_idx];
        return _classes[req.tenantIdx][req.classIdx].objects[req.objIdx];
    }

    std::uint32_t tenantId(unsigned req_idx) const
    {
        return _opts.tenants[_requests[req_idx].tenantIdx].id;
    }

    /** Per-request applet selection by the tenant's format (the write path
     *  always runs the int64 serializer). All-int-array mixes resolve to
     *  the same image reference every request. */
    const core::StorageAppImage &image(const TenantSpec &t, bool write) const
    {
        if (write)
            return _images.int64Serializer;
        switch (t.format) {
          case TenantFormat::kIntArray:
            return imageFor(ObjectKind::kIntArray, _images);
          case TenantFormat::kCsv:
            return imageFor(ObjectKind::kCsvTable, _images);
          case TenantFormat::kJson:
            return imageFor(ObjectKind::kJsonRecords, _images);
          case TenantFormat::kColumnar:
            return _images.columnarScan;
        }
        return imageFor(ObjectKind::kIntArray, _images);
    }

    sim::Tick firstArrival() const
    {
        return _opts.closedLoop || _requests.empty()
                   ? _ingestDone
                   : _requests.front().arrival;
    }

    void schedule(Event::Kind kind, unsigned idx, sim::Tick when)
    {
        _events.push(Event{when, _seq++, kind, idx});
    }

    /** Issue the tenant's next request at @p when (closed loop only;
     *  called from every terminal outcome so the in-flight count stays at
     *  the configured concurrency until the quota runs out). */
    void issueNext(unsigned tenant_idx, sim::Tick when)
    {
        if (!_opts.closedLoop)
            return;
        std::size_t &cursor = _loopNext[tenant_idx];
        if (cursor >= _loopQueue[tenant_idx].size())
            return;
        const unsigned req_idx = _loopQueue[tenant_idx][cursor++];
        _requests[req_idx].arrival = when;
        schedule(Event::kArrival, req_idx, when);
    }

    /** Re-enqueue everything parked as fresh arrivals at @p when: a
     *  completion is the retry signal a hint-less busy status asks the
     *  host to wait for (hinted bounces are timed through the heap). */
    void releaseParked(sim::Tick when)
    {
        std::vector<unsigned> waiting;
        waiting.swap(_parked);
        for (unsigned req_idx : waiting) {
            if (_recorder != nullptr)
                recordRetryWait(req_idx, _parkBegin[req_idx], when);
            schedule(Event::kArrival, req_idx, when);
        }
    }

    /** The route decision. An open breaker host-routes the request
     *  (half-open probes test the device) before hybrid placement ever
     *  sees it; a closed-breaker request may then be spilled to the
     *  host, split, or shed. @return true to submit it to the device,
     *  with @p cut a split's device prefix in bytes (0 = all of it). */
    bool route(unsigned req_idx, sim::Tick when, std::uint64_t *cut)
    {
        const Request &req = _requests[req_idx];
        const ObjectInstance &inst = objectOf(req_idx);
        const sched::CircuitBreaker::Route br_route =
            _breakers[req.tenantIdx].route();
        _outcomes[req_idx].probe =
            br_route == sched::CircuitBreaker::Route::kProbe;
        if (br_route == sched::CircuitBreaker::Route::kHost) {
            fallBack(req_idx, when, FallbackReason::kBreaker);
            return false;
        }
        if (!_opts.hybrid.enabled || req.write ||
            br_route != sched::CircuitBreaker::Route::kDevice)
            return true;

        sched::HybridSignals sig;
        sig.backlogBytes = _fabric.deviceBacklogBytes(inst.device);
        sig.queueDepth = _fabric.deviceQueueDepth(inst.device);
        sig.dsramBounces = _fabric.deviceDsramBounces(inst.device);
        sig.hostBacklogUs = _hostExec.minBacklogUs(when);
        sig.requestBytes = inst.extent.sizeBytes;
        const sched::PlacementDecision pd =
            _hybridPol[inst.device].decide(sig, when);
        switch (pd.placement) {
          case sched::ExecPlacement::kDevice:
            return true;
          case sched::ExecPlacement::kHost:
            recordServingInstant("place_host", tenantId(req_idx), when);
            fallBack(req_idx, when, FallbackReason::kOverload);
            return false;
          case sched::ExecPlacement::kShed:
            shed(req_idx, when, pd.retryAfterUs);
            return false;
          case sched::ExecPlacement::kSplit:
            *cut = static_cast<std::uint64_t>(
                static_cast<double>(inst.extent.sizeBytes) * pd.deviceShare);
            if (*cut == 0 || *cut >= inst.extent.sizeBytes)
                *cut = 0;  // degenerate split: plain device path
            else
                recordServingInstant("place_split", tenantId(req_idx), when);
            return true;
        }
        return true;
    }

    /** A shed bounce: re-offer the request after a linear backoff over its
     *  bounce count, or past the bounce budget reject it outright instead
     *  of feeding an unbounded retry queue. */
    void shed(unsigned req_idx, sim::Tick when, std::uint32_t retry_after_us)
    {
        Outcome &out = _outcomes[req_idx];
        ++out.shedBounces;
        recordServingInstant("shed_bounce", tenantId(req_idx), when);
        if (out.shedBounces > _opts.hybrid.shedMaxBounces) {
            finish(req_idx, Terminal::kShedRejected, when);
            return;
        }
        ++out.retries;
        const sim::Tick resume = when + sim::Tick(retry_after_us) *
                                            sim::kPsPerUs *
                                            sim::Tick(out.shedBounces);
        if (_recorder != nullptr) {
            hostTrace(req_idx);
            recordRetryWait(req_idx, when, resume);
        }
        schedule(Event::kArrival, req_idx, resume);
    }

    void submit(unsigned req_idx, sim::Tick when, std::uint64_t cut)
    {
        const Request &req = _requests[req_idx];
        const TenantSpec &tenant = _opts.tenants[req.tenantIdx];
        const ObjectInstance &inst = objectOf(req_idx);
        core::MorpheusRuntime &runtime = _fabric.runtime(inst.device);

        core::InvokeOptions iopts;
        iopts.hostCore = req.tenantIdx % _sys.cpu().config().cores;
        iopts.chunkBlocks = _opts.chunkBlocks;
        iopts.flushThreshold = _opts.flushThreshold;
        iopts.tenantId = tenant.id;
        // A split streams only the prefix sub-extent through the device
        // (MINIT declares the prefix length, MREAD chunks are byte-precise,
        // and the int-array parser tolerates the truncated tail); the host
        // converts the remainder concurrently once the MINIT is accepted.
        host::FileExtent dev_extent = inst.extent;
        if (req.write) {
            // MWRITE session: the stream declares the binary source
            // length; chunks land behind the scratch region's base.
            iopts.serialize = true;
            iopts.writeSrc = inst.writeSrc;
            iopts.writeDstByte = inst.writeDst.startByte;
            dev_extent = inst.writeDst;
            dev_extent.sizeBytes = inst.writeSrcBytes;
        } else {
            iopts.pushdown = _tenantPushdown[req.tenantIdx];
            if (cut > 0)
                dev_extent.sizeBytes = cut;
        }
        const core::DmaTarget target =
            req.write ? core::DmaTarget{inst.writeSrc, false}
                      : runtime.hostTarget(inst.objectBytes);
        const core::MsStream stream =
            runtime.streamCreate(dev_extent, when, iopts.hostCore);

        core::InvokeSession s = runtime.beginInvoke(
            image(tenant, req.write), stream, target, when, iopts);
        if (!s.accepted) {
            refused(req_idx, s);
            return;
        }
        if (cut > 0) {
            // MINIT accepted the prefix: charge the host half of the split
            // now, concurrent (in simulated time) with the device stream. A
            // bounced MINIT never reaches here, so a bounce costs no host
            // work.
            Outcome &out = _outcomes[req_idx];
            out.splitCut = cut;
            host::FileExtent rest = inst.extent;
            rest.startByte += cut;
            rest.sizeBytes -= cut;
            out.splitHostDone = _hostExec.execute(
                hostRequest(req_idx, rest), _hostExec.leastLoadedCore(), when);
            out.split = true;
        }
        if (_freeSlots.empty()) {
            _freeSlots.push_back(static_cast<unsigned>(_active.size()));
            _active.emplace_back();
        }
        const unsigned slot = _freeSlots.back();
        _freeSlots.pop_back();
        _active[slot] = ActiveSession{std::move(s), req_idx, inst.device};
        schedule(Event::kStep, slot, _active[slot].session.now);
    }

    /** A refused MINIT: a device failure (an injected fault with the retry
     *  budget spent), a retryable bounce, or an admission rejection. */
    void refused(unsigned req_idx, const core::InvokeSession &s)
    {
        noteTraces(req_idx, s.traceIds);
        const sim::Tick done = s.result.done;
        if (s.failed) {
            deviceFailure(req_idx, done);
            return;
        }
        if (!s.retry) {
            finish(req_idx, Terminal::kRejected, done);
            return;
        }
        Outcome &out = _outcomes[req_idx];
        ++out.retries;
        if (s.minitStatus == nvme::Status::kDsramExhausted)
            ++out.dsramBounces;
        if (s.minitStatus == nvme::Status::kOverloaded) {
            ++out.overloadBounces;
            if (_opts.hybrid.enabled) {
                // The device named its condition with an explicit
                // kOverloaded: spill to the host now instead of
                // re-queueing on the device.
                fallBack(req_idx, done, FallbackReason::kOverload);
                return;
            }
        }
        if (s.retryAfterUs > 0) {
            // Honor the completion's retry-after hint instead of waiting
            // for an unrelated completion.
            const sim::Tick resume =
                done + sim::Tick(s.retryAfterUs) * sim::kPsPerUs;
            recordRetryWait(req_idx, done, resume);
            schedule(Event::kArrival, req_idx, resume);
        } else {
            if (_recorder != nullptr)
                _parkBegin[req_idx] = done;
            _parked.push_back(req_idx);
        }
    }

    /** Advance session @p slot by one MREAD batch; once its stream is done
     *  or failed, close it and record the request's outcome. */
    void stepSession(unsigned slot)
    {
        ActiveSession &as = _active[slot];
        core::MorpheusRuntime &runtime = _fabric.runtime(as.device);
        if (!as.session.streamDone() && !as.session.failed) {
            const sim::Tick next = runtime.stepInvoke(as.session);
            if (!as.session.streamDone() && !as.session.failed) {
                schedule(Event::kStep, slot, next);
                return;
            }
        }
        const unsigned req_idx = as.requestIdx;
        const core::InvokeResult result =
            as.session.failed ? runtime.abortInvoke(as.session)
                              : runtime.finishInvoke(as.session);
        noteTraces(req_idx, as.session.traceIds);
        _freeSlots.push_back(slot);
        if (result.failed) {
            deviceFailure(req_idx, result.done);
            // The ended session freed device resources, which is the
            // signal parked requests wait for, rescued or lost.
            releaseParked(result.done);
            return;
        }
        const Request &req = _requests[req_idx];
        if (_breakers[req.tenantIdx].onDeviceSuccess()) {
            // A successful device-path probe: the device healed.
            recordServingInstant("breaker_close", tenantId(req_idx),
                                 result.done);
        }
        const ObjectInstance &inst = objectOf(req_idx);
        sim::Tick term = result.done;
        // A serialize session delivers nothing to the host; the served
        // volume is the binary stream it pushed down.
        std::uint64_t served =
            req.write ? inst.writeSrcBytes : result.objectBytes;
        Outcome &out = _outcomes[req_idx];
        if (out.splitCut > 0) {
            // A split request finishes when BOTH halves have: the device's
            // prefix stream and the host's concurrent remainder. The whole
            // object counts as served.
            term = std::max(term, out.splitHostDone);
            served = inst.objectBytes;
            out.splitCut = 0;
        }
        out.servedFromCache = result.servedFromCache;
        finish(req_idx, Terminal::kCompleted, term, served);
    }

    /** A device-path attempt for @p req_idx failed terminally at @p when:
     *  the breaker rescues it on the host path (completion stays at 100%
     *  while the device is faulting; a failed half-open probe's rescue
     *  counts under its own reason), or with the breaker off (the
     *  recovery-off ablation) it is lost. */
    void deviceFailure(unsigned req_idx, sim::Tick when)
    {
        ++_outcomes[req_idx].deviceFailures;
        if (_breakers[_requests[req_idx].tenantIdx].onDeviceFailure())
            recordServingInstant("breaker_open", tenantId(req_idx), when);
        if (_opts.breakerThreshold > 0) {
            fallBack(req_idx, when,
                     _outcomes[req_idx].probe
                         ? FallbackReason::kProbe
                         : FallbackReason::kBreaker);
        } else {
            finish(req_idx, Terminal::kLost, when);
        }
    }

    /** The paper's baseline path (Fig 1), via the host-execution engine:
     *  host read()s the raw text in chunks and converts on the CPU. The
     *  breaker uses it to keep availability at 100% while the device path
     *  is faulting; the hybrid policy uses it as spill capacity past
     *  device saturation. */
    void fallBack(unsigned req_idx, sim::Tick when,
                  FallbackReason reason)
    {
        const Request &req = _requests[req_idx];
        const ObjectInstance &inst = objectOf(req_idx);
        // Breaker-path rescues keep the classic tenant-pinned core;
        // overload spill spreads over the least-loaded core.
        const unsigned core = reason == FallbackReason::kOverload
                                  ? _hostExec.leastLoadedCore()
                                  : req.tenantIdx % _sys.cpu().config().cores;
        // A write request's rescue is the baseline host serialization: the
        // CPU formats the values and a plain write lands the text, modeled
        // with the same chunked transfer+convert charge over the
        // destination region. A failed split session is rescued over its
        // device prefix only: the host half of the remainder already ran.
        Outcome &out = _outcomes[req_idx];
        host::FileExtent extent = req.write ? inst.writeDst : inst.extent;
        if (out.splitCut > 0)
            extent.sizeBytes = out.splitCut;
        sim::Tick done =
            _hostExec.execute(hostRequest(req_idx, extent), core, when);
        if (out.splitCut > 0) {
            done = std::max(done, out.splitHostDone);
            out.splitCut = 0;
        }
        recordServingInstant("fallback", tenantId(req_idx), when);
        out.fallbackReason = reason;
        finish(req_idx, Terminal::kFellBack, done,
               req.write ? inst.writeSrcBytes : inst.objectBytes);
    }

    /** Host-execution request over @p extent of @p req_idx's file (all
     *  of it, a failed split's device prefix, or a split's host
     *  remainder). */
    host::HostExecRequest hostRequest(unsigned req_idx,
                                      const host::FileExtent &extent)
    {
        const ObjectInstance &inst = objectOf(req_idx);
        const bool write = _requests[req_idx].write;
        host::HostExecRequest hreq;
        hreq.backend = &_sys.ssdBackend(inst.device);
        hreq.chunkBytes = host::HostExecEngine::kChunkBytes;
        hreq.extent = extent;
        hreq.fileBytes = (write ? inst.writeDst : inst.extent).sizeBytes;
        hreq.objectBytes = write ? inst.writeSrcBytes : inst.objectBytes;
        hreq.cost = inst.cost;
        hreq.tenant = tenantId(req_idx);
        hreq.trace = hostTrace(req_idx);
        return hreq;
    }

    /**
     * Record @p req_idx's terminal outcome at @p done, the one place that
     * does: the outcome flags, the makespan and the running gauges, the
     * trace hand-off, then the closed loop's next issue. A completion
     * (device or host, serving @p served bytes) also releases the parked
     * requests before that issue; a rejection or a loss does not.
     */
    void finish(unsigned req_idx, Terminal kind, sim::Tick done,
                std::uint64_t served = 0)
    {
        const unsigned ti = _requests[req_idx].tenantIdx;
        Outcome &out = _outcomes[req_idx];
        const bool completed =
            kind == Terminal::kCompleted || kind == Terminal::kFellBack;
        if (completed) {
            out.completed = true;
            out.fellBack = kind == Terminal::kFellBack;
            out.latency = done - _requests[req_idx].arrival;
            out.servedBytes = served;
            ++_completedRun;
            if (kind == Terminal::kFellBack)
                ++_fallbacksRun;
            ++_tenantDoneRun[ti];
        } else if (kind == Terminal::kLost) {
            ++_lostRun;
        } else {
            out.rejected = true;
            out.shedRejected = kind == Terminal::kShedRejected;
            ++_rejectedRun;
        }
        _lastDone = std::max(_lastDone, done);
        finishObservability(req_idx, /*failed=*/!completed, done);
        if (completed)
            releaseParked(done);
        issueNext(ti, done);
    }

    /** Accumulate the trace ids a request's driver commands consumed
     *  (across every bounce/retry attempt). */
    void noteTraces(unsigned req_idx, const std::vector<obs::TraceId> &ids)
    {
        if (_recorder == nullptr)
            return;
        _reqTraces[req_idx].insert(_reqTraces[req_idx].end(), ids.begin(),
                                   ids.end());
    }

    /** Trace id the host-side spans of a request ride under: the last
     *  device-command id when the request touched the device, else a
     *  synthetic id in a device range (0xFF) no fleet reaches — so a
     *  host-only request's spans are still collectible by id. */
    obs::TraceId hostTrace(unsigned req_idx)
    {
        if (_recorder == nullptr)
            return 0;
        if (!_reqTraces[req_idx].empty())
            return _reqTraces[req_idx].back();
        const obs::TraceId id = (obs::TraceId{0xFFu} << 24) | ++_hostTraceSeq;
        _reqTraces[req_idx].push_back(id);
        return id;
    }

    /** Synthetic host-side backoff span: the wait between a bounce and the
     *  re-submission is real latency the device never sees; naming it
     *  keeps the critical-path attribution gap-free. */
    void recordRetryWait(unsigned req_idx, sim::Tick begin, sim::Tick end)
    {
        if (_recorder == nullptr || end <= begin ||
            _reqTraces[req_idx].empty())
            return;
        obs::recordSpan(*_recorder, "host.serving", "retry_wait", "serving",
                        begin, end,
                        {_reqTraces[req_idx].back(), tenantId(req_idx)});
    }

    /** Pull the request's spans out of the ring, derive the stage
     *  decomposition for completed requests, and offer the full trace for
     *  slowest-K / failed retention. */
    void finishObservability(unsigned req_idx, bool failed, sim::Tick done)
    {
        if (_recorder == nullptr)
            return;
        const Request &req = _requests[req_idx];
        const Outcome &out = _outcomes[req_idx];
        std::vector<obs::Span> spans = _recorder->collect(_reqTraces[req_idx]);
        const sim::Tick end = out.completed ? req.arrival + out.latency : done;
        if (!failed && out.completed) {
            _reqAttr[req_idx] = obs::attributeSpans(spans, req.arrival, end);
            _reqAttributed[req_idx] = 1;
        }
        obs::RequestMeta meta;
        meta.requestId = req_idx;
        meta.tenant = tenantId(req_idx);
        meta.begin = req.arrival;
        meta.end = end;
        // Requests that saw a device failure (including the ones that
        // tripped the breaker and were rescued by the host path) are always
        // retention-worthy.
        meta.failed = failed || out.deviceFailures > 0;
        _recorder->offer(meta, std::move(spans));
    }

    /** One gauge row: loop state + device occupancy/cache/fault reads. */
    std::vector<double> sampleRow()
    {
        std::uint64_t backlog = 0, dsram = 0, hits = 0, misses = 0,
                      retries = 0, timeouts = 0, faults = 0;
        for (unsigned d = 0; d < _numSsds; ++d) {
            auto &ssd = _sys.ssd(d);
            for (unsigned c = 0; c < ssd.numCores(); ++c) {
                backlog += ssd.scheduler().dispatcher().pendingBytes(c);
                dsram += ssd.core(c).dsramUsed();
            }
            hits += ssd.objectCache().hits();
            misses += ssd.objectCache().misses();
            retries += _sys.nvmeDriver(d).retriesIssued();
            timeouts += _sys.nvmeDriver(d).timeoutsSynthesized();
        }
        if (_injector) {
            faults = _injector->mediaErrors() + _injector->dmaFaults() +
                     _injector->appCrashes() + _injector->appHangs();
        }
        std::vector<double> v;
        for (const std::uint64_t x :
             {std::uint64_t(_active.size() - _freeSlots.size()),
              std::uint64_t(_parked.size()), _completedRun, _rejectedRun,
              _lostRun, _fallbacksRun, backlog, dsram, hits, misses, retries,
              timeouts, faults})
            v.push_back(static_cast<double>(x));
        for (const std::uint64_t t : _tenantDoneRun)
            v.push_back(static_cast<double>(t));
        return v;
    }

    /** Per-stage summary over @p idx (attributed request indices): mean
     *  stage ticks and the p99-ranked request's exact decomposition (which
     *  sums to that request's latency). */
    void summarizeStages(std::vector<unsigned> idx,
                         std::array<double, obs::kNumStages> *mean,
                         std::array<double, obs::kNumStages> *p99,
                         std::uint64_t *count) const
    {
        *count = idx.size();
        if (idx.empty())
            return;
        obs::Attribution sum;
        for (const unsigned i : idx)
            sum += _reqAttr[i];
        for (std::size_t s = 0; s < obs::kNumStages; ++s) {
            (*mean)[s] =
                sim::ticksToUs(sum.ticks[s]) / static_cast<double>(idx.size());
        }
        std::sort(idx.begin(), idx.end(), [&](unsigned a, unsigned b) {
            if (_outcomes[a].latency != _outcomes[b].latency)
                return _outcomes[a].latency < _outcomes[b].latency;
            return a < b;
        });
        const auto rank = std::min<std::size_t>(
            idx.size() - 1,
            static_cast<std::size_t>(
                std::ceil(0.99 * static_cast<double>(idx.size()))) -
                1);
        const obs::Attribution &a = _reqAttr[idx[rank]];
        for (std::size_t s = 0; s < obs::kNumStages; ++s)
            (*p99)[s] = sim::ticksToUs(a.ticks[s]);
    }

    /** Tenant @p ti's report; its completed latencies and attributed
     *  requests also go to @p all_lat and @p all_attr. */
    TenantReport tenantReport(unsigned ti, LatencyTally *all_lat,
                              std::vector<unsigned> *all_attr) const
    {
        const TenantSpec &tenant = _opts.tenants[ti];
        TenantReport tr;
        tr.id = tenant.id;
        tr.weight = tenant.weight;
        tr.format = tenant.format;
        if (_opts.slo.enabled) {
            tr.sloTargetUs = tenant.sloTargetUs > 0.0 ? tenant.sloTargetUs
                                                      : _opts.slo.targetUs;
        }
        const sim::Tick first_arrival = firstArrival();
        // Burn windows: window -> (completions, violations), keyed by
        // completion time relative to the first arrival.
        std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
            slo_windows;
        std::vector<unsigned> attr_idx;
        LatencyTally lat;
        for (unsigned i = 0; i < _requests.size(); ++i) {
            if (_requests[i].tenantIdx != ti)
                continue;
            const Outcome &out = _outcomes[i];
            ++tr.submitted;
            tr.retries += out.retries;
            tr.dsramBounces += out.dsramBounces;
            tr.overloadBounces += out.overloadBounces;
            tr.shedBounces += out.shedBounces;
            tr.deviceFailures += out.deviceFailures;
            if (out.fellBack) {
                using Reason = FallbackReason;
                ++tr.fallbacks;
                tr.fallbackBreaker += out.fallbackReason == Reason::kBreaker;
                tr.fallbackProbe += out.fallbackReason == Reason::kProbe;
                tr.fallbackOverload += out.fallbackReason == Reason::kOverload;
            }
            if (out.rejected) {
                ++tr.rejected;
                if (out.shedRejected)
                    ++tr.shedRejected;
                continue;
            }
            if (!out.completed) {
                ++tr.lost;
                continue;
            }
            ++tr.completed;
            if (out.split && !out.fellBack)
                ++tr.splitRequests;
            if (out.servedFromCache)
                ++tr.cacheHits;
            if (_requests[i].write) {
                ++tr.writes;
                tr.writeBytes += out.servedBytes;
            }
            tr.servedBytes += out.servedBytes;
            const double us = sim::ticksToUs(out.latency);
            lat.sample(us);
            all_lat->sample(us);
            if (_recorder != nullptr && _reqAttributed[i]) {
                attr_idx.push_back(i);
                all_attr->push_back(i);
            }
            if (_opts.slo.enabled && _opts.slo.windowUs > 0.0) {
                const sim::Tick done = _requests[i].arrival + out.latency;
                const double rel_us = sim::ticksToUs(
                    done > first_arrival ? done - first_arrival : 0);
                auto &[cnt, viol] = slo_windows[static_cast<std::uint64_t>(
                    rel_us / _opts.slo.windowUs)];
                ++cnt;
                if (us > tr.sloTargetUs) {
                    ++viol;
                    ++tr.sloViolations;
                }
            }
        }
        if (_opts.slo.enabled) {
            for (const auto &[w, cv] : slo_windows) {
                const double frac = static_cast<double>(cv.second) /
                                    static_cast<double>(cv.first);
                if (frac > 1.0 - _opts.slo.objective)
                    ++tr.sloBadWindows;
                else
                    ++tr.sloGoodWindows;
            }
            if (tr.completed > 0 && _opts.slo.objective < 1.0) {
                tr.sloBurnRate = (static_cast<double>(tr.sloViolations) /
                                  static_cast<double>(tr.completed)) /
                                 (1.0 - _opts.slo.objective);
            }
        }
        summarizeStages(std::move(attr_idx), &tr.stageMeanUs, &tr.stageP99Us,
                        &tr.attributed);
        tr.cacheHitRate = tr.completed
                              ? static_cast<double>(tr.cacheHits) /
                                    static_cast<double>(tr.completed)
                              : 0.0;
        fillLatency(tr, lat);
        return tr;
    }

    /** The per-shard view of a fleet run, and its straggler: the shard
     *  whose tail holds everyone back. */
    void shardReports(ServingReport &report) const
    {
        std::vector<LatencyTally> shard_lat(_numSsds);
        report.shards.resize(_numSsds);
        for (unsigned d = 0; d < _numSsds; ++d)
            report.shards[d].device = d;
        for (unsigned i = 0; i < _requests.size(); ++i) {
            const unsigned device = objectOf(i).device;
            ShardReport &sr = report.shards[device];
            ++sr.requests;
            if (!_outcomes[i].completed)
                continue;
            ++sr.completed;
            sr.servedBytes += _outcomes[i].servedBytes;
            shard_lat[device].sample(sim::ticksToUs(_outcomes[i].latency));
        }
        double worst = -1.0;
        for (unsigned d = 0; d < _numSsds; ++d) {
            ShardReport &sr = report.shards[d];
            fillLatency(sr, shard_lat[d]);
            if (sr.p99Us > worst) {
                worst = sr.p99Us;
                report.stragglerShard = sr.device;
            }
        }
    }

    const ServingOptions &_opts;
    host::HostSystem _sys;
    shard::ShardFabric _fabric;
    core::StandardImages _images;
    const unsigned _numSsds;
    const unsigned _objsPerClass;
    std::optional<ZipfianGenerator> _objZipf;
    /** Per tenant: the encoded pushdown descriptor its reads carry. */
    std::vector<std::vector<std::uint32_t>> _tenantPushdown;
    std::vector<std::vector<SizeClass>> _classes;
    sim::Tick _ingestDone = 0;
    std::vector<Request> _requests;

    // Installed by serve() for the measured loop, kept through
    // federation.
    std::optional<sim::FaultInjector> _injector;
    std::optional<sim::ScopedFaultInjector> _faultScope;
    std::optional<obs::FlightRecorder> _localRecorder;
    obs::FlightRecorder *_recorder = nullptr;

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        _events;
    std::uint64_t _seq = 0;
    /** Closed loop: each tenant's request indices in issue order, and
     *  the cursor to its next unissued request. */
    std::vector<std::vector<unsigned>> _loopQueue;
    std::vector<std::size_t> _loopNext;
    std::vector<ActiveSession> _active;
    std::vector<unsigned> _freeSlots;
    std::vector<unsigned> _parked;  ///< FIFO of request indices.
    std::vector<Outcome> _outcomes;
    sim::Tick _lastDone = 0;

    std::vector<sched::CircuitBreaker> _breakers;  ///< Per tenant.
    host::HostExecEngine _hostExec;
    std::vector<sched::HybridPlacementPolicy> _hybridPol;  ///< Per SSD.

    // Per-request observability (sized only with a recorder).
    std::vector<std::vector<obs::TraceId>> _reqTraces;
    std::vector<obs::Attribution> _reqAttr;
    std::vector<char> _reqAttributed;
    std::vector<sim::Tick> _parkBegin;
    std::uint32_t _hostTraceSeq = 0;

    // Running terminal-outcome counters for gauge sampling.
    std::vector<std::uint64_t> _tenantDoneRun;
    std::uint64_t _completedRun = 0, _rejectedRun = 0, _lostRun = 0,
                  _fallbacksRun = 0;
};

}  // namespace

const char *
tenantFormatName(TenantFormat f)
{
    switch (f) {
      case TenantFormat::kIntArray:
        return "intarray";
      case TenantFormat::kCsv:
        return "csv";
      case TenantFormat::kJson:
        return "json";
      case TenantFormat::kColumnar:
        return "columnar";
    }
    return "?";
}

bool
tenantFormatFromName(const std::string &name, TenantFormat *out)
{
    if (name == "intarray" || name == "int")
        *out = TenantFormat::kIntArray;
    else if (name == "csv")
        *out = TenantFormat::kCsv;
    else if (name == "json")
        *out = TenantFormat::kJson;
    else if (name == "columnar")
        *out = TenantFormat::kColumnar;
    else
        return false;
    return true;
}

ServingReport
runServing(const ServingOptions &opts)
{
    MORPHEUS_ASSERT(!opts.tenants.empty(), "serving without tenants");
    ServingRun run(opts);
    run.ingest();
    run.generateTrace();
    run.serve();
    ServingReport report = run.aggregate();
    if (opts.metrics != nullptr)
        run.federate(report, *opts.metrics);
    return report;
}

}  // namespace morpheus::workloads

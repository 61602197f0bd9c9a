/**
 * @file
 * The host-execution engine: the paper's baseline object-creation path
 * (Fig 1(b): blocking read()s of the raw text into a staging buffer,
 * CPU conversion, objects written to the object buffer) and the one
 * cost model of host-side deserialization.
 *
 * Every host conversion runs through execute():
 *  - the baseline mode of every paper figure (one execute() per rank,
 *    over the HDD, RAM-drive or NVMe backend);
 *  - the serving layer's circuit-breaker fallback, which rescues
 *    requests while the device path is faulting;
 *  - the hybrid placement policy's overload spill, including the host
 *    half of a split request (the device streams+parses a prefix while
 *    this engine converts the remainder).
 *
 * Host CPU queueing is modeled by HostCpu's per-core timelines (every
 * execute() acquires the core's unit, so concurrent host-path work
 * serializes per core exactly like any other host CPU charge), and the
 * engine exposes that backlog as the load signal the placement policy
 * compares against device pressure.
 */

#ifndef MORPHEUS_HOST_HOST_EXEC_HH
#define MORPHEUS_HOST_HOST_EXEC_HH

#include <cstdint>

#include "host/host_system.hh"
#include "obs/trace.hh"
#include "serde/parse.hh"

namespace morpheus::host {

/** One host-path execution request. */
struct HostExecRequest
{
    /** Device the text is read from. */
    StorageBackend *backend = nullptr;
    /** Read-chunk size: the staging buffer X and the bytes per read(). */
    std::uint64_t chunkBytes = 0;
    /** Byte range to read and convert — the whole file, or the suffix
     *  the device is not covering in a split. */
    FileExtent extent;
    /** Whole-file length; the conversion charge and delivered object
     *  bytes are prorated by extent.sizeBytes / fileBytes. */
    std::uint64_t fileBytes = 0;
    /** Whole-object size (prorated like the conversion). */
    std::uint64_t objectBytes = 0;
    /** Reference parse cost of the whole file. */
    serde::ParseCost cost;
    /** Tenant the execution belongs to (span annotation). */
    std::uint32_t tenant = 0;
    /** Trace id the host_exec span is recorded under (0 = none). */
    obs::TraceId trace = 0;
};

/** Executes requests on the modeled host CPU/OS/backend path. */
class HostExecEngine
{
  public:
    /** Read-chunk size of the serving layer's host path. The baseline
     *  runs use each application's own staging buffer
     *  (AppSpec::baselineChunkBytes, 8–128 KiB). */
    static constexpr std::uint64_t kChunkBytes = 256 * 1024;

    /** @p cost_scale multiplies the conversion cycles (models a
     *  relatively slower host; 1.0 = the reference model). */
    explicit HostExecEngine(HostSystem &sys, double cost_scale = 1.0);

    /**
     * Run @p req's range on host @p core starting at @p when: open()
     * syscall, object-buffer page faults, then a chunked loop of
     * backend read -> blocking-read overhead -> prorated conversion
     * cycles -> memory traffic. @return the completion tick. Records a
     * "host_exec" span under req.trace while a trace sink is attached.
     */
    sim::Tick execute(const HostExecRequest &req, unsigned core,
                      sim::Tick when);

    /** Queued host-CPU work on @p core at @p now, in microseconds. */
    double coreBacklogUs(unsigned core, sim::Tick now) const;

    /** The least-loaded core (earliest free; ties to the lowest index
     *  — deterministic). */
    unsigned leastLoadedCore() const;

    /** Backlog of the least-loaded core at @p now, in microseconds —
     *  the host-side load signal of the placement policy. */
    double minBacklogUs(sim::Tick now) const;

  private:
    HostSystem &_sys;
    const double _costScale;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_HOST_EXEC_HH

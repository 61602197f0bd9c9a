#include "host/host_exec.hh"

#include <algorithm>

#include "nvme/command.hh"
#include "sim/logging.hh"

namespace morpheus::host {

HostExecEngine::HostExecEngine(HostSystem &sys, double cost_scale)
    : _sys(sys), _costScale(cost_scale)
{
}

sim::Tick
HostExecEngine::execute(const HostExecRequest &req, unsigned core,
                        sim::Tick when)
{
    MORPHEUS_ASSERT(req.backend != nullptr && req.chunkBytes > 0,
                    "host execution needs a backend and a chunk size");
    OsModel &os = _sys.os();
    HostCpu &cpu = _sys.cpu();

    const std::uint64_t range = req.extent.sizeBytes;
    const std::uint64_t file_bytes =
        std::max<std::uint64_t>(1, req.fileBytes ? req.fileBytes
                                                 : range);
    // Object bytes this range delivers; exact for the whole file
    // (range == fileBytes), prorated for a split's remainder.
    const std::uint64_t obj_bytes =
        range == file_bytes ? req.objectBytes
                            : req.objectBytes * range / file_bytes;

    // Raw staging buffer X and the object buffer Y.
    const pcie::Addr buf_x = _sys.allocHost(req.chunkBytes);
    _sys.allocHost(obj_bytes);
    const sim::Tick opened = os.syscall(core, when);  // open()
    // First-touch faults on the freshly allocated object buffer.
    sim::Tick cpu_cursor = os.pageFaults(
        core, os.faultsForBytes(obj_bytes), opened);

    // The reference parse cost covers the whole file; each chunk's
    // conversion charge is its prorated share.
    const double total_convert =
        cpu.convertCycles(req.cost) * _costScale;
    std::uint64_t offset = 0;
    while (offset < range) {
        const std::uint64_t len =
            std::min<std::uint64_t>(req.chunkBytes, range - offset);
        // The kernel's readahead keeps a deep queue of requests at the
        // device: every chunk is issued at @p when and the device-side
        // resource timelines (flash dies, channels, PCIe link) do the
        // serializing, so sequential streams run at device bandwidth,
        // not one-request latency. A split's remainder can start
        // mid-block; the device reads whole blocks, so align the I/O
        // down (a no-op for a block-aligned start).
        const std::uint64_t start = req.extent.startByte + offset;
        const std::uint64_t skew = start % nvme::kBlockBytes;
        const sim::Tick io_done =
            req.backend->read(start - skew, len + skew, buf_x, when);
        // read() syscall + FS work + blocking switch pair, then the
        // string-to-binary conversion itself.
        const sim::Tick ready = std::max(cpu_cursor, io_done);
        const sim::Tick fs_done =
            os.blockingReadOverhead(core, len, ready);
        const double convert = total_convert *
                               static_cast<double>(len) /
                               static_cast<double>(file_bytes);
        cpu_cursor = cpu.execute(core, convert, fs_done);
        // Memory traffic: raw into X (DMA, counted by the backend),
        // raw out of X, objects into Y.
        _sys.mem().cpuAccess(len, obj_bytes * len / range, fs_done);
        offset += len;
    }

    if (auto *sink = obs::traceSink())
        obs::recordSpan(*sink, "host.exec", "host_exec", "host", when,
                        cpu_cursor, {req.trace, req.tenant});
    return cpu_cursor;
}

double
HostExecEngine::coreBacklogUs(unsigned core, sim::Tick now) const
{
    const sim::Tick free_at =
        _sys.cpu().coreTimeline(core).freeAt();
    if (free_at <= now)
        return 0.0;
    return static_cast<double>(free_at - now) /
           static_cast<double>(sim::kPsPerUs);
}

unsigned
HostExecEngine::leastLoadedCore() const
{
    const unsigned cores = _sys.cpu().config().cores;
    unsigned best = 0;
    sim::Tick best_free = _sys.cpu().coreTimeline(0).freeAt();
    for (unsigned c = 1; c < cores; ++c) {
        const sim::Tick f = _sys.cpu().coreTimeline(c).freeAt();
        if (f < best_free) {
            best_free = f;
            best = c;
        }
    }
    return best;
}

double
HostExecEngine::minBacklogUs(sim::Tick now) const
{
    return coreBacklogUs(leastLoadedCore(), now);
}

}  // namespace morpheus::host

/**
 * @file
 * Extension scenario (paper §III: "emitting key-value pairs from
 * flash-based key-value store"): a sorted key-value table lives on the
 * Morpheus-SSD as a two-column CMF1 table (`key`, `value`, both
 * int64); the host wants one key range.
 *
 * Conventional path: read the whole table over PCIe and filter it on
 * the CPU. Morpheus path: the columnar scan applet evaluates the
 * range predicate (key >= lo AND key <= hi) on the embedded cores and
 * DMAs out only the matching rows — the strongest form of the paper's
 * "deliver only the objects that are useful" bandwidth argument.
 */

#include <cstdio>
#include <vector>

#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "host/host_exec.hh"
#include "host/host_system.hh"
#include "serde/columnar.hh"
#include "sim/rng.hh"

using namespace morpheus;

namespace {

/** @p n pairs with strictly increasing keys (random gaps, like a
 *  sorted SSTable) and random values. */
serde::ColumnarTableObject
genKvTable(std::uint64_t seed, std::uint64_t n)
{
    sim::Rng rng(seed);
    serde::ColumnarTableObject t;
    t.schema = {{"key", serde::ColumnType::kInt64},
                {"value", serde::ColumnType::kInt64}};
    t.cells.assign(2, {});
    std::int64_t key = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        key += 1 + static_cast<std::int64_t>(rng.nextBelow(40));
        t.cells[0].push_back(static_cast<std::uint64_t>(key));
        t.cells[1].push_back(
            static_cast<std::uint64_t>(rng.nextInRange(-999999, 999999)));
    }
    return t;
}

}  // namespace

int
main()
{
    host::HostSystem sys;
    core::MorpheusDeviceRuntime device(sys.ssd());
    core::NvmeP2p p2p(sys);
    core::MorpheusRuntime runtime(sys, device, p2p);
    const core::StandardImages images = core::StandardImages::make();

    // A 400k-pair sorted table on flash.
    const serde::ColumnarTableObject table = genKvTable(99, 400000);
    const std::vector<std::uint8_t> flash = table.toFlash();
    const host::FileExtent file = sys.createFile("kv.cmf", flash);
    std::printf("table: %llu pairs, %.2f MB of CMF1 on flash\n",
                static_cast<unsigned long long>(table.rows()),
                file.sizeBytes / 1e6);

    // Query: a key window over ~10% of the keys.
    const std::int64_t max_key =
        static_cast<std::int64_t>(table.cells[0].back());
    const std::int64_t lo = max_key / 2;
    const std::int64_t hi = lo + max_key / 10;
    serde::ScanSpec spec;
    spec.preds = {{0, serde::PredOp::kGe, static_cast<std::uint64_t>(lo)},
                  {0, serde::PredOp::kLe, static_cast<std::uint64_t>(hi)}};
    serde::ColumnarTableObject expected;
    expected.schema = table.schema;
    expected.cells.assign(2, {});
    for (std::uint64_t r = 0; r < table.rows(); ++r) {
        const auto key = static_cast<std::int64_t>(table.cells[0][r]);
        if (key >= lo && key <= hi) {
            expected.cells[0].push_back(table.cells[0][r]);
            expected.cells[1].push_back(table.cells[1][r]);
        }
    }
    std::printf("query: keys [%lld, %lld] -> %llu pairs (%.1f%% of "
                "table)\n",
                static_cast<long long>(lo), static_cast<long long>(hi),
                static_cast<unsigned long long>(expected.rows()),
                100.0 * static_cast<double>(expected.rows()) /
                    static_cast<double>(table.rows()));

    // --- Conventional: the whole table crosses PCIe and the host scans
    // it (the same shared kernel), charged by the host-execution model.
    const serde::ScanResult host_res =
        serde::scanTable(flash.data(), flash.size(), spec);
    const auto pcie_before = sys.fabric().fabricBytes();
    host::HostExecEngine host_exec(sys);
    host::HostExecRequest req;
    req.backend = &sys.ssdBackend();
    req.chunkBytes = host::HostExecEngine::kChunkBytes;
    req.extent = file;
    req.objectBytes = host_res.out.size();
    req.cost = host_res.cost;
    const sim::Tick conv_done = host_exec.execute(req, 0, file.readyAt);
    const auto conv_pcie = sys.fabric().fabricBytes() - pcie_before;
    std::printf("conventional: %.2f ms, %.2f MB over PCIe\n",
                sim::ticksToSeconds(conv_done - file.readyAt) * 1e3,
                conv_pcie / 1e6);

    // --- Morpheus: the device filters; only matches cross PCIe.
    const auto pcie_mid = sys.fabric().fabricBytes();
    core::InvokeOptions opts;
    opts.pushdown = spec.encode();
    const core::DmaTarget target =
        runtime.hostTarget(host_res.out.size() + 64);
    const core::MsStream stream =
        runtime.streamCreate(file, conv_done, opts.hostCore);
    const core::InvokeResult res = runtime.invoke(
        images.columnarScan, stream, target, conv_done, opts);
    const auto morph_pcie = sys.fabric().fabricBytes() - pcie_mid;
    std::printf("morpheus:     %.2f ms, %.2f MB over PCIe "
                "(%u pairs emitted on-device)\n",
                sim::ticksToSeconds(res.elapsed()) * 1e3,
                morph_pcie / 1e6, res.returnValue);

    // --- Validate: the DMA buffer holds the host scan's bytes, and
    // they decode to exactly the pairs in the key window.
    const auto got = sys.mem().store().readVec(
        target.addr, static_cast<std::size_t>(res.objectBytes));
    serde::ColumnarTableObject view;
    if (!host_res.ok || got != host_res.out ||
        !serde::columnarFromScanBytes(got, &view) ||
        view.cells != expected.cells) {
        std::fprintf(stderr, "filter result mismatch!\n");
        return 1;
    }
    std::printf("validated: device result == host filter "
                "(PCIe traffic %.1fx lower)\n",
                static_cast<double>(conv_pcie) /
                    static_cast<double>(morph_pcie));
    return 0;
}

/**
 * @file
 * §II microbenchmarks, two parts:
 *
 *  1. A real (native, google-benchmark) measurement of the serde
 *     integer parser, demonstrating it does the actual byte work the
 *     timing models account for: per token (nextInt64) and a 64-byte
 *     window at a time (nextInt64s).
 *  2. The modeled §II profile on the simulated host: the share of
 *     deserialization time spent in string-to-integer conversion
 *     proper versus file-system/syscall overhead (paper: ~15% vs
 *     ~85%), and the speedup from bypassing those overheads (paper:
 *     ~2x with the remaining code at IPC ~1.2).
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "host/cpu_model.hh"
#include "host/os_model.hh"
#include "serde/scanner.hh"
#include "serde/writer.hh"
#include "workloads/generators.hh"

using namespace morpheus;

namespace {

std::vector<std::uint8_t>
intText(std::size_t n)
{
    const auto a = workloads::genIntArray(1234, static_cast<std::uint32_t>(n));
    serde::TextWriter w;
    a.serialize(w);
    return w.take();
}

void
BM_ParseIntegers(benchmark::State &state)
{
    const auto text = intText(static_cast<std::size_t>(state.range(0)));
    std::int64_t sink = 0;
    for (auto _ : state) {
        serde::TextScanner s(text.data(), text.size());
        std::int64_t v = 0;
        while (s.nextInt64(&v))
            sink += v;
        benchmark::DoNotOptimize(sink);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(text.size()));
}

/** The same text through the windowed run kernel, 512 values a call. */
void
BM_ParseIntegersRun(benchmark::State &state)
{
    const auto text = intText(static_cast<std::size_t>(state.range(0)));
    std::int64_t batch[512];
    std::int64_t sink = 0;
    for (auto _ : state) {
        serde::TextScanner s(text.data(), text.size());
        std::size_t n = 0;
        while ((n = s.nextInt64s(batch, 512)) > 0) {
            for (std::size_t i = 0; i < n; ++i)
                sink += batch[i];
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(text.size()));
}

void
BM_ParseDoubles(benchmark::State &state)
{
    const auto m = workloads::genCooMatrix(
        77, 1000, 1000, static_cast<std::uint32_t>(state.range(0)),
        1.0);
    serde::TextWriter w;
    m.serialize(w);
    const auto text = w.take();
    double sink = 0;
    for (auto _ : state) {
        serde::TextScanner s(text.data(), text.size());
        double v = 0;
        while (s.nextDouble(&v))
            sink += v;
        benchmark::DoNotOptimize(sink);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(text.size()));
}

BENCHMARK(BM_ParseIntegers)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ParseIntegersRun)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ParseDoubles)->Arg(10000)->Arg(100000);

void
printModeledProfile()
{
    std::printf("\n== Section II profile (modeled host, 2.5 GHz) ==\n");
    host::HostCpu cpu(host::CpuConfig{});
    host::OsModel os(host::OsConfig{}, cpu);

    // One 64 KiB read()'s worth of "123456 " tokens.
    serde::ParseCost cost;
    cost.bytes = 65536;
    cost.intValues = 65536 / 7;
    const double convert = cpu.convertCycles(cost);
    const double overhead =
        os.config().syscallCycles +
        os.config().fsCyclesPerByte * static_cast<double>(cost.bytes) +
        2.0 * os.config().contextSwitchCycles;
    const double total = convert + overhead;
    std::printf("string-to-int conversion: %5.1f%% of deserialization "
                "time (paper: ~15%%)\n",
                100.0 * convert / total);
    std::printf("FS/syscall/locking:       %5.1f%% (paper: ~85%%)\n",
                100.0 * overhead / total);
    // The paper's text reads "speeds up file parsing by 2.?" (OCR
    // truncated); that is inconsistent with its own 15%/85% split,
    // which implies ~6.7x. We follow the split.
    std::printf("bypassing the overheads speeds parsing by %.2fx "
                "(implied by the paper's 15%%/85%% split: ~6.7x)\n",
                total / convert);
}

}  // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printModeledProfile();
    return 0;
}

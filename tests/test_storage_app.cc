/**
 * @file
 * MsChunkContext + standard StorageApp tests: the device library and
 * the per-chunk state machines, exercised without the full SSD (chunks
 * fed directly), including the chunk-size invariance property.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "core/standard_apps.hh"
#include "workloads/generators.hh"
#include "sim/rng.hh"
#include "workloads/objects.hh"

namespace co = morpheus::core;
namespace sd = morpheus::serde;
namespace wk = morpheus::workloads;

namespace {

/** Feed a text buffer to an app in fixed-size chunks; return output. */
std::vector<std::uint8_t>
runApp(co::StorageApp &app, const std::vector<std::uint8_t> &text,
       std::size_t chunk_size, std::uint32_t flush_threshold = 16384)
{
    co::MsChunkContext ctx(256 * 1024, flush_threshold, 0);
    std::vector<std::uint8_t> out;
    auto drain = [&] {
        for (auto &seg : ctx.takeFlushes())
            out.insert(out.end(), seg.begin(), seg.end());
    };
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t take =
            std::min(chunk_size, text.size() - pos);
        ctx.feedChunk(std::vector<std::uint8_t>(
            text.begin() + pos, text.begin() + pos + take));
        pos += take;
        app.processChunk(ctx);
        drain();
    }
    ctx.signalEndOfStream();
    app.processChunk(ctx);
    app.finish(ctx);
    ctx.flushResidual();
    drain();
    return out;
}

}  // namespace

TEST(MsChunkContext, EmitStagesAndFlushesAtThreshold)
{
    co::MsChunkContext ctx(1024, 16, 0);
    const std::uint8_t block[10] = {};
    ctx.msEmit(block, 10);
    EXPECT_TRUE(ctx.takeFlushes().empty());  // below threshold
    ctx.msEmit(block, 10);                   // crosses 16
    const auto flushes = ctx.takeFlushes();
    ASSERT_EQ(flushes.size(), 1u);
    EXPECT_EQ(flushes[0].size(), 16u);
    ctx.flushResidual();
    const auto rest = ctx.takeFlushes();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].size(), 4u);
    EXPECT_EQ(ctx.bytesEmitted(), 20u);
}

TEST(MsChunkContext, CostDeltaResetsBetweenChunks)
{
    co::MsChunkContext ctx(1024, 512, 0);
    ctx.feedChunk({'4', '2', ' ', '7', ' '});
    std::int64_t v = 0;
    EXPECT_TRUE(ctx.msScanfInt(&v));
    EXPECT_TRUE(ctx.msScanfInt(&v));
    EXPECT_FALSE(ctx.msScanfInt(&v));
    const auto d1 = ctx.takeCostDelta();
    EXPECT_EQ(d1.intValues, 2u);
    const auto d2 = ctx.takeCostDelta();
    EXPECT_EQ(d2.intValues, 0u);
}

TEST(MsChunkContext, RawReadsForWritePath)
{
    co::MsChunkContext ctx(1024, 512, 0);
    std::vector<std::uint8_t> chunk(16);
    const std::int64_t a = 0x1122334455667788;
    const std::int64_t b = -42;
    std::memcpy(chunk.data(), &a, 8);
    std::memcpy(chunk.data() + 8, &b, 8);
    ctx.feedChunk(std::move(chunk));
    std::int64_t v = 0;
    ASSERT_TRUE(ctx.msReadValue(&v));
    EXPECT_EQ(v, a);
    ASSERT_TRUE(ctx.msReadValue(&v));
    EXPECT_EQ(v, b);
    EXPECT_FALSE(ctx.msReadValue(&v));
}

namespace {

/**
 * Reference staging: a growable buffer that is appended per emit and
 * cut from the front at every threshold crossing. MsChunkContext must
 * produce the same segments, byte for byte.
 */
struct RefStaging
{
    std::size_t threshold;
    std::vector<std::uint8_t> staging;
    std::vector<std::vector<std::uint8_t>> flushes;

    void
    emit(const std::uint8_t *p, std::size_t n)
    {
        staging.insert(staging.end(), p, p + n);
        while (staging.size() >= threshold) {
            flushes.emplace_back(staging.begin(),
                                 staging.begin() +
                                     static_cast<std::ptrdiff_t>(threshold));
            staging.erase(staging.begin(),
                          staging.begin() +
                              static_cast<std::ptrdiff_t>(threshold));
        }
    }

    void
    flushResidual()
    {
        if (!staging.empty())
            flushes.push_back(std::exchange(staging, {}));
    }
};

/** Distinct bytes per emit, so misplaced segments cannot compare equal. */
std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed * 31 + i);
    return v;
}

}  // namespace

TEST(MsChunkContext, EmitStraddlingThresholdCutsExactSegments)
{
    co::MsChunkContext ctx(256, 16, 0);
    const auto a = pattern(12, 1);
    const auto b = pattern(12, 2);
    ctx.msEmit(a.data(), a.size());
    EXPECT_EQ(ctx.dsramUse(), 12u);
    ctx.msEmit(b.data(), b.size());  // 24 staged: one segment, 8 left
    EXPECT_EQ(ctx.dsramUse(), 8u);
    const auto segs = ctx.takeFlushes();
    ASSERT_EQ(segs.size(), 1u);
    std::vector<std::uint8_t> want(a);
    want.insert(want.end(), b.begin(), b.begin() + 4);
    EXPECT_EQ(segs[0], want);
    ctx.flushResidual();
    const auto rest = ctx.takeFlushes();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], std::vector<std::uint8_t>(b.begin() + 4, b.end()));
    EXPECT_EQ(ctx.dsramUse(), 0u);
}

TEST(MsChunkContext, OneEmitSpanningSeveralThresholds)
{
    co::MsChunkContext ctx(256, 16, 0);
    const auto head = pattern(5, 3);
    const auto big = pattern(60, 4);
    ctx.msEmit(head.data(), head.size());
    ctx.msEmit(big.data(), big.size());  // 65 staged: 4 segments, 1 left
    EXPECT_EQ(ctx.dsramUse(), 1u);
    const auto segs = ctx.takeFlushes();
    ASSERT_EQ(segs.size(), 4u);
    std::vector<std::uint8_t> all(head);
    all.insert(all.end(), big.begin(), big.end());
    for (std::size_t i = 0; i < segs.size(); ++i) {
        EXPECT_EQ(segs[i],
                  std::vector<std::uint8_t>(all.begin() + 16 * i,
                                            all.begin() + 16 * (i + 1)));
    }
    EXPECT_EQ(ctx.bytesEmitted(), 65u);
}

TEST(MsChunkContext, AbortDropsStagingAndPendingSegments)
{
    co::MsChunkContext ctx(256, 16, 0);
    const auto a = pattern(20, 5);
    ctx.msEmit(a.data(), a.size());
    ASSERT_EQ(ctx.dsramUse(), 4u);
    ctx.abortCommand();
    EXPECT_EQ(ctx.dsramUse(), 0u);
    EXPECT_TRUE(ctx.takeFlushes().empty());
    // Staging restarts empty: the next segment holds only new bytes.
    const auto b = pattern(16, 6);
    ctx.msEmit(b.data(), b.size());
    const auto segs = ctx.takeFlushes();
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0], b);
    ctx.flushResidual();
    EXPECT_TRUE(ctx.takeFlushes().empty());  // nothing residual
}

TEST(MsChunkContext, RandomEmitsMatchReferenceStaging)
{
    // Random emit sizes (zero, below, across and several times the
    // threshold), interleaved drains, residual flushes and aborts.
    morpheus::sim::Rng rng(4242);
    for (const std::uint32_t threshold : {1u, 7u, 64u, 1000u}) {
        co::MsChunkContext ctx(4096, threshold, 0);
        RefStaging ref{threshold, {}, {}};
        std::vector<std::vector<std::uint8_t>> got;
        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t kind = rng.nextBelow(100);
            if (kind < 80) {
                const std::size_t n = kind < 8   ? 0
                                      : kind < 70 ? rng.nextBelow(16)
                                                  : rng.nextBelow(2500);
                const auto v = pattern(n, static_cast<std::uint8_t>(op));
                ctx.msEmit(v.data(), n);
                ref.emit(v.data(), n);
            } else if (kind < 90) {
                for (auto &seg : ctx.takeFlushes())
                    got.push_back(std::move(seg));
            } else if (kind < 97) {
                ctx.flushResidual();
                ref.flushResidual();
            } else {
                // Abort drops undrained segments on both sides.
                ctx.abortCommand();
                ref.flushes.resize(got.size());
                ref.staging.clear();
            }
            ASSERT_EQ(ctx.dsramUse(), ref.staging.size());
        }
        for (auto &seg : ctx.takeFlushes())
            got.push_back(std::move(seg));
        EXPECT_EQ(got, ref.flushes) << "threshold " << threshold;
    }
}

TEST(MsChunkContext, EmitOverrunningDsramCutsStagedBytesEarly)
{
    // Threshold == D-SRAM: 40 staged + 40 more would overrun the 64
    // bytes, so the staged 40 leave first as a short segment.
    co::MsChunkContext ctx(64, 64, 0);
    const auto a = pattern(40, 7);
    const auto b = pattern(40, 8);
    ctx.msEmit(a.data(), a.size());
    ctx.msEmit(b.data(), b.size());
    EXPECT_EQ(ctx.dsramUse(), 40u);
    auto segs = ctx.takeFlushes();
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0], a);
    // The next threshold cut counts from the early cut.
    ctx.msEmit(a.data(), 24);
    EXPECT_EQ(ctx.dsramUse(), 0u);
    segs = ctx.takeFlushes();
    ASSERT_EQ(segs.size(), 1u);
    std::vector<std::uint8_t> want(b);
    want.insert(want.end(), a.begin(), a.begin() + 24);
    EXPECT_EQ(segs[0], want);
    EXPECT_EQ(ctx.bytesEmitted(), 104u);
}

TEST(MsChunkContextDeath, EmitPastDsramPanics)
{
    co::MsChunkContext ctx(64, 64, 0);
    const auto a = pattern(65, 7);
    EXPECT_DEATH(ctx.msEmit(a.data(), a.size()), "exceeds D-SRAM");
}

TEST(StandardApps, EdgeListAppEmitsExactBinaryLayout)
{
    const auto g = wk::genEdgeList(21, 64, 512, false);
    sd::TextWriter w;
    g.serialize(w);
    co::EdgeListApp app(0);
    const auto out = runApp(app, w.bytes(), 1000);
    EXPECT_EQ(out, g.toBinary());
    EXPECT_EQ(app.returnValue(), g.numEdges());
}

TEST(StandardApps, WeightedEdgeListApp)
{
    const auto g = wk::genEdgeList(22, 64, 512, true);
    sd::TextWriter w;
    g.serialize(w);
    co::EdgeListApp app(1);  // arg bit0 = weighted
    const auto out = runApp(app, w.bytes(), 777);
    EXPECT_EQ(out, g.toBinary());
}

TEST(StandardApps, MatrixApp)
{
    const auto m = wk::genMatrix(23, 24, 0.3);
    sd::TextWriter w;
    m.serialize(w);
    co::MatrixApp app(0);
    const auto out = runApp(app, w.bytes(), 333);
    // Compare against a host parse of the same text (float rounding is
    // identical because both run the same parse code).
    sd::TextScanner s(w.bytes().data(), w.bytes().size());
    sd::MatrixObject host;
    ASSERT_TRUE(host.parse(s));
    EXPECT_EQ(out, host.toBinary());
}

TEST(StandardApps, IntArrayApp)
{
    const auto a = wk::genIntArray(24, 3000);
    sd::TextWriter w;
    a.serialize(w);
    co::IntArrayApp app(0);
    EXPECT_EQ(runApp(app, w.bytes(), 512), a.toBinary());
}

namespace {

/** Reference: IntArrayApp with one msScanfInt() and msEmit() per value. */
class PerValueIntArrayApp : public co::StorageApp
{
  public:
    void
    processChunk(co::MsChunkContext &ctx) override
    {
        std::int64_t v = 0;
        for (;;) {
            if (!_haveCount) {
                if (!ctx.msScanfInt(&v))
                    return;
                _count = static_cast<std::uint32_t>(v);
                ctx.msEmitValue<std::uint32_t>(_count);
                _haveCount = true;
                continue;
            }
            if (_valuesDone >= _count)
                return;
            if (!ctx.msScanfInt(&v))
                return;
            ctx.msEmitValue<std::int64_t>(v);
            ++_valuesDone;
        }
    }

    std::uint32_t returnValue() const override { return _valuesDone; }

  private:
    bool _haveCount = false;
    std::uint32_t _count = 0;
    std::uint32_t _valuesDone = 0;
};

/** Everything the engine sees of one run, chunk by chunk. */
struct AppTrace
{
    std::vector<sd::ParseCost> costs;
    std::vector<std::uint32_t> dsramUse;
    std::vector<std::vector<std::vector<std::uint8_t>>> flushes;
    std::uint32_t returnValue = 0;
};

AppTrace
traceApp(co::StorageApp &app, const std::vector<std::uint8_t> &text,
         const std::vector<std::size_t> &cuts, std::uint32_t dsram,
         std::uint32_t threshold)
{
    co::MsChunkContext ctx(dsram, threshold, 0);
    AppTrace t;
    auto step = [&] {
        app.processChunk(ctx);
        t.costs.push_back(ctx.takeCostDelta());
        t.dsramUse.push_back(ctx.dsramUse());
        t.flushes.push_back(ctx.takeFlushes());
    };
    for (std::size_t c = 1; c < cuts.size(); ++c) {
        ctx.feedChunk(std::vector<std::uint8_t>(
            text.begin() + static_cast<std::ptrdiff_t>(cuts[c - 1]),
            text.begin() + static_cast<std::ptrdiff_t>(cuts[c])));
        step();
    }
    ctx.signalEndOfStream();
    step();
    app.finish(ctx);
    ctx.flushResidual();
    t.flushes.push_back(ctx.takeFlushes());
    t.returnValue = app.returnValue();
    return t;
}

}  // namespace

TEST(StandardApps, IntArrayAppBatchesMatchPerValueStaging)
{
    // Per chunk: cost delta, flush segments and staged bytes, over
    // random chunkings, flush thresholds of 1 and 8 bytes, a quarter
    // D-SRAM and all of it (where emits cut staging early), a count
    // followed by trailing values and junk, a count the text falls
    // short of, and NUL padding to whole 512-byte blocks.
    morpheus::sim::Rng rng(1717);
    for (int round = 0; round < 48; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auto a = wk::genIntArray(
            static_cast<std::uint64_t>(round),
            static_cast<std::uint32_t>(rng.nextBelow(3000)));
        sd::TextWriter w;
        a.serialize(w);
        std::vector<std::uint8_t> text = w.take();
        switch (round % 4) {
          case 1: {  // trailing values and junk after the count
            const std::string tail = " 12 -7 3x 4.5 99\n";
            text.insert(text.end(), tail.begin(), tail.end());
            break;
          }
          case 2:  // truncated: the count promises more
            text.erase(text.end() - static_cast<std::ptrdiff_t>(
                                        text.size() / 3),
                       text.end());
            break;
          case 3:  // block padding
            text.insert(text.end(), (512 - text.size() % 512) % 512, 0);
            break;
          default:
            break;
        }
        std::vector<std::size_t> cuts{0};
        while (cuts.back() < text.size())
            cuts.push_back(std::min<std::size_t>(
                text.size(), cuts.back() + rng.nextBelow(3000) + 1));
        const std::uint32_t dsram = round % 2 ? 4096 : 1000;
        for (const std::uint32_t threshold : {1u, 8u, dsram / 4, dsram}) {
            SCOPED_TRACE("threshold " + std::to_string(threshold));
            co::IntArrayApp app(0);
            PerValueIntArrayApp ref;
            const AppTrace got = traceApp(app, text, cuts, dsram, threshold);
            const AppTrace want = traceApp(ref, text, cuts, dsram, threshold);
            ASSERT_EQ(got.costs.size(), want.costs.size());
            for (std::size_t i = 0; i < got.costs.size(); ++i) {
                EXPECT_EQ(got.costs[i].bytes, want.costs[i].bytes) << i;
                EXPECT_EQ(got.costs[i].intValues, want.costs[i].intValues)
                    << i;
            }
            EXPECT_EQ(got.dsramUse, want.dsramUse);
            EXPECT_EQ(got.flushes, want.flushes);
            EXPECT_EQ(got.returnValue, want.returnValue);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(StandardApps, PointSetApp)
{
    const auto p = wk::genPointSet(25, 200, 6, 0.4);
    sd::TextWriter w;
    p.serialize(w);
    co::PointSetApp app(0);
    sd::TextScanner s(w.bytes().data(), w.bytes().size());
    sd::PointSetObject host;
    ASSERT_TRUE(host.parse(s));
    EXPECT_EQ(runApp(app, w.bytes(), 450), host.toBinary());
}

TEST(StandardApps, CooMatrixApp)
{
    const auto c = wk::genCooMatrix(26, 50, 50, 600, 0.33);
    sd::TextWriter w;
    c.serialize(w);
    co::CooMatrixApp app(0);
    sd::TextScanner s(w.bytes().data(), w.bytes().size());
    sd::CooMatrixObject host;
    ASSERT_TRUE(host.parse(s));
    EXPECT_EQ(runApp(app, w.bytes(), 701), host.toBinary());
}

/** Property: app output is invariant under MREAD chunk size. */
class AppChunkProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(AppChunkProperty, EdgeListOutputInvariant)
{
    const auto g = wk::genEdgeList(27, 32, 200, false);
    sd::TextWriter w;
    g.serialize(w);
    co::EdgeListApp app(0);
    EXPECT_EQ(runApp(app, w.bytes(), GetParam()), g.toBinary());
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, AppChunkProperty,
                         ::testing::Values(1, 3, 17, 100, 512, 4096,
                                           1 << 20));

TEST(StandardApps, Int64SerializerRoundTrips)
{
    // binary -> device text -> host parse == original values.
    const auto a = wk::genIntArray(28, 500);
    std::vector<std::uint8_t> bin;
    for (const auto v : a.values) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        bin.insert(bin.end(), p, p + 8);
    }
    co::Int64TextSerializerApp app(0);
    co::MsChunkContext ctx(256 * 1024, 64 * 1024, 0);
    ctx.feedChunk(bin);
    ASSERT_TRUE(app.processWriteChunk(ctx));
    ctx.flushResidual();
    std::vector<std::uint8_t> text;
    for (auto &seg : ctx.takeFlushes())
        text.insert(text.end(), seg.begin(), seg.end());

    sd::TextScanner s(text.data(), text.size());
    std::vector<std::int64_t> back;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        back.push_back(v);
    EXPECT_EQ(back, a.values);
}

TEST(Compiler, ImageSizesAreDeterministicAndBounded)
{
    const auto img1 = co::MorpheusCompiler::compile(
        "foo", [](std::uint32_t) {
            return std::make_unique<co::IntArrayApp>(0);
        });
    const auto img2 = co::MorpheusCompiler::compile(
        "foo", [](std::uint32_t) {
            return std::make_unique<co::IntArrayApp>(0);
        });
    EXPECT_EQ(img1.textBytes, img2.textBytes);
    EXPECT_GE(img1.textBytes, 8u * 1024);
    EXPECT_LT(img1.textBytes, 24u * 1024);
    const auto img3 = co::MorpheusCompiler::compile(
        "bar",
        [](std::uint32_t) {
            return std::make_unique<co::IntArrayApp>(0);
        },
        12345);
    EXPECT_EQ(img3.textBytes, 12345u);
}

TEST(StandardApps, EndianSwapConvertsBigEndianBinaryInput)
{
    // Paper §III: the model also applies to binary input formats.
    morpheus::sim::Rng rng(31337);
    std::vector<std::uint32_t> words(5000);
    for (auto &w : words)
        w = static_cast<std::uint32_t>(rng.next());

    // Build the big-endian input file: count then words.
    std::vector<std::uint8_t> input;
    auto put_be = [&input](std::uint32_t v) {
        input.push_back(static_cast<std::uint8_t>(v >> 24));
        input.push_back(static_cast<std::uint8_t>(v >> 16));
        input.push_back(static_cast<std::uint8_t>(v >> 8));
        input.push_back(static_cast<std::uint8_t>(v));
    };
    put_be(static_cast<std::uint32_t>(words.size()));
    for (const auto w : words)
        put_be(w);

    co::EndianSwapApp app(0);
    co::MsChunkContext ctx(256 * 1024, 16 * 1024, 0);
    std::vector<std::uint8_t> out;
    std::size_t pos = 0;
    while (pos < input.size()) {
        // 4-byte-aligned chunks (the runtime keeps binary streams
        // word aligned).
        const std::size_t take =
            std::min<std::size_t>(4096, input.size() - pos);
        ctx.feedChunk(std::vector<std::uint8_t>(
            input.begin() + pos, input.begin() + pos + take));
        pos += take;
        app.processChunk(ctx);
        for (auto &seg : ctx.takeFlushes())
            out.insert(out.end(), seg.begin(), seg.end());
    }
    ctx.flushResidual();
    for (auto &seg : ctx.takeFlushes())
        out.insert(out.end(), seg.begin(), seg.end());

    ASSERT_EQ(out.size(), 4u * (words.size() + 1));
    std::uint32_t count;
    std::memcpy(&count, out.data(), 4);
    EXPECT_EQ(count, words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
        std::uint32_t v;
        std::memcpy(&v, out.data() + 4 * (i + 1), 4);
        ASSERT_EQ(v, words[i]) << i;
    }
    EXPECT_EQ(app.returnValue(), words.size());
}

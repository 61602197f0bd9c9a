/**
 * @file
 * Object-format tests: text round trips, binary codecs, and the
 * text/binary equivalence invariants the Morpheus path relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "serde/formats.hh"
#include "workloads/generators.hh"

namespace sd = morpheus::serde;
namespace wk = morpheus::workloads;

namespace {

template <typename T, typename Parse>
T
roundTripText(const T &obj, Parse parse)
{
    sd::TextWriter w;
    obj.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    T out;
    EXPECT_TRUE(parse(out, s));
    return out;
}

}  // namespace

TEST(Formats, EdgeListTextRoundTrip)
{
    const auto g = wk::genEdgeList(1, 100, 500, false);
    const auto back = roundTripText(
        g, [](sd::EdgeListObject &o, sd::TextScanner &s) {
            return o.parse(s, false);
        });
    EXPECT_EQ(g, back);
}

TEST(Formats, WeightedEdgeListTextRoundTrip)
{
    const auto g = wk::genEdgeList(2, 50, 300, true);
    const auto back = roundTripText(
        g, [](sd::EdgeListObject &o, sd::TextScanner &s) {
            return o.parse(s, true);
        });
    EXPECT_EQ(g, back);
}

TEST(Formats, IntArrayTextRoundTrip)
{
    const auto a = wk::genIntArray(3, 1000);
    const auto back = roundTripText(
        a, [](sd::IntArrayObject &o, sd::TextScanner &s) {
            return o.parse(s);
        });
    EXPECT_EQ(a, back);
}

TEST(Formats, TruncatedIntArrayKeepsTheParsedPrefix)
{
    // A text shorter than its count fails, leaving every value parsed
    // before the end, the last one cut short where the cut is inside
    // it, through the batched scan on both scanners.
    const auto a = wk::genIntArray(5, 6000);
    sd::TextWriter w;
    a.serialize(w);
    const auto full = w.take();
    for (const std::size_t keep :
         {std::size_t(3), std::size_t(700), full.size() / 2 + 1,
          full.size() - 9}) {
        SCOPED_TRACE("keep " + std::to_string(keep));
        const std::vector<std::uint8_t> text(full.begin(),
                                             full.begin() + keep);
        std::vector<std::int64_t> want;
        {
            sd::TextScanner s(text.data(), text.size());
            std::int64_t v = 0;
            ASSERT_TRUE(s.nextInt64(&v));  // the count
            while (s.nextInt64(&v))
                want.push_back(v);
        }
        ASSERT_LT(want.size(), a.values.size());

        sd::IntArrayObject got;
        sd::TextScanner s(text.data(), text.size());
        EXPECT_FALSE(got.parse(s));
        EXPECT_EQ(got.values, want);

        std::size_t pos = 0;
        sd::StreamingScanner stream(
            [&](std::uint8_t *dst, std::size_t cap) {
                const std::size_t take = std::min(cap, text.size() - pos);
                std::copy(text.begin() + static_cast<std::ptrdiff_t>(pos),
                          text.begin() +
                              static_cast<std::ptrdiff_t>(pos + take),
                          dst);
                pos += take;
                return take;
            },
            1000);
        sd::IntArrayObject streamed;
        EXPECT_FALSE(streamed.parse(stream));
        EXPECT_EQ(streamed.values, want);
    }
}

TEST(Formats, MatrixTextRoundTripIntegerValues)
{
    // Integer-valued matrices round-trip exactly.
    const auto m = wk::genMatrix(4, 20, 0.0);
    const auto back =
        roundTripText(m, [](sd::MatrixObject &o, sd::TextScanner &s) {
            return o.parse(s);
        });
    EXPECT_EQ(m.rows, back.rows);
    EXPECT_EQ(m.cols, back.cols);
    for (std::size_t i = 0; i < m.values.size(); ++i)
        EXPECT_DOUBLE_EQ(m.values[i], back.values[i]);
}

TEST(Formats, CooTextRoundTripWithFloats)
{
    const auto m = wk::genCooMatrix(5, 100, 100, 500, 0.5);
    sd::TextWriter w;
    m.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    sd::CooMatrixObject back;
    ASSERT_TRUE(back.parse(s));
    ASSERT_EQ(back.nnz(), m.nnz());
    EXPECT_EQ(back.rowIdx, m.rowIdx);
    EXPECT_EQ(back.colIdx, m.colIdx);
    for (std::size_t i = 0; i < m.nnz(); ++i)
        EXPECT_NEAR(back.values[i], m.values[i], 1e-9);
}

TEST(Formats, PointSetTextRoundTripCounts)
{
    const auto p = wk::genPointSet(6, 200, 5, 0.3);
    sd::TextWriter w;
    p.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    sd::PointSetObject back;
    ASSERT_TRUE(back.parse(s));
    EXPECT_EQ(back.numPoints(), p.numPoints());
    EXPECT_EQ(back.dims, p.dims);
}

TEST(Formats, BinaryCodecsRoundTripExactly)
{
    const auto g = wk::genEdgeList(7, 64, 256, true);
    EXPECT_EQ(sd::EdgeListObject::fromBinary(g.toBinary(), true), g);

    const auto m = wk::genMatrix(8, 16, 0.4);
    EXPECT_EQ(sd::MatrixObject::fromBinary(m.toBinary()), m);

    const auto a = wk::genIntArray(9, 128);
    EXPECT_EQ(sd::IntArrayObject::fromBinary(a.toBinary()), a);

    const auto p = wk::genPointSet(10, 64, 3, 0.7);
    EXPECT_EQ(sd::PointSetObject::fromBinary(p.toBinary()), p);

    const auto c = wk::genCooMatrix(11, 32, 32, 99, 0.5);
    EXPECT_EQ(sd::CooMatrixObject::fromBinary(c.toBinary()), c);
}

TEST(Formats, ObjectBytesMatchesBinarySize)
{
    const auto g = wk::genEdgeList(12, 64, 256, false);
    EXPECT_EQ(g.objectBytes(), g.toBinary().size());
    const auto gw = wk::genEdgeList(12, 64, 256, true);
    EXPECT_EQ(gw.objectBytes(), gw.toBinary().size());
    const auto m = wk::genMatrix(13, 10, 0.0);
    EXPECT_EQ(m.objectBytes(), m.toBinary().size());
    const auto a = wk::genIntArray(14, 77);
    EXPECT_EQ(a.objectBytes(), a.toBinary().size());
    const auto p = wk::genPointSet(15, 20, 4, 0.0);
    EXPECT_EQ(p.objectBytes(), p.toBinary().size());
    const auto c = wk::genCooMatrix(16, 10, 10, 30, 0.0);
    EXPECT_EQ(c.objectBytes(), c.toBinary().size());
}

TEST(Formats, TextIsBiggerThanBinaryForTypicalInputs)
{
    // The paper's PCIe-traffic argument: objects are denser than text
    // for typical numeric data.
    const auto a = wk::genIntArray(17, 5000);
    sd::TextWriter w;
    a.serialize(w);
    EXPECT_GT(w.size(), a.objectBytes() / 2);  // sanity floor
}

TEST(Formats, EmptyObjectsRoundTrip)
{
    sd::IntArrayObject empty;
    sd::TextWriter w;
    empty.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    sd::IntArrayObject back;
    ASSERT_TRUE(back.parse(s));
    EXPECT_EQ(back, empty);
    EXPECT_EQ(sd::IntArrayObject::fromBinary(empty.toBinary()), empty);
}

TEST(Formats, StreamingParseEqualsContiguousParse)
{
    // The invariant the MREAD chunking depends on.
    const auto g = wk::genEdgeList(18, 128, 1024, false);
    sd::TextWriter w;
    g.serialize(w);
    const auto text = w.take();

    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take =
                std::min<std::size_t>({cap, 37, text.size() - pos});
            std::copy(text.begin() + pos, text.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        64);
    sd::EdgeListObject back;
    ASSERT_TRUE(back.parse(s, false));
    EXPECT_EQ(back, g);
}

/**
 * @file
 * Scanner tests, including the chunk-boundary property that makes
 * StorageApps correct: a StreamingScanner fed arbitrary chunk sizes
 * must produce exactly the same token stream as one contiguous scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "serde/scanner.hh"
#include "sim/rng.hh"

namespace sd = morpheus::serde;

namespace {

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/** Collect all ints via TextScanner. */
std::vector<std::int64_t>
scanAll(const std::vector<std::uint8_t> &data)
{
    sd::TextScanner s(data.data(), data.size());
    std::vector<std::int64_t> out;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        out.push_back(v);
    return out;
}

}  // namespace

TEST(TextScanner, ReadsSequence)
{
    const auto data = bytes("1 2 3\n-4,5");
    EXPECT_EQ(scanAll(data),
              (std::vector<std::int64_t>{1, 2, 3, -4, 5}));
}

TEST(TextScanner, SkipsMalformedTokens)
{
    const auto data = bytes("1 abc 2 x9x 3");
    // "abc" skipped; "x9x" starts with non-digit so it is skipped too.
    EXPECT_EQ(scanAll(data), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(TextScanner, AtEndConsumesTrailingSeparators)
{
    const auto data = bytes("7   \n\n ");
    sd::TextScanner s(data.data(), data.size());
    std::int64_t v = 0;
    EXPECT_TRUE(s.nextInt64(&v));
    EXPECT_TRUE(s.atEnd());
}

TEST(TextScanner, MixedNumbers)
{
    const auto data = bytes("1 2.5 -3 4e1");
    sd::TextScanner s(data.data(), data.size());
    double v = 0.0;
    bool is_float = false;
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_FALSE(is_float);
    EXPECT_DOUBLE_EQ(v, 1.0);
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_TRUE(is_float);
    EXPECT_DOUBLE_EQ(v, 2.5);
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_FALSE(is_float);
    EXPECT_DOUBLE_EQ(v, -3.0);
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_TRUE(is_float);
    EXPECT_DOUBLE_EQ(v, 40.0);
    EXPECT_FALSE(s.nextNumber(&v, &is_float));
}

TEST(StreamingScanner, MatchesContiguousScan)
{
    const auto data = bytes("10 20 30 40 50 60 70 80 90 100");
    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take =
                std::min(cap, data.size() - pos);
            std::copy(data.begin() + pos, data.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        7);  // tiny chunks to force token splits
    std::vector<std::int64_t> out;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        out.push_back(v);
    EXPECT_EQ(out, scanAll(data));
}

/** Property: every chunk size yields the identical token stream. */
class ChunkSizeProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ChunkSizeProperty, TokenStreamInvariantUnderChunking)
{
    // Deterministic pseudo-random mix of separators and signed ints.
    morpheus::sim::Rng rng(99);
    std::string text;
    std::vector<std::int64_t> expected;
    for (int i = 0; i < 500; ++i) {
        const std::int64_t v = rng.nextInRange(-1000000, 1000000);
        expected.push_back(v);
        text += std::to_string(v);
        switch (rng.nextBelow(4)) {
          case 0: text += ' '; break;
          case 1: text += '\n'; break;
          case 2: text += ", "; break;
          default: text += "\t"; break;
        }
    }
    const auto data = bytes(text);

    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take =
                std::min({cap, GetParam(), data.size() - pos});
            std::copy(data.begin() + pos, data.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        GetParam());
    std::vector<std::int64_t> out;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        out.push_back(v);
    EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkSizeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 64, 511,
                                           4096));

TEST(StreamingScanner, IncrementalCarriesSplitTokens)
{
    // Feed "123" then "45 6": the first token is 12345, not 123.
    std::vector<std::vector<std::uint8_t>> chunks = {bytes("123"),
                                                     bytes("45 6")};
    std::size_t which = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) -> std::size_t {
            if (which >= chunks.size())
                return 0;
            const auto &c = chunks[which];
            EXPECT_LE(c.size(), cap);
            std::copy(c.begin(), c.end(), dst);
            ++which;
            return c.size();
        },
        16, /*incremental=*/true);

    std::int64_t v = 0;
    // First call: chunk "123" arrives; the token may continue, so no
    // token is reported yet...
    // (both chunks get pulled by the scanner's internal loop, so the
    // value is complete.)
    ASSERT_TRUE(s.nextInt64(&v));
    EXPECT_EQ(v, 12345);
    // "6" is the trailing token; the stream is still open so it is not
    // parseable yet.
    EXPECT_FALSE(s.nextInt64(&v));
    s.setEndOfStream();
    ASSERT_TRUE(s.nextInt64(&v));
    EXPECT_EQ(v, 6);
    EXPECT_TRUE(s.atEnd());
}

TEST(StreamingScanner, IncrementalResumesAfterDryRefill)
{
    std::vector<std::uint8_t> pending;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take = std::min(cap, pending.size());
            std::copy(pending.begin(), pending.begin() + take, dst);
            pending.erase(pending.begin(), pending.begin() + take);
            return take;
        },
        16, /*incremental=*/true);

    std::int64_t v = 0;
    EXPECT_FALSE(s.nextInt64(&v));  // nothing yet
    pending = bytes("42 ");
    ASSERT_TRUE(s.nextInt64(&v));   // resumes after data arrives
    EXPECT_EQ(v, 42);
}

TEST(StreamingScanner, CostMatchesContiguous)
{
    const auto data = bytes("11 22 33 44");
    sd::TextScanner ref(data.data(), data.size());
    std::int64_t v = 0;
    while (ref.nextInt64(&v)) {
    }
    ref.atEnd();

    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take = std::min(cap, data.size() - pos);
            std::copy(data.begin() + pos, data.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        3);
    while (s.nextInt64(&v)) {
    }
    EXPECT_EQ(s.cost().bytes, ref.cost().bytes);
    EXPECT_EQ(s.cost().intValues, ref.cost().intValues);
}

TEST(ScannerFuzz, RandomBytesNeverCrashAndCostIsBounded)
{
    // Arbitrary byte soup: the scanner must terminate, never read out
    // of bounds, and account every byte at most once.
    morpheus::sim::Rng rng(12345);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::uint8_t> junk(rng.nextBelow(2000) + 1);
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.nextBelow(256));
        sd::TextScanner s(junk.data(), junk.size());
        std::int64_t v = 0;
        std::size_t parsed = 0;
        while (s.nextInt64(&v))
            ++parsed;
        EXPECT_LE(s.cost().bytes, junk.size());
        EXPECT_LE(parsed, junk.size());
    }
}

TEST(ScannerFuzz, StreamingMatchesContiguousOnRandomBytes)
{
    morpheus::sim::Rng rng(777);
    for (int round = 0; round < 20; ++round) {
        std::vector<std::uint8_t> junk(rng.nextBelow(3000) + 10);
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.nextBelow(96) + 32);
        std::vector<std::int64_t> ref;
        {
            sd::TextScanner s(junk.data(), junk.size());
            std::int64_t v = 0;
            while (s.nextInt64(&v))
                ref.push_back(v);
        }
        std::size_t pos = 0;
        const std::size_t chunk = rng.nextBelow(64) + 1;
        sd::StreamingScanner s(
            [&](std::uint8_t *dst, std::size_t cap) {
                const std::size_t take =
                    std::min({cap, chunk, junk.size() - pos});
                std::copy(junk.begin() + pos,
                          junk.begin() + pos + take, dst);
                pos += take;
                return take;
            },
            128);
        std::vector<std::int64_t> got;
        std::int64_t v = 0;
        while (s.nextInt64(&v))
            got.push_back(v);
        EXPECT_EQ(got, ref) << "round " << round;
    }
}

namespace {

/** Everything a scan produced: tokens, kinds and operation counts. */
struct ScanLog
{
    std::vector<double> values;
    std::vector<bool> isFloat;
    sd::ParseCost cost;
};

void
expectSameScan(const ScanLog &got, const ScanLog &want)
{
    EXPECT_EQ(got.values, want.values);
    EXPECT_EQ(got.isFloat, want.isFloat);
    EXPECT_EQ(got.cost.bytes, want.cost.bytes);
    EXPECT_EQ(got.cost.intValues, want.cost.intValues);
    EXPECT_EQ(got.cost.floatValues, want.cost.floatValues);
    EXPECT_EQ(got.cost.floatOps, want.cost.floatOps);
}

/** Drain @p s with nextInt64 (or nextNumber when @p numbers). */
template <typename Scanner>
void
drain(Scanner &s, bool numbers, ScanLog &log)
{
    if (numbers) {
        double v = 0.0;
        bool f = false;
        while (s.nextNumber(&v, &f)) {
            log.values.push_back(v);
            log.isFloat.push_back(f);
        }
    } else {
        std::int64_t v = 0;
        while (s.nextInt64(&v))
            log.values.push_back(static_cast<double>(v));
    }
}

ScanLog
contiguousScan(const std::vector<std::uint8_t> &data, bool numbers)
{
    sd::TextScanner s(data.data(), data.size());
    ScanLog log;
    drain(s, numbers, log);
    EXPECT_TRUE(s.atEnd());
    log.cost = s.cost();
    return log;
}

/**
 * Deliver @p data as the incremental chunks [0, a), [a, b), [b, end),
 * draining the scanner after each one as a StorageApp does, then end
 * the stream.
 */
ScanLog
chunkedScan(const std::vector<std::uint8_t> &data, std::size_t a,
            std::size_t b, bool numbers)
{
    const std::size_t cuts[] = {0, a, b, data.size()};
    std::size_t chunk = 0;
    bool ready = false;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) -> std::size_t {
            if (!ready)
                return 0;
            ready = false;
            const std::size_t n = cuts[chunk + 1] - cuts[chunk];
            EXPECT_LE(n, cap);
            std::copy(data.begin() + cuts[chunk],
                      data.begin() + cuts[chunk + 1], dst);
            return n;
        },
        256, /*incremental=*/true);
    ScanLog log;
    for (chunk = 0; chunk < 3; ++chunk) {
        ready = true;
        drain(s, numbers, log);
    }
    s.setEndOfStream();
    drain(s, numbers, log);
    EXPECT_TRUE(s.atEnd());
    log.cost = s.cost();
    return log;
}

}  // namespace

TEST(StreamingScanner, EverySplitMatchesContiguousScan)
{
    // Signs, lone signs, malformed and half-numeric tokens, every
    // separator kind, runs of separators and NUL block padding. Every
    // pair of cut points puts chunk edges inside tokens, inside
    // separator runs and on both sides of each.
    const std::string text = std::string(" -12 +7\t- + 3x 4-5 abc,,\n") +
                             "9 -0 +x 00042\r\n12.5 -3e2 .7 1e x9 " +
                             std::string(3, '\0') + "-8 77" +
                             std::string(5, '\0');
    const auto data = bytes(text);
    for (const bool numbers : {false, true}) {
        const ScanLog want = contiguousScan(data, numbers);
        ASSERT_FALSE(want.values.empty());
        for (std::size_t a = 0; a <= data.size(); ++a) {
            for (std::size_t b = a; b <= data.size(); ++b) {
                SCOPED_TRACE("cuts " + std::to_string(a) + "," +
                             std::to_string(b) +
                             (numbers ? " nextNumber" : " nextInt64"));
                expectSameScan(chunkedScan(data, a, b, numbers), want);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

namespace {

/**
 * Integer text of about @p size bytes: tokens of 1-18 digits (mostly
 * short), optional signs, every separator kind in runs of varying
 * length, and, unless @p clean, bytes that stop a window from being
 * parsed as a run: '.', 'e', letters, lone and doubled signs, signs
 * right behind a digit, tokens run together and long junk words.
 */
std::vector<std::uint8_t>
intText(morpheus::sim::Rng &rng, std::size_t size, bool clean)
{
    static const char kSeps[] = {' ', '\t', '\n', '\r', ',', '\0'};
    static const char kJunk[] = {'.', 'e', 'x', 'Z', '-', '+', '7'};
    std::vector<std::uint8_t> out;
    while (out.size() < size) {
        std::size_t seps =
            rng.nextBelow(10) == 0 ? rng.nextBelow(90) : rng.nextBelow(3) + 1;
        if (!clean && rng.nextBelow(20) == 0)
            seps = 0;
        if (!clean && rng.nextBelow(40) == 0) {
            for (std::size_t i = rng.nextBelow(16); i > 0; --i)
                out.push_back(
                    static_cast<std::uint8_t>(kJunk[rng.nextBelow(7)]));
        }
        for (std::size_t i = 0; i < seps; ++i)
            out.push_back(static_cast<std::uint8_t>(kSeps[rng.nextBelow(6)]));
        if (!clean && rng.nextBelow(25) == 0)
            out.push_back(static_cast<std::uint8_t>(kJunk[rng.nextBelow(7)]));
        const std::uint64_t sign = rng.nextBelow(8);
        if (sign < 2)
            out.push_back(sign == 0 ? '-' : '+');
        const std::size_t digits = rng.nextBelow(4) == 0
                                       ? rng.nextBelow(18) + 1
                                       : rng.nextBelow(7) + 1;
        for (std::size_t i = 0; i < digits; ++i)
            out.push_back(static_cast<std::uint8_t>('0' + rng.nextBelow(10)));
        if (!clean && rng.nextBelow(25) == 0)
            out.push_back(static_cast<std::uint8_t>(kJunk[rng.nextBelow(7)]));
    }
    return out;
}

/** Up to @p max nextInt64() calls, stopping at the first false. */
template <typename Scanner>
std::size_t
nextInt64Loop(Scanner &s, std::int64_t *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max && s.nextInt64(out + n))
        ++n;
    return n;
}

/** A random cap: zero, one, a few, a window's worth or many. */
std::size_t
randomMax(morpheus::sim::Rng &rng)
{
    switch (rng.nextBelow(5)) {
      case 0: return rng.nextBelow(2);
      case 1: return rng.nextBelow(4) + 1;
      case 2: return rng.nextBelow(20) + 1;
      case 3: return rng.nextBelow(300) + 1;
      default: return 100000;
    }
}

/**
 * One nextInt64s() call on @p batched against the per-token loop on
 * @p ref. Every consumed byte is counted, so equal ParseCost::bytes is
 * an equal position. @return the number parsed.
 */
template <typename Scanner>
std::size_t
expectSameBatch(Scanner &batched, Scanner &ref, std::size_t max)
{
    std::vector<std::int64_t> got(max), want(max);
    const std::size_t n = batched.nextInt64s(got.data(), max);
    const std::size_t m = nextInt64Loop(ref, want.data(), max);
    EXPECT_EQ(n, m) << "max " << max;
    got.resize(n);
    want.resize(m);
    EXPECT_EQ(got, want);
    EXPECT_EQ(batched.cost().bytes, ref.cost().bytes);
    EXPECT_EQ(batched.cost().intValues, ref.cost().intValues);
    EXPECT_EQ(batched.cost().floatValues, ref.cost().floatValues);
    EXPECT_EQ(batched.cost().floatOps, ref.cost().floatOps);
    return n;
}

}  // namespace

TEST(ScannerFuzz, TextNextInt64sMatchesPerTokenLoop)
{
    morpheus::sim::Rng rng(1616);
    for (int round = 0; round < 400; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auto data =
            intText(rng, rng.nextBelow(3000), /*clean=*/round % 3 == 0);
        sd::TextScanner batched(data.data(), data.size());
        sd::TextScanner ref(data.data(), data.size());
        for (;;) {
            const std::size_t max = randomMax(rng);
            const std::size_t n = expectSameBatch(batched, ref, max);
            if (::testing::Test::HasFailure())
                return;
            if (n < max)
                break;
        }
        EXPECT_EQ(batched.cost().bytes, data.size());
    }
}

TEST(ScannerFuzz, StreamingNextInt64sMatchesPerTokenLoop)
{
    // Incremental mode, as a StorageApp runs it: random chunk splits,
    // each chunk drained until a call comes up short, then end of
    // stream. Random buffer sizes put refills inside and between
    // windows.
    morpheus::sim::Rng rng(6161);
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auto data =
            intText(rng, rng.nextBelow(6000), /*clean=*/round % 3 == 0);
        std::vector<std::size_t> cuts{0};
        while (cuts.back() < data.size())
            cuts.push_back(std::min<std::size_t>(
                data.size(), cuts.back() + rng.nextBelow(1500) + 1));
        const std::size_t buffer = rng.nextBelow(4) == 0
                                       ? rng.nextBelow(100) + 1
                                       : rng.nextBelow(4096) + 64;
        // Each scanner pulls through its own cursor, up to the
        // released limit.
        std::size_t limit = 0;
        std::size_t pos[2] = {0, 0};
        auto feed = [&](int which) {
            return [&, which](std::uint8_t *dst, std::size_t cap) {
                const std::size_t take = std::min(cap, limit - pos[which]);
                std::copy(data.begin() + pos[which],
                          data.begin() + pos[which] + take, dst);
                pos[which] += take;
                return take;
            };
        };
        sd::StreamingScanner batched(feed(0), buffer, true);
        sd::StreamingScanner ref(feed(1), buffer, true);
        auto drain = [&] {
            for (;;) {
                const std::size_t max = randomMax(rng);
                const std::size_t n = expectSameBatch(batched, ref, max);
                EXPECT_EQ(batched.refills(), ref.refills());
                if (n < max || ::testing::Test::HasFailure())
                    return;
            }
        };
        for (std::size_t c = 1; c < cuts.size(); ++c) {
            limit = cuts[c];
            drain();
            if (::testing::Test::HasFailure())
                return;
        }
        batched.setEndOfStream();
        ref.setEndOfStream();
        drain();
        EXPECT_TRUE(batched.atEnd());
        EXPECT_EQ(batched.cost().bytes, data.size());
    }
}

TEST(StreamingScanner, NextInt64sLeavesATokenRunningPastTheChunk)
{
    // "123" is a whole number to parseInt64 (the 'x' ends it), but the
    // chunk ends before any separator, so the scanner must wait for
    // the next chunk, as nextInt64 does. Every shift puts "123" at
    // each place of the first window, the end of it included.
    for (std::size_t shift = 57; shift < 70; ++shift) {
        SCOPED_TRACE("shift " + std::to_string(shift));
        const std::string first =
            "9" + std::string(shift, ' ') + "123" + std::string(12, 'x');
        const std::string chunks[] = {first, "xx 8 -7\n"};
        std::size_t released = 0;
        std::size_t at[2] = {0, 0};
        auto feed = [&](int which) {
            return [&, which](std::uint8_t *dst, std::size_t) {
                if (at[which] >= released)
                    return std::size_t(0);
                const std::string &c = chunks[at[which]++];
                std::copy(c.begin(), c.end(), dst);
                return c.size();
            };
        };
        sd::StreamingScanner batched(feed(0), 256, true);
        sd::StreamingScanner ref(feed(1), 256, true);
        released = 1;
        EXPECT_EQ(expectSameBatch(batched, ref, 100), 1u);  // 9
        released = 2;
        EXPECT_EQ(expectSameBatch(batched, ref, 100), 3u);  // 123 8 -7
        batched.setEndOfStream();
        ref.setEndOfStream();
        EXPECT_EQ(expectSameBatch(batched, ref, 100), 0u);
    }
}

/**
 * @file
 * FTL tests: mapping correctness, overwrite semantics, GC behaviour
 * under pressure, and the read-after-write property under random
 * workloads (parameterized).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ftl/ftl.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

namespace fl = morpheus::flash;
namespace ft = morpheus::ftl;
namespace ms = morpheus::sim;

namespace {

fl::FlashConfig
tinyFlash()
{
    fl::FlashConfig cfg;
    cfg.channels = 2;
    cfg.diesPerChannel = 1;
    cfg.planesPerDie = 1;
    cfg.blocksPerPlane = 16;
    cfg.pagesPerBlock = 8;
    cfg.pageBytes = 256;
    return cfg;
}

std::vector<std::uint8_t>
fill(std::uint8_t seed, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed ^ (i & 0xFF));
    return v;
}

struct FtlFixture
{
    fl::FlashArray flash;
    ft::Ftl ftl;

    explicit FtlFixture(const ft::FtlConfig &cfg = {})
        : flash(tinyFlash()), ftl(flash, cfg)
    {}
};

}  // namespace

TEST(Ftl, LogicalCapacityReflectsOverProvisioning)
{
    FtlFixture f;
    const auto phys = tinyFlash().pages();
    EXPECT_LT(f.ftl.logicalPages(), phys);
    EXPECT_GT(f.ftl.logicalPages(), phys / 2);
}

TEST(Ftl, UnmappedReadsAsZeros)
{
    FtlFixture f;
    EXPECT_FALSE(f.ftl.isMapped(3));
    const auto page = f.ftl.peekPage(3);
    EXPECT_EQ(page.size(), 256u);
    for (const auto b : page)
        EXPECT_EQ(b, 0);
}

TEST(Ftl, WriteThenReadBack)
{
    FtlFixture f;
    const auto data = fill(0xA5, 256);
    const ms::Tick written = f.ftl.writePages(5, data, 0);
    ASSERT_TRUE(f.ftl.isMapped(5));

    // The read waits for the program on the same die, then pays tR and
    // the channel transfer; the mapped page holds the written bytes.
    const auto cfg = tinyFlash();
    EXPECT_EQ(f.ftl.readPages(5, 1, 0),
              written + cfg.readLatency +
                  ms::transferTicks(cfg.pageBytes,
                                    cfg.channelBytesPerSec));
    EXPECT_EQ(f.ftl.peekPage(5), data);
}

TEST(Ftl, OverwriteReplacesData)
{
    FtlFixture f;
    f.ftl.writePages(2, fill(1, 256), 0);
    f.ftl.writePages(2, fill(2, 256), 0);
    EXPECT_EQ(f.ftl.peekPage(2), fill(2, 256));
}

TEST(Ftl, MultiPageWriteSpansPages)
{
    FtlFixture f;
    const auto data = fill(7, 256 * 3 + 100);  // 4 pages, padded
    f.ftl.writePages(10, data, 0);
    for (std::uint64_t lpn = 10; lpn < 14; ++lpn)
        EXPECT_TRUE(f.ftl.isMapped(lpn));
    // Concatenated read-back equals the data (plus zero padding).
    std::vector<std::uint8_t> all;
    for (std::uint64_t lpn = 10; lpn < 14; ++lpn) {
        const auto p = f.ftl.peekPage(lpn);
        all.insert(all.end(), p.begin(), p.end());
    }
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(all[i], data[i]);
    for (std::size_t i = data.size(); i < all.size(); ++i)
        EXPECT_EQ(all[i], 0);
}

TEST(Ftl, WritesStripeAcrossPlanes)
{
    FtlFixture f;
    // Two single-page writes should land on different planes
    // (different channels in this geometry), so their program phases
    // overlap.
    const ms::Tick d0 = f.ftl.writePages(0, fill(1, 256), 0);
    (void)d0;
    EXPECT_GT(f.flash.dieTimeline(0, 0).busyTicks() +
                  f.flash.dieTimeline(1, 0).busyTicks(),
              0u);
    f.ftl.writePages(1, fill(2, 256), 0);
    EXPECT_GT(f.flash.dieTimeline(0, 0).busyTicks(), 0u);
    EXPECT_GT(f.flash.dieTimeline(1, 0).busyTicks(), 0u);
}

TEST(Ftl, GarbageCollectionReclaimsSpace)
{
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 4;
    cfg.gcHighWatermark = 6;
    FtlFixture f(cfg);

    // Hammer a small logical range so most physical pages become
    // invalid and GC has cheap victims.
    ms::Tick t = 0;
    for (int round = 0; round < 40; ++round) {
        for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
            t = f.ftl.writePages(lpn, fill(
                static_cast<std::uint8_t>(round), 256), t);
    }
    EXPECT_GT(f.ftl.gcRuns(), 0u);
    EXPECT_GT(f.flash.erasesIssued().value(), 0u);
    // Data integrity survives GC.
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        EXPECT_EQ(f.ftl.peekPage(lpn), fill(39, 256));
    EXPECT_GE(f.ftl.freeBlocks(), cfg.gcLowWatermark);
}

/** Property: random writes + overwrites always read back correctly. */
class FtlRandomProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FtlRandomProperty, ReadAfterWriteUnderChurn)
{
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 3;
    cfg.gcHighWatermark = 5;
    FtlFixture f(cfg);
    ms::Rng rng(GetParam());

    std::map<std::uint64_t, std::uint8_t> shadow;
    const std::uint64_t logical_span = 24;
    ms::Tick t = 0;
    for (int op = 0; op < 300; ++op) {
        const std::uint64_t lpn = rng.nextBelow(logical_span);
        const auto tag = static_cast<std::uint8_t>(rng.nextBelow(256));
        t = f.ftl.writePages(lpn, fill(tag, 256), t);
        shadow[lpn] = tag;
        if (op % 7 == 0) {
            // Spot check a random previously written page.
            const auto it = shadow.begin();
            EXPECT_EQ(f.ftl.peekPage(it->first),
                      fill(it->second, 256));
        }
    }
    for (const auto &[lpn, tag] : shadow)
        EXPECT_EQ(f.ftl.peekPage(lpn), fill(tag, 256));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlRandomProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

TEST(Ftl, ParallelReadsAcrossDiesOverlap)
{
    FtlFixture f;
    ms::Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn)
        t = f.ftl.writePages(lpn, fill(9, 256), t);
    // A 4-page read touches pages striped over 2 channels; the total
    // time is below 4 sequential die reads.
    const ms::Tick start = t;
    const ms::Tick done = f.ftl.readPages(0, 4, start);
    const auto cfg = tinyFlash();
    EXPECT_LT(done - start, 4 * (cfg.readLatency +
                                 ms::transferTicks(
                                     cfg.pageBytes,
                                     cfg.channelBytesPerSec)));
}

TEST(Ftl, ReadOverMappedAndUnmappedPagesIsPinned)
{
    // LPNs 2..7 with 3, 4 and 6 mapped: unmapped pages complete at the
    // request tick and draw no fault; each mapped page draws once, in
    // LPN order. Ticks, the error flag and the counters are values
    // recorded from a known good build.
    FtlFixture f;
    ms::Tick t = 0;
    for (const std::uint64_t lpn : {3u, 4u, 6u})
        t = f.ftl.writePages(lpn, fill(static_cast<std::uint8_t>(lpn), 256),
                             t);
    ASSERT_EQ(t, 1801920000u);
    ms::FaultPlan plan;
    plan.mediaRate = 0.5;
    plan.seed = 3;
    ms::FaultInjector fi(plan);
    ms::ScopedFaultInjector scope(&fi);

    bool media = false;
    std::vector<ms::Tick> ticks;
    const ms::Tick done = f.ftl.readPages(2, 6, t, &media, &ticks);
    EXPECT_EQ(done, 1922560000u);
    EXPECT_EQ(ticks, (std::vector<ms::Tick>{1801920000, 1862560000,
                                            1862560000, 1801920000,
                                            1922560000, 1801920000}));
    EXPECT_TRUE(media);
    EXPECT_EQ(fi.mediaErrors(), 2u);
    ms::stats::StatSet set;
    f.ftl.registerStats(set, "ftl");
    EXPECT_EQ(set.counterValue("ftl.hostReads"), 6u);
    EXPECT_EQ(f.flash.readsIssued().value(), 3u);

    media = false;
    EXPECT_EQ(f.ftl.readPages(2, 6, done, &media, &ticks), 2043200000u);
    EXPECT_EQ(ticks, (std::vector<ms::Tick>{1922560000, 1983200000,
                                            1983200000, 1922560000,
                                            2043200000, 1922560000}));
    EXPECT_TRUE(media);
    EXPECT_EQ(fi.mediaErrors(), 4u);
    EXPECT_EQ(set.counterValue("ftl.hostReads"), 12u);
}

TEST(FtlDeath, ReadBeyondCapacityPanics)
{
    FtlFixture f;
    EXPECT_DEATH(f.ftl.readPages(f.ftl.logicalPages(), 1, 0),
                 "beyond logical capacity");
}

TEST(Ftl, WearLevellingKeepsEraseSpreadBounded)
{
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 4;
    cfg.gcHighWatermark = 6;
    FtlFixture f(cfg);
    ms::Tick t = 0;
    // Sustained overwrite churn: GC runs constantly; the least-erased
    // tie-break keeps wear from concentrating.
    for (int round = 0; round < 120; ++round) {
        for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
            t = f.ftl.writePages(
                lpn, fill(static_cast<std::uint8_t>(round + lpn), 256),
                t);
        }
    }
    EXPECT_GT(f.ftl.gcRuns(), 10u);
    // With ~wear-aware victim selection the spread stays small
    // relative to the total erase count.
    EXPECT_LE(f.ftl.maxEraseDelta(), 12u);
}

TEST(Ftl, BlocksOpenFreedLifoThenFreshAscendingPerPlane)
{
    // Equal watermarks make every GC run free exactly one block, so
    // each erase shows up on the write that caused it. Hammering four
    // LPNs leaves plenty of zero-valid victims: GC relocates nothing,
    // and every block open is a host write landing on page 0.
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 4;
    cfg.gcHighWatermark = 4;
    fl::FlashConfig fc = tinyFlash();
    fc.blocksPerPlane = 8;
    fc.pagesPerBlock = 4;
    fl::FlashArray flash(fc);
    ft::Ftl ftl(flash, cfg);
    const unsigned planes = fc.planes();  // one plane per channel

    // Reference pool: per plane, a stack of GC-freed blocks over a
    // cursor of never-opened blocks.
    std::vector<std::vector<unsigned>> freed(planes);
    std::vector<unsigned> fresh(planes, 0);
    std::vector<std::uint64_t> erases(planes * fc.blocksPerPlane, 0);
    unsigned lifo_pops = 0, freed_before_fresh = 0;
    for (unsigned w = 0; w < 400; ++w) {
        std::vector<std::uint8_t> data(fc.pageBytes, 0x5A);
        data[0] = static_cast<std::uint8_t>(w);
        data[1] = static_cast<std::uint8_t>(w >> 8);
        ftl.writePages(w % 4, data, 0);

        unsigned erased = 0;
        for (unsigned p = 0; p < planes; ++p) {
            for (unsigned b = 0; b < fc.blocksPerPlane; ++b) {
                const std::uint64_t n =
                    flash.eraseCount(fl::BlockPointer{p, 0, 0, b});
                if (n != erases[p * fc.blocksPerPlane + b]) {
                    erases[p * fc.blocksPerPlane + b] = n;
                    freed[p].push_back(b);
                    ++erased;
                }
            }
        }
        ASSERT_LE(erased, 1u) << "write " << w;

        bool found = false;
        for (unsigned p = 0; p < planes && !found; ++p) {
            for (unsigned b = 0; b < fc.blocksPerPlane && !found; ++b) {
                for (unsigned pg = 0; pg < fc.pagesPerBlock; ++pg) {
                    const fl::PagePointer at{p, 0, 0, b, pg};
                    if (!flash.isProgrammed(at) || flash.peek(at) != data)
                        continue;
                    found = true;
                    if (pg != 0)
                        break;
                    // This write opened block b of plane p.
                    unsigned want = 0;
                    if (!freed[p].empty()) {
                        lifo_pops += freed[p].size() >= 2;
                        freed_before_fresh +=
                            fresh[p] < fc.blocksPerPlane;
                        want = freed[p].back();
                        freed[p].pop_back();
                    } else {
                        want = fresh[p]++;
                    }
                    ASSERT_EQ(b, want) << "write " << w << " plane " << p;
                    break;
                }
            }
        }
        ASSERT_TRUE(found) << "write " << w;

        std::size_t pool = 0;
        for (unsigned p = 0; p < planes; ++p)
            pool += freed[p].size() + (fc.blocksPerPlane - fresh[p]);
        ASSERT_EQ(ftl.freeBlocks(), pool) << "write " << w;
    }
    EXPECT_GT(ftl.gcRuns(), 10u);
    // Both ordering rules were exercised: a freed block beat a fresh
    // one, and the most recent of several freed blocks opened first.
    EXPECT_GT(freed_before_fresh, 0u);
    EXPECT_GT(lifo_pops, 0u);
}

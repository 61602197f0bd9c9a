/**
 * @file
 * NAND flash array tests: functional storage, NAND rules, timing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "flash/flash_array.hh"

namespace fl = morpheus::flash;
namespace ms = morpheus::sim;

namespace {

fl::FlashConfig
smallConfig()
{
    fl::FlashConfig cfg;
    cfg.channels = 2;
    cfg.diesPerChannel = 2;
    cfg.planesPerDie = 1;
    cfg.blocksPerPlane = 8;
    cfg.pagesPerBlock = 4;
    cfg.pageBytes = 512;
    return cfg;
}

std::vector<std::uint8_t>
pattern(std::uint8_t seed, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
}

}  // namespace

TEST(FlashConfig, GeometryArithmetic)
{
    const auto cfg = smallConfig();
    EXPECT_EQ(cfg.dies(), 4u);
    EXPECT_EQ(cfg.planes(), 4u);
    EXPECT_EQ(cfg.blocks(), 32u);
    EXPECT_EQ(cfg.pages(), 128u);
    EXPECT_EQ(cfg.capacityBytes(), 128u * 512u);
}

TEST(FlashArray, ProgramThenReadReturnsData)
{
    const auto cfg = smallConfig();
    fl::FlashArray flash(cfg);
    const fl::PagePointer p{0, 0, 0, 0, 0};
    const ms::Tick programmed = flash.program(p, pattern(7, 512), 0);
    ASSERT_TRUE(flash.isProgrammed(p));

    // The read queues behind the program on the same die, then pays
    // tR and the channel transfer; the page holds what was programmed.
    const ms::Tick done = flash.read(p, 0);
    EXPECT_EQ(done, programmed + cfg.readLatency +
                        ms::transferTicks(cfg.pageBytes,
                                          cfg.channelBytesPerSec));
    EXPECT_EQ(flash.peek(p), pattern(7, 512));
}

TEST(FlashArray, ReadTimingIncludesTrAndChannel)
{
    const auto cfg = smallConfig();
    fl::FlashArray flash(cfg);
    const fl::PagePointer p{0, 0, 0, 0, 0};
    flash.program(p, pattern(1, 16), 0);
    const ms::Tick prog_done = flash.program({0, 0, 0, 0, 1},
                                             pattern(2, 16), 0);
    const ms::Tick done = flash.read(p, prog_done);
    const ms::Tick xfer =
        ms::transferTicks(cfg.pageBytes, cfg.channelBytesPerSec);
    EXPECT_GE(done, prog_done + cfg.readLatency + xfer);
}

TEST(FlashArrayDeath, ReadingUnprogrammedPagePanics)
{
    fl::FlashArray flash(smallConfig());
    EXPECT_DEATH(flash.read({0, 0, 0, 0, 0}, 0), "unprogrammed");
}

TEST(FlashArrayDeath, ProgramTwiceWithoutErasePanics)
{
    fl::FlashArray flash(smallConfig());
    const fl::PagePointer p{0, 0, 0, 0, 0};
    flash.program(p, pattern(1, 8), 0);
    EXPECT_DEATH(flash.program(p, pattern(2, 8), 0), "write-once");
}

TEST(FlashArrayDeath, OutOfOrderProgramPanics)
{
    fl::FlashArray flash(smallConfig());
    // Page 1 before page 0 violates in-order programming.
    EXPECT_DEATH(flash.program({0, 0, 0, 0, 1}, pattern(1, 8), 0),
                 "out-of-order");
}

TEST(FlashArray, EraseAllowsReprogramming)
{
    fl::FlashArray flash(smallConfig());
    const fl::BlockPointer blk{0, 0, 0, 0};
    flash.program(blk.pageAt(0), pattern(1, 8), 0);
    flash.program(blk.pageAt(1), pattern(2, 8), 0);
    flash.erase(blk, 0);
    EXPECT_FALSE(flash.isProgrammed(blk.pageAt(0)));
    EXPECT_EQ(flash.eraseCount(blk), 1u);
    flash.program(blk.pageAt(0), pattern(3, 8), 0);
    EXPECT_EQ(flash.peek(blk.pageAt(0))[0], 3);
}

TEST(FlashArray, DiesOperateInParallel)
{
    const auto cfg = smallConfig();
    fl::FlashArray flash(cfg);
    // Program one page on two different dies: programs overlap, so the
    // completion of the second is far less than 2x tPROG.
    const ms::Tick d0 =
        flash.program({0, 0, 0, 0, 0}, pattern(1, 16), 0);
    const ms::Tick d1 =
        flash.program({0, 1, 0, 0, 0}, pattern(2, 16), 0);
    EXPECT_LT(d1, d0 + cfg.programLatency);
}

TEST(FlashArray, SameDieOperationsSerialize)
{
    const auto cfg = smallConfig();
    fl::FlashArray flash(cfg);
    const ms::Tick d0 =
        flash.program({0, 0, 0, 0, 0}, pattern(1, 16), 0);
    const ms::Tick d1 =
        flash.program({0, 0, 0, 0, 1}, pattern(2, 16), 0);
    EXPECT_GE(d1, d0 + cfg.programLatency);
}

TEST(FlashArray, StatsCountOperations)
{
    fl::FlashArray flash(smallConfig());
    flash.program({0, 0, 0, 0, 0}, pattern(1, 16), 0);
    flash.read({0, 0, 0, 0, 0}, 0);
    flash.erase({0, 0, 0, 0}, 0);
    EXPECT_EQ(flash.programsIssued().value(), 1u);
    EXPECT_EQ(flash.readsIssued().value(), 1u);
    EXPECT_EQ(flash.erasesIssued().value(), 1u);
}

TEST(FlashArray, EstimateMatchesActualReadCompletion)
{
    fl::FlashArray flash(smallConfig());
    const fl::PagePointer p{1, 1, 0, 2, 0};
    flash.program(p, pattern(9, 32), 0);
    const ms::Tick est = flash.estimateReadDone(p, 1000000);
    const ms::Tick act = flash.read(p, 1000000);
    EXPECT_EQ(est, act);
}

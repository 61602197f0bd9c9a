/**
 * @file
 * Functional + timed NAND flash array.
 *
 * The array stores real page contents (lazily allocated) and enforces
 * NAND programming rules: a page must be erased before it is
 * programmed, pages within a block are programmed in order, and erase
 * operates on whole blocks. Timing is modeled with one Timeline per die
 * (tR / tPROG / tBERS occupancy) and one per channel (data transfer
 * occupancy), so multi-channel and multi-die parallelism emerge
 * naturally.
 */

#ifndef MORPHEUS_FLASH_FLASH_ARRAY_HH
#define MORPHEUS_FLASH_FLASH_ARRAY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flash/flash_config.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

namespace morpheus::flash {

/** NAND flash array: geometry, timing, and page contents. */
class FlashArray
{
  public:
    explicit FlashArray(const FlashConfig &config);

    const FlashConfig &config() const { return _config; }

    /**
     * Read one page.
     *
     * @param addr     Page to read; must be programmed.
     * @param earliest First tick at which the die may start.
     * @param uncorrectable  Optional fault-injection out-param: set to
     *                 true when the installed sim::FaultInjector makes
     *                 this read come back uncorrectable (the full
     *                 tR + transfer time is still charged — read retry
     *                 consumes the access either way). Never written
     *                 when no injector is installed.
     * @return Completion tick (known eagerly: timelines reserve at
     *         issue time). This per-page tick is the contract the
     *         streaming pipeline builds on: the FTL forwards it per
     *         page (Ftl::readPages page_ticks), so a chunk's consumer
     *         can start at the first page's arrival, not the last's.
     */
    sim::Tick read(const PagePointer &addr, sim::Tick earliest,
                   bool *uncorrectable = nullptr);

    /**
     * Program one page. Enforces erase-before-program and in-order
     * programming within the block.
     */
    sim::Tick program(const PagePointer &addr,
                      std::vector<std::uint8_t> data, sim::Tick earliest);

    /** Erase one block, releasing all of its pages. */
    sim::Tick erase(const BlockPointer &addr, sim::Tick earliest);

    /**
     * Earliest completion tick if a read of @p addr started no earlier
     * than @p earliest — without reserving anything. Used by schedulers.
     */
    sim::Tick estimateReadDone(const PagePointer &addr,
                               sim::Tick earliest) const;

    /** Whether the page currently holds programmed data. */
    bool isProgrammed(const PagePointer &addr) const;

    /** Direct (zero-time) read for test validation; page must exist. */
    const std::vector<std::uint8_t> &peek(const PagePointer &addr) const;

    /** Erase count of a block (wear). */
    std::uint64_t eraseCount(const BlockPointer &addr) const;

    /** Busy-time of a die timeline (for utilization reporting). */
    const sim::Timeline &dieTimeline(unsigned channel, unsigned die) const;

    void registerStats(sim::stats::StatSet &set,
                       const std::string &prefix) const;

    const sim::stats::Counter &readsIssued() const { return _reads; }
    const sim::stats::Counter &programsIssued() const { return _programs; }
    const sim::stats::Counter &erasesIssued() const { return _erases; }

  private:
    std::uint64_t flatPage(const PagePointer &addr) const;
    std::uint64_t flatBlock(const BlockPointer &addr) const;
    void checkPageAddr(const PagePointer &addr) const;

    sim::Timeline &die(unsigned channel, unsigned die_idx);
    const sim::Timeline &die(unsigned channel, unsigned die_idx) const;

    FlashConfig _config;

    /** One occupancy timeline per die and per channel bus. */
    std::vector<sim::Timeline> _dieTimelines;
    std::vector<sim::Timeline> _channelTimelines;

    /** Programmed page contents, keyed by flat page index. */
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> _pages;
    /** Next in-order programmable page per block (absent => 0). */
    std::unordered_map<std::uint64_t, unsigned> _nextProgramPage;
    /** Erase counts per block (absent => 0). */
    std::unordered_map<std::uint64_t, std::uint64_t> _eraseCounts;

    sim::stats::Counter _reads;
    sim::stats::Counter _programs;
    sim::stats::Counter _erases;
    sim::stats::Counter _bytesRead;
    sim::stats::Counter _bytesProgrammed;
};

}  // namespace morpheus::flash

#endif  // MORPHEUS_FLASH_FLASH_ARRAY_HH

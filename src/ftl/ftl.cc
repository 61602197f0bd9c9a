#include "ftl/ftl.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace morpheus::ftl {

namespace {

/** Plane index within the whole array. */
unsigned
planeIndex(const flash::FlashConfig &cfg, const flash::BlockPointer &b)
{
    return (b.channel * cfg.diesPerChannel + b.die) * cfg.planesPerDie +
           b.plane;
}

}  // namespace

Ftl::Ftl(flash::FlashArray &array, const FtlConfig &config)
    : _array(array), _config(config)
{
    const auto &fc = _array.config();
    MORPHEUS_ASSERT(_config.overProvisioning > 0.0 &&
                        _config.overProvisioning < 0.5,
                    "unreasonable over-provisioning ratio");
    MORPHEUS_ASSERT(_config.gcHighWatermark >= _config.gcLowWatermark,
                    "GC watermarks inverted");
    const double usable = 1.0 - _config.overProvisioning;
    _logicalPages = static_cast<std::uint64_t>(
        static_cast<double>(fc.pages()) * usable);

    // Every block starts free and never opened.
    _freedBlocks.resize(fc.planes());
    _nextFresh.assign(fc.planes(), 0);
    _freeCount = fc.blocks();
    _activeBlocks.assign(fc.planes(), kUnmapped);
}

std::uint64_t
Ftl::flatBlock(const flash::BlockPointer &b) const
{
    const auto &fc = _array.config();
    std::uint64_t idx = b.channel;
    idx = idx * fc.diesPerChannel + b.die;
    idx = idx * fc.planesPerDie + b.plane;
    idx = idx * fc.blocksPerPlane + b.block;
    return idx;
}

flash::BlockPointer
Ftl::planeBlock(unsigned plane, unsigned block) const
{
    const auto &fc = _array.config();
    const unsigned p = plane % fc.planesPerDie;
    plane /= fc.planesPerDie;
    return flash::BlockPointer{plane / fc.diesPerChannel,
                               plane % fc.diesPerChannel, p, block};
}

sim::Tick
Ftl::trimPages(std::uint64_t lpn, std::uint32_t count,
               sim::Tick earliest)
{
    MORPHEUS_ASSERT(count > 0, "zero-length TRIM");
    MORPHEUS_ASSERT(lpn + count <= _logicalPages,
                    "TRIM beyond logical capacity");
    for (std::uint32_t i = 0; i < count; ++i)
        invalidate(lpn + i);
    ++_trims;
    // Mapping-table update only: ~2 us of firmware work per command.
    return earliest + 2 * sim::kPsPerUs;
}

bool
Ftl::isMapped(std::uint64_t lpn) const
{
    return _map.find(lpn) != _map.end();
}

flash::PagePointer
Ftl::physicalPage(std::uint64_t ppn) const
{
    const auto &fc = _array.config();
    flash::PagePointer addr;
    addr.page = static_cast<unsigned>(ppn % fc.pagesPerBlock);
    ppn /= fc.pagesPerBlock;
    addr.block = static_cast<unsigned>(ppn % fc.blocksPerPlane);
    ppn /= fc.blocksPerPlane;
    addr.plane = static_cast<unsigned>(ppn % fc.planesPerDie);
    ppn /= fc.planesPerDie;
    addr.die = static_cast<unsigned>(ppn % fc.diesPerChannel);
    ppn /= fc.diesPerChannel;
    addr.channel = static_cast<unsigned>(ppn);
    return addr;
}

std::vector<std::uint8_t>
Ftl::peekPage(std::uint64_t lpn) const
{
    const auto it = _map.find(lpn);
    if (it == _map.end())
        return std::vector<std::uint8_t>(pageBytes(), 0);
    return _array.peek(physicalPage(it->second));
}

sim::Tick
Ftl::readPages(std::uint64_t lpn, std::uint32_t count, sim::Tick earliest,
               bool *media_error, std::vector<sim::Tick> *page_ticks)
{
    MORPHEUS_ASSERT(count > 0, "zero-length FTL read");
    MORPHEUS_ASSERT(lpn + count <= _logicalPages,
                    "FTL read beyond logical capacity: lpn=", lpn,
                    " count=", count);

    if (page_ticks) {
        page_ticks->clear();
        page_ticks->reserve(count);
    }
    sim::Tick done = earliest;
    for (std::uint32_t i = 0; i < count; ++i) {
        sim::Tick page_done = earliest;
        const auto it = _map.find(lpn + i);
        if (it != _map.end()) {
            page_done =
                _array.read(physicalPage(it->second), earliest, media_error);
            done = std::max(done, page_done);
        }
        if (page_ticks)
            page_ticks->push_back(page_done);
        ++_hostReads;
    }
    return done;
}

void
Ftl::invalidate(std::uint64_t lpn)
{
    const auto it = _map.find(lpn);
    if (it == _map.end())
        return;
    const auto &fc = _array.config();
    const std::uint64_t blk = it->second / fc.pagesPerBlock;
    const auto slot =
        static_cast<unsigned>(it->second % fc.pagesPerBlock);
    auto bit = _blocks.find(blk);
    MORPHEUS_ASSERT(bit != _blocks.end(), "mapped page in unknown block");
    MORPHEUS_ASSERT(bit->second.pageLpn[slot] == lpn,
                    "reverse map inconsistent");
    bit->second.pageLpn[slot] = kUnmapped;
    MORPHEUS_ASSERT(bit->second.validPages > 0, "valid count underflow");
    --bit->second.validPages;
    _map.erase(it);
}

flash::PagePointer
Ftl::allocatePage(std::uint64_t lpn, sim::Tick now, sim::Tick *gc_done)
{
    const auto &fc = _array.config();
    const unsigned planes = fc.planes();

    // Trigger GC before picking a block (never recursively from GC's
    // own relocation writes).
    if (!_inGc && _freeCount < _config.gcLowWatermark) {
        const sim::Tick t = collectGarbage(now);
        if (gc_done)
            *gc_done = std::max(*gc_done, t);
    }

    for (unsigned attempt = 0; attempt < planes; ++attempt) {
        const unsigned plane =
            static_cast<unsigned>(_nextPlane++ % planes);
        std::uint64_t &active = _activeBlocks[plane];

        if (active != kUnmapped) {
            BlockState &bs = _blocks.at(active);
            if (bs.writtenPages < fc.pagesPerBlock) {
                const unsigned slot = bs.writtenPages++;
                bs.pageLpn[slot] = lpn;
                ++bs.validPages;
                _map[lpn] =
                    flatBlock(bs.addr) * fc.pagesPerBlock + slot;
                return bs.addr.pageAt(slot);
            }
            active = kUnmapped;  // block full; retire from stripe
        }

        // Open a free block of this plane: the most recently freed
        // one, else the lowest never-opened one.
        std::vector<unsigned> &freed = _freedBlocks[plane];
        unsigned block = 0;
        if (!freed.empty()) {
            block = freed.back();
            freed.pop_back();
        } else if (_nextFresh[plane] < fc.blocksPerPlane) {
            block = _nextFresh[plane]++;
        } else {
            continue;  // no free block in this plane; try the next
        }
        --_freeCount;
        const flash::BlockPointer addr = planeBlock(plane, block);

        const std::uint64_t blk = flatBlock(addr);
        BlockState bs;
        bs.addr = addr;
        bs.pageLpn.assign(fc.pagesPerBlock, kUnmapped);
        const auto [bit, inserted] = _blocks.emplace(blk, std::move(bs));
        MORPHEUS_ASSERT(inserted, "block opened twice");
        active = blk;

        BlockState &nb = bit->second;
        const unsigned slot = nb.writtenPages++;
        nb.pageLpn[slot] = lpn;
        ++nb.validPages;
        _map[lpn] = blk * fc.pagesPerBlock + slot;
        return nb.addr.pageAt(slot);
    }
    MORPHEUS_PANIC("FTL out of free blocks (over-provisioning exhausted)");
}

sim::Tick
Ftl::collectGarbage(sim::Tick now)
{
    const auto &fc = _array.config();
    _inGc = true;
    ++_gcRuns;
    sim::Tick done = now;

    while (_freeCount < _config.gcHighWatermark) {
        // Greedy victim: fewest valid pages among full, non-active
        // blocks; ties go to the least-erased block (static wear
        // levelling — cycling cold blocks back into service).
        std::uint64_t victim = kUnmapped;
        unsigned best_valid = std::numeric_limits<unsigned>::max();
        std::uint64_t best_wear =
            std::numeric_limits<std::uint64_t>::max();
        for (const auto &[blk, bs] : _blocks) {
            if (bs.writtenPages < fc.pagesPerBlock)
                continue;  // still open for writes
            if (std::find(_activeBlocks.begin(), _activeBlocks.end(),
                          blk) != _activeBlocks.end()) {
                continue;
            }
            const std::uint64_t wear = _array.eraseCount(bs.addr);
            if (bs.validPages < best_valid ||
                (bs.validPages == best_valid && wear < best_wear)) {
                best_valid = bs.validPages;
                best_wear = wear;
                victim = blk;
            }
        }
        if (victim == kUnmapped)
            break;  // nothing reclaimable

        BlockState victim_state = _blocks.at(victim);

        // Relocate every valid page, then erase the victim.
        sim::Tick reads_done = now;
        for (unsigned slot = 0; slot < fc.pagesPerBlock; ++slot) {
            const std::uint64_t lpn = victim_state.pageLpn[slot];
            if (lpn == kUnmapped)
                continue;
            const auto addr = victim_state.addr.pageAt(slot);
            std::vector<std::uint8_t> data = _array.peek(addr);
            const sim::Tick rd = _array.read(addr, now);
            reads_done = std::max(reads_done, rd);

            invalidate(lpn);
            sim::Tick unused = 0;
            const auto dst = allocatePage(lpn, rd, &unused);
            const sim::Tick wr = _array.program(dst, std::move(data), rd);
            done = std::max(done, wr);
            ++_gcRelocated;
        }

        _blocks.erase(victim);
        const sim::Tick er =
            _array.erase(victim_state.addr, reads_done);
        done = std::max(done, er);
        _freedBlocks[planeIndex(fc, victim_state.addr)].push_back(
            victim_state.addr.block);
        ++_freeCount;
    }

    _inGc = false;
    return done;
}

sim::Tick
Ftl::writePages(std::uint64_t lpn, const std::vector<std::uint8_t> &data,
                sim::Tick earliest)
{
    MORPHEUS_ASSERT(!data.empty(), "zero-length FTL write");
    const auto &fc = _array.config();
    const std::uint32_t count = static_cast<std::uint32_t>(
        (data.size() + fc.pageBytes - 1) / fc.pageBytes);
    MORPHEUS_ASSERT(lpn + count <= _logicalPages,
                    "FTL write beyond logical capacity");

    sim::Tick done = earliest;
    for (std::uint32_t i = 0; i < count; ++i) {
        invalidate(lpn + i);
        sim::Tick gc_done = earliest;
        const auto dst = allocatePage(lpn + i, earliest, &gc_done);

        const std::size_t off =
            static_cast<std::size_t>(i) * fc.pageBytes;
        const std::size_t len =
            std::min<std::size_t>(fc.pageBytes, data.size() - off);
        std::vector<std::uint8_t> page(data.begin() + off,
                                       data.begin() + off + len);
        const sim::Tick wr =
            _array.program(dst, std::move(page), gc_done);
        done = std::max(done, wr);
        ++_hostWrites;
    }
    return done;
}

std::uint64_t
Ftl::maxEraseDelta() const
{
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    for (const auto &[blk, bs] : _blocks) {
        const std::uint64_t w = _array.eraseCount(bs.addr);
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    return _blocks.empty() ? 0 : hi - lo;
}

void
Ftl::registerStats(sim::stats::StatSet &set,
                   const std::string &prefix) const
{
    set.registerCounter(prefix + ".hostReads", &_hostReads);
    set.registerCounter(prefix + ".hostWrites", &_hostWrites);
    set.registerCounter(prefix + ".trims", &_trims);
    set.registerCounter(prefix + ".gcRuns", &_gcRuns);
    set.registerCounter(prefix + ".gcRelocated", &_gcRelocated);
}

}  // namespace morpheus::ftl

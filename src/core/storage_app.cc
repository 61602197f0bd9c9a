#include "core/storage_app.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace morpheus::core {

MsChunkContext::MsChunkContext(std::uint32_t dsram_bytes,
                               std::uint32_t flush_threshold,
                               std::uint32_t arg)
    : _dsramBytes(dsram_bytes), _flushThreshold(flush_threshold),
      _arg(arg),
      _scanner(
          [this](std::uint8_t *dst, std::size_t cap) {
              return refill(dst, cap);
          },
          4 * 1024, /*incremental=*/true)
{
    MORPHEUS_ASSERT(flush_threshold > 0 &&
                        flush_threshold <= dsram_bytes,
                    "flush threshold must fit in D-SRAM");
}

std::size_t
MsChunkContext::refill(std::uint8_t *dst, std::size_t capacity)
{
    const std::size_t avail = _chunk.size() - _chunkPos;
    const std::size_t take = std::min(avail, capacity);
    if (take > 0) {
        std::copy(_chunk.begin() +
                      static_cast<std::ptrdiff_t>(_chunkPos),
                  _chunk.begin() +
                      static_cast<std::ptrdiff_t>(_chunkPos + take),
                  dst);
        _chunkPos += take;
    }
    return take;
}

void
MsChunkContext::growStaging(std::size_t n)
{
    MORPHEUS_ASSERT(n <= _dsramBytes,
                    "StorageApp working set exceeds D-SRAM (",
                    _dsramBytes, " bytes); lower the flush threshold");
    if (n > _dsramBytes - _staged) {
        flushResidual();
        if (n <= _stagingCap)
            return;
    }
    // Fewer than _flushThreshold bytes stay staged between emits, so
    // two thresholds hold every emit up to a threshold long. Sizing by
    // the whole D-SRAM, or before the first emit, raises peak RSS.
    const std::size_t cap = std::min<std::size_t>(
        _dsramBytes,
        std::max({2 * _stagingCap, 2 * std::size_t(_flushThreshold),
                  _staged + n}));
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    if (_staged > 0)
        std::memcpy(grown.get(), _staging.get(), _staged);
    _staging = std::move(grown);
    _stagingCap = cap;
}

void
MsChunkContext::cutFlushes()
{
    const std::uint8_t *p = _staging.get();
    std::size_t cut = 0;
    while (_staged - cut >= _flushThreshold) {
        _flushes.emplace_back(p + cut, p + cut + _flushThreshold);
        cut += _flushThreshold;
    }
    _staged -= cut;
    std::memmove(_staging.get(), p + cut, _staged);
}

bool
MsChunkContext::msReadRaw(void *out, std::size_t n)
{
    if (_chunk.size() - _chunkPos < n)
        return false;
    std::memcpy(out, _chunk.data() + _chunkPos, n);
    _chunkPos += n;
    return true;
}

void
MsChunkContext::feedChunk(std::vector<std::uint8_t> chunk)
{
    MORPHEUS_ASSERT(!_eof, "chunk delivered after end of stream");
    // Bytes the app chose not to consume (trailing padding after it
    // has seen everything it wants) are dropped, as they would be on
    // the device.
    _chunk = std::move(chunk);
    _chunkPos = 0;
}

void
MsChunkContext::signalEndOfStream()
{
    _eof = true;
    _scanner.setEndOfStream();
}

void
MsChunkContext::msChargeCost(const serde::ParseCost &extra)
{
    _extraCost += extra;
}

serde::ParseCost
MsChunkContext::takeCostDelta()
{
    const serde::ParseCost &total = _scanner.cost();
    serde::ParseCost delta;
    delta.bytes = total.bytes - _costSnapshot.bytes;
    delta.intValues = total.intValues - _costSnapshot.intValues;
    delta.floatValues = total.floatValues - _costSnapshot.floatValues;
    delta.floatOps = total.floatOps - _costSnapshot.floatOps;
    _costSnapshot = total;
    delta += _extraCost;
    _extraCost = serde::ParseCost{};
    return delta;
}

std::vector<std::vector<std::uint8_t>>
MsChunkContext::takeFlushes()
{
    return std::exchange(_flushes, {});
}

void
MsChunkContext::flushResidual()
{
    if (_staged > 0) {
        const std::uint8_t *p = _staging.get();
        _flushes.emplace_back(p, p + _staged);
        _staged = 0;
    }
}

serde::ParseCost
MsChunkContext::abortCommand()
{
    const serde::ParseCost delta = takeCostDelta();
    _chunk.clear();
    _chunkPos = 0;
    _staged = 0;
    _flushes.clear();
    return delta;
}

}  // namespace morpheus::core

/**
 * @file
 * Token scanners over contiguous and chunked byte sources.
 *
 * TextScanner walks one contiguous buffer. StreamingScanner pulls data
 * through a refill callback and carries partial tokens across chunk
 * boundaries — exactly what a StorageApp sees when the Morpheus runtime
 * feeds it MDTS-sized MREAD chunks.
 */

#ifndef MORPHEUS_SERDE_SCANNER_HH
#define MORPHEUS_SERDE_SCANNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "serde/parse.hh"

namespace morpheus::serde {

/** Sequential token scanner over a contiguous byte range. */
class TextScanner
{
  public:
    TextScanner(const std::uint8_t *data, std::size_t size)
        : _p(data), _end(data + size)
    {}

    /** Parse the next integer token. @return false at end of input. */
    bool nextInt64(std::int64_t *out);

    /**
     * Parse up to @p max integer tokens into @p out, a window of them
     * at a time (parseInt64Run()). Returns, positions and costs
     * exactly as up to @p max nextInt64() calls that stop at the first
     * false would. @return the number parsed.
     */
    std::size_t nextInt64s(std::int64_t *out, std::size_t max);

    /** Parse the next floating-point token. */
    bool nextDouble(double *out);

    /**
     * Parse the next token as whichever type it looks like; ints are
     * stored exactly, floats converted. @p is_float reports which.
     */
    bool nextNumber(double *out, bool *is_float);

    /** True when only separators remain. */
    bool atEnd();

    /** Operation accounting so far. */
    const ParseCost &cost() const { return _cost; }

  private:
    const std::uint8_t *_p;
    const std::uint8_t *_end;
    ParseCost _cost;
};

/**
 * Token scanner over a chunked source.
 *
 * The refill callback copies up to @c capacity bytes into @c dst and
 * returns the count (0 at end of stream). Tokens split across refills
 * are handled by carrying the unconsumed tail into the next buffer, so
 * parse results are identical to a contiguous scan of the whole stream.
 *
 * Each pull() records where the buffer's last separator ends. Every
 * token that starts before that point is complete, so checking a
 * token costs one compare rather than a scan to its end.
 */
class StreamingScanner
{
  public:
    using Refill =
        std::function<std::size_t(std::uint8_t *dst, std::size_t capacity)>;

    /**
     * @param refill      Source callback.
     * @param chunk_bytes Working buffer size; tokens longer than this
     *                    are a caller error (numbers never are).
     * @param incremental When true, a refill returning 0 means "no more
     *                    data *yet*": next*() returns false but the
     *                    scanner resumes (carrying any partial token)
     *                    once more data is available; the stream only
     *                    truly ends after setEndOfStream(). This is the
     *                    mode a StorageApp uses across MREAD chunks.
     */
    StreamingScanner(Refill refill, std::size_t chunk_bytes,
                     bool incremental = false);

    /** Incremental mode: declare that no further data will arrive. */
    void setEndOfStream() { _finalized = true; }

    /**
     * Parse the next integer token. The common case, a well-formed
     * token ahead of the last separator, is handled inline; refills,
     * malformed tokens and the stream's final token go out of line.
     */
    bool
    nextInt64(std::int64_t *out)
    {
        const std::uint8_t *base = _buf.data();
        const std::uint8_t *complete = base + _complete;
        const std::uint8_t *p = skipSeparators(base + _pos, complete, _cost);
        if (p < complete) {
            if (const std::uint8_t *next =
                    parseInt64(p, complete, out, _cost)) {
                _pos = static_cast<std::size_t>(next - base);
                return true;
            }
        }
        _pos = static_cast<std::size_t>(p - base);
        return nextInt64Slow(out);
    }

    /** Batched nextInt64(); same contract as TextScanner::nextInt64s. */
    std::size_t nextInt64s(std::int64_t *out, std::size_t max);

    bool nextDouble(double *out);
    bool nextNumber(double *out, bool *is_float);
    bool atEnd();

    const ParseCost &cost() const { return _cost; }

    /** Number of refill calls made (one per chunk pulled). */
    std::uint64_t refills() const { return _refills; }

  private:
    bool nextInt64Slow(std::int64_t *out);

    /**
     * Ensure the buffer holds a complete leading token (or the final
     * bytes of the stream). @return false when the stream is exhausted
     * and the buffer is empty.
     */
    bool ensureToken();

    /** Pull one chunk, appending after the carried tail. */
    bool pull();

    Refill _refill;
    std::vector<std::uint8_t> _buf;
    std::size_t _chunkBytes;
    std::size_t _pos = 0;     // consumed prefix of _buf
    std::size_t _complete = 0;  // _buf through its last separator
    bool _incremental = false;
    bool _finalized = true;   // non-incremental streams end at refill==0
    bool _exhausted = false;  // no data remains, ever
    std::uint64_t _refills = 0;
    ParseCost _cost;
};

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_SCANNER_HH

#include "serde/scanner.hh"

#include "sim/logging.hh"

namespace morpheus::serde {

namespace {

/** Advance past one run of non-separator bytes (a malformed token). */
const std::uint8_t *
skipToken(const std::uint8_t *p, const std::uint8_t *end, ParseCost &cost)
{
    const std::uint8_t *start = p;
    while (p < end && !isSeparator(*p))
        ++p;
    cost.bytes += static_cast<std::uint64_t>(p - start);
    return p;
}

}  // namespace

bool
TextScanner::nextInt64(std::int64_t *out)
{
    for (;;) {
        _p = skipSeparators(_p, _end, _cost);
        if (_p >= _end)
            return false;
        const std::uint8_t *next = parseInt64(_p, _end, out, _cost);
        if (next) {
            _p = next;
            return true;
        }
        _p = skipToken(_p, _end, _cost);  // malformed token: skip it
    }
}

std::size_t
TextScanner::nextInt64s(std::int64_t *out, std::size_t max)
{
    std::size_t n = 0;
    for (;;) {
        std::size_t run = 0;
        _p = parseInt64Run(_p, _end, out + n, max - n, &run, _cost);
        n += run;
        // Window tail, end of input or a window that is not clean.
        if (n == max || !nextInt64(out + n))
            return n;
        ++n;
    }
}

bool
TextScanner::nextDouble(double *out)
{
    for (;;) {
        _p = skipSeparators(_p, _end, _cost);
        if (_p >= _end)
            return false;
        const std::uint8_t *next = parseDouble(_p, _end, out, _cost);
        if (next) {
            _p = next;
            return true;
        }
        _p = skipToken(_p, _end, _cost);
    }
}

bool
TextScanner::nextNumber(double *out, bool *is_float)
{
    for (;;) {
        _p = skipSeparators(_p, _end, _cost);
        if (_p >= _end)
            return false;
        const bool looks_float = tokenLooksFloat(_p, _end);
        const std::uint8_t *next;
        if (looks_float) {
            next = parseDouble(_p, _end, out, _cost);
        } else {
            std::int64_t v = 0;
            next = parseInt64(_p, _end, &v, _cost);
            if (next)
                *out = static_cast<double>(v);
        }
        if (next) {
            if (is_float)
                *is_float = looks_float;
            _p = next;
            return true;
        }
        _p = skipToken(_p, _end, _cost);
    }
}

bool
TextScanner::atEnd()
{
    _p = skipSeparators(_p, _end, _cost);
    return _p >= _end;
}

StreamingScanner::StreamingScanner(Refill refill, std::size_t chunk_bytes,
                                   bool incremental)
    : _refill(std::move(refill)), _chunkBytes(chunk_bytes),
      _incremental(incremental), _finalized(!incremental)
{
    MORPHEUS_ASSERT(_refill, "StreamingScanner needs a refill callback");
    MORPHEUS_ASSERT(_chunkBytes > 0, "StreamingScanner chunk must be > 0");
}

bool
StreamingScanner::pull()
{
    if (_exhausted)
        return false;
    // Compact the consumed prefix before appending.
    if (_pos > 0) {
        _buf.erase(_buf.begin(),
                   _buf.begin() + static_cast<std::ptrdiff_t>(_pos));
        _complete = _complete > _pos ? _complete - _pos : 0;
        _pos = 0;
    }
    const std::size_t old = _buf.size();
    _buf.resize(old + _chunkBytes);
    const std::size_t got = _refill(_buf.data() + old, _chunkBytes);
    MORPHEUS_ASSERT(got <= _chunkBytes, "refill overran its capacity");
    _buf.resize(old + got);
    ++_refills;
    if (got == 0) {
        if (_finalized)
            _exhausted = true;
        return false;
    }
    for (std::size_t i = old + got; i > old; --i) {
        if (isSeparator(_buf[i - 1])) {
            _complete = i;
            break;
        }
    }
    return true;
}

bool
StreamingScanner::ensureToken()
{
    for (;;) {
        // Consume leading separators.
        while (_pos < _buf.size() && isSeparator(_buf[_pos])) {
            ++_pos;
            ++_cost.bytes;
        }
        if (_pos < _buf.size()) {
            // A token starts here; it is complete if a separator
            // follows it in the buffer (or the stream is exhausted, so
            // it ends at buffer end).
            if (_pos < _complete || _exhausted)
                return true;
            if (!pull()) {
                // Stream truly ended: the trailing token is complete.
                // Incremental and still open: the token may continue in
                // a later chunk; leave it buffered and report no token.
                return _exhausted;
            }
            continue;
        }
        if (!pull())
            return false;  // nothing available (now or ever)
    }
}

bool
StreamingScanner::nextInt64Slow(std::int64_t *out)
{
    for (;;) {
        if (!ensureToken())
            return false;
        const std::uint8_t *start = _buf.data() + _pos;
        const std::uint8_t *end = _buf.data() + _buf.size();
        const std::uint8_t *next = parseInt64(start, end, out, _cost);
        if (next) {
            _pos += static_cast<std::size_t>(next - start);
            return true;
        }
        const std::uint8_t *skipped = skipToken(start, end, _cost);
        _pos += static_cast<std::size_t>(skipped - start);
    }
}

std::size_t
StreamingScanner::nextInt64s(std::int64_t *out, std::size_t max)
{
    std::size_t n = 0;
    for (;;) {
        // Only bytes before the last separator: past it a digit run
        // that a non-digit ends (say "12x") is not a whole token yet.
        const std::uint8_t *base = _buf.data();
        std::size_t run = 0;
        const std::uint8_t *p = parseInt64Run(
            base + _pos, base + _complete, out + n, max - n, &run, _cost);
        _pos = static_cast<std::size_t>(p - base);
        n += run;
        // Buffer tail (and refills), end of data or a window that is
        // not clean.
        if (n == max || !nextInt64(out + n))
            return n;
        ++n;
    }
}

bool
StreamingScanner::nextDouble(double *out)
{
    for (;;) {
        if (!ensureToken())
            return false;
        const std::uint8_t *start = _buf.data() + _pos;
        const std::uint8_t *end = _buf.data() + _buf.size();
        const std::uint8_t *next = parseDouble(start, end, out, _cost);
        if (next) {
            _pos += static_cast<std::size_t>(next - start);
            return true;
        }
        const std::uint8_t *skipped = skipToken(start, end, _cost);
        _pos += static_cast<std::size_t>(skipped - start);
    }
}

bool
StreamingScanner::nextNumber(double *out, bool *is_float)
{
    for (;;) {
        if (!ensureToken())
            return false;
        const std::uint8_t *start = _buf.data() + _pos;
        const std::uint8_t *end = _buf.data() + _buf.size();
        const bool looks_float = tokenLooksFloat(start, end);
        const std::uint8_t *next;
        if (looks_float) {
            next = parseDouble(start, end, out, _cost);
        } else {
            std::int64_t v = 0;
            next = parseInt64(start, end, &v, _cost);
            if (next)
                *out = static_cast<double>(v);
        }
        if (next) {
            if (is_float)
                *is_float = looks_float;
            _pos += static_cast<std::size_t>(next - start);
            return true;
        }
        const std::uint8_t *skipped = skipToken(start, end, _cost);
        _pos += static_cast<std::size_t>(skipped - start);
    }
}

bool
StreamingScanner::atEnd()
{
    return !ensureToken();
}

}  // namespace morpheus::serde

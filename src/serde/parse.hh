/**
 * @file
 * Low-level ASCII number scanning with operation accounting.
 *
 * These routines do the real work of deserialization in this repository:
 * they convert byte ranges into binary values, and they count every
 * operation class the timing models need (bytes scanned, integer and
 * floating-point conversions). The same functions execute on behalf of
 * the host-CPU model (baseline) and the SSD embedded-core model
 * (Morpheus); only the attached cost model differs.
 */

#ifndef MORPHEUS_SERDE_PARSE_HH
#define MORPHEUS_SERDE_PARSE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace morpheus::serde {

/**
 * Operation counts accumulated while parsing; consumed by
 * host::CpuCostModel and ssd::EmbeddedCoreCostModel.
 */
struct ParseCost
{
    /** Bytes examined (including separators). */
    std::uint64_t bytes = 0;
    /** Integer values converted. */
    std::uint64_t intValues = 0;
    /** Floating-point values converted. */
    std::uint64_t floatValues = 0;
    /** Floating-point arithmetic ops performed during conversion. */
    std::uint64_t floatOps = 0;

    ParseCost &
    operator+=(const ParseCost &o)
    {
        bytes += o.bytes;
        intValues += o.intValues;
        floatValues += o.floatValues;
        floatOps += o.floatOps;
        return *this;
    }
};

/**
 * True for the token separators used by the text formats here. NUL is
 * a separator so block-granular transfers (NVMe pads files to 512-byte
 * blocks) parse identically to the exact byte stream.
 */
constexpr bool
isSeparator(std::uint8_t c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' ||
           c == '\0';
}

/** True for ASCII decimal digits. */
constexpr bool
isDigit(std::uint8_t c)
{
    return c >= '0' && c <= '9';
}

/**
 * Advance past leading separators.
 *
 * @param p     Start of the range.
 * @param end   One past the end of the range.
 * @param cost  Accounting sink (bytes consumed are added).
 * @return Pointer to the first non-separator byte (or @p end).
 */
inline const std::uint8_t *
skipSeparators(const std::uint8_t *p, const std::uint8_t *end,
               ParseCost &cost)
{
    const std::uint8_t *start = p;
    while (p < end && isSeparator(*p))
        ++p;
    cost.bytes += static_cast<std::uint64_t>(p - start);
    return p;
}

/**
 * Parse one signed decimal integer at @p p. Inline: it is the inner
 * loop of every integer StorageApp.
 *
 * @param p     First byte of the token (no leading separators).
 * @param end   One past the end of the range.
 * @param out   Receives the parsed value on success.
 * @param cost  Accounting sink.
 * @return Pointer just past the consumed token, or nullptr if no valid
 *         integer starts at @p p.
 */
inline const std::uint8_t *
parseInt64(const std::uint8_t *p, const std::uint8_t *end,
           std::int64_t *out, ParseCost &cost)
{
    const std::uint8_t *start = p;
    bool negative = false;
    if (p < end && (*p == '-' || *p == '+')) {
        negative = (*p == '-');
        ++p;
    }
    if (p >= end || !isDigit(*p))
        return nullptr;
    // Unsigned, so a token of 19 or more digits wraps instead of
    // overflowing.
    std::uint64_t value = 0;
    while (p < end && isDigit(*p)) {
        value = value * 10 + (*p - '0');
        ++p;
    }
    *out = static_cast<std::int64_t>(negative ? 0 - value : value);
    cost.bytes += static_cast<std::uint64_t>(p - start);
    ++cost.intValues;
    return p;
}

namespace detail {

/**
 * Value of the @p len (1..8) ASCII digits at @p s, converted eight at
 * a time (SWAR). Reads 8 bytes from @p s whatever @p len is.
 */
inline std::uint64_t
swarDigits(const std::uint8_t *s, unsigned len)
{
    std::uint64_t w = 0;
    std::memcpy(&w, s, sizeof(w));
    // Digits are >= '0', so a borrow can only leave the bytes past the
    // token, and the shift drops those. The zero bytes it shifts in are
    // leading zeros.
    w = (w - 0x3030303030303030ULL) << (8 * (8 - len));
    w = w * 10 + (w >> 8);
    return (((w & 0x000000FF000000FFULL) * (100 + (1000000ULL << 32))) +
            (((w >> 16) & 0x000000FF000000FFULL) *
             (1 + (10000ULL << 32)))) >>
           32;
}

#if defined(__SSE2__)
/** Separator, digit and sign bitmasks of one 64-byte window. */
struct ByteClasses
{
    std::uint64_t sep = 0;
    std::uint64_t digit = 0;
    std::uint64_t sign = 0;
};

inline ByteClasses
classify64(const std::uint8_t *p)
{
    const auto eq = [](__m128i v, char c) {
        return _mm_cmpeq_epi8(v, _mm_set1_epi8(c));
    };
    const auto bits = [](__m128i m, int part) {
        return static_cast<std::uint64_t>(
                   static_cast<std::uint16_t>(_mm_movemask_epi8(m)))
               << (16 * part);
    };
    ByteClasses c;
    for (int part = 0; part < 4; ++part) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + 16 * part));
        const __m128i sep = _mm_or_si128(
            _mm_or_si128(_mm_or_si128(eq(v, ' '), eq(v, '\t')),
                         _mm_or_si128(eq(v, '\n'), eq(v, '\r'))),
            _mm_or_si128(eq(v, ','), eq(v, '\0')));
        const __m128i d = _mm_sub_epi8(v, _mm_set1_epi8('0'));
        const __m128i digit =
            _mm_cmpeq_epi8(_mm_min_epu8(d, _mm_set1_epi8(9)), d);
        c.sep |= bits(sep, part);
        c.digit |= bits(digit, part);
        c.sign |= bits(_mm_or_si128(eq(v, '+'), eq(v, '-')), part);
    }
    return c;
}
#endif

}  // namespace detail

/**
 * Bytes parseInt64Run() leaves to the per-token path at the end of a
 * range: one 64-byte window plus the 8-byte loads of its last token.
 */
inline constexpr std::size_t kIntRunTail = 72;

/**
 * Parse a run of integer tokens: what up to @p max rounds of
 * skipSeparators() + parseInt64() would return, with the same final
 * position and the same ParseCost, but found a 64-byte window at a
 * time (simdjson-style: classify the window into separator, digit and
 * sign bitmasks, derive every token boundary from them, then convert
 * each token independently with SWAR multiplies).
 *
 * The run stops, leaving the rest to the per-token path, at the first
 * window that is not clean — a byte that is neither a digit nor a
 * separator, a sign that does not open a token or is not followed by a
 * digit, or a digit run longer than 16 — and within kIntRunTail bytes
 * of @p end. After the @p max-th value it stops right behind that
 * token, as parseInt64() does; short of @p max it may also consume the
 * separators that lead to the next token. Without SSE2 it parses
 * nothing.
 *
 * @param p     Position of the next token or of separators before it.
 *              The byte before @p p is not a digit of the same token.
 * @param end   One past the end of the readable range.
 * @param out   Receives up to @p max values.
 * @param n     Receives the number of values parsed.
 * @return The position after the run.
 */
inline const std::uint8_t *
parseInt64Run(const std::uint8_t *p, const std::uint8_t *end,
              std::int64_t *out, std::size_t max, std::size_t *n,
              ParseCost &cost)
{
    const std::uint8_t *const start = p;
    std::size_t count = 0;
#if defined(__SSE2__)
    while (count < max &&
           end - p >= static_cast<std::ptrdiff_t>(kIntRunTail)) {
        const detail::ByteClasses c = detail::classify64(p);
        const std::uint64_t tok = c.digit | c.sign;
        const bool digit_after = isDigit(p[64]);
        const std::uint64_t digit_next =
            (c.digit >> 1) | (std::uint64_t(digit_after) << 63);
        // Runs of 17 or more digits: 2, 4, 8, 16, then one more.
        std::uint64_t long_run = c.digit & (c.digit >> 1);
        long_run &= long_run >> 2;
        long_run &= long_run >> 4;
        long_run &= long_run >> 8;
        long_run &= c.digit >> 16;
        if (~(c.sep | tok) | (c.sign & ((tok << 1) | ~digit_next)) |
            long_run)
            break;

        // First and last byte of each token. A token running into the
        // next window is left to it: it stays in `starts` only.
        std::uint64_t starts = tok & ~(tok << 1);
        std::uint64_t lasts = tok & ~(tok >> 1);
        if (digit_after)
            lasts &= ~(std::uint64_t(1) << 63);
        const std::uint8_t *next = p + 64;
        while (lasts != 0 && count < max) {
            const int first = std::countr_zero(starts);
            const int last = std::countr_zero(lasts);
            const std::uint8_t *q = p + first;
            const bool negative = *q == '-';
            q += (c.sign >> first) & 1;
            const auto len = static_cast<unsigned>(p + last + 1 - q);
            const std::uint64_t v =
                len <= 8 ? detail::swarDigits(q, len)
                         : detail::swarDigits(q, len - 8) * 100000000 +
                               detail::swarDigits(q + len - 8, 8);
            out[count++] = negative ? -static_cast<std::int64_t>(v)
                                    : static_cast<std::int64_t>(v);
            next = p + last + 1;
            starts &= starts - 1;
            lasts &= lasts - 1;
        }
        // Short of max, skip on to the open token (a clean window's
        // open token starts past its first byte: 64 bytes of one token
        // would hold 17 digits) or past the trailing separators.
        if (count < max)
            next = starts ? p + std::countr_zero(starts) : p + 64;
        p = next;
    }
#else
    (void)end;
    (void)out;
    (void)max;
#endif
    cost.bytes += static_cast<std::uint64_t>(p - start);
    cost.intValues += count;
    *n = count;
    return p;
}

/**
 * Parse one decimal floating-point number (optional sign, fraction and
 * e/E exponent) at @p p. Same contract as parseInt64().
 */
const std::uint8_t *parseDouble(const std::uint8_t *p,
                                const std::uint8_t *end, double *out,
                                ParseCost &cost);

/**
 * True when the token starting at @p p (which must not be a separator)
 * contains a '.', 'e', or 'E' before the next separator — i.e., it
 * needs floating-point conversion.
 */
bool tokenLooksFloat(const std::uint8_t *p, const std::uint8_t *end);

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_PARSE_HH

/**
 * @file
 * Application object types and their text formats.
 *
 * These are the "application objects" of the paper: the binary
 * in-memory structures the compute kernels consume. Each type knows how
 * to parse itself from its text interchange format and how to serialize
 * itself back; parsing is the expensive deserialization step the paper
 * offloads.
 *
 * Formats (whitespace/comma separated ASCII):
 *  - EdgeListObject: "V E\n" then E lines "src dst [weight]".
 *  - MatrixObject:   "R C\n" then R*C values, row major.
 *  - IntArrayObject: "N\n" then N integers.
 *  - PointSetObject: "N D\n" then N lines of D values.
 *  - CooMatrixObject:"R C NNZ\n" then NNZ lines "row col value".
 */

#ifndef MORPHEUS_SERDE_FORMATS_HH
#define MORPHEUS_SERDE_FORMATS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "serde/scanner.hh"
#include "serde/writer.hh"

namespace morpheus::serde {

/**
 * Directed edge list with optional integer weights (graph apps:
 * PageRank, BFS, Connected Components, SSSP).
 */
struct EdgeListObject
{
    std::uint32_t numVertices = 0;
    bool weighted = false;
    std::vector<std::uint32_t> src;
    std::vector<std::uint32_t> dst;
    std::vector<std::int32_t> weight;  // empty unless weighted

    std::size_t numEdges() const { return src.size(); }

    /** Size of the binary object, as transported over DMA. */
    std::uint64_t objectBytes() const;

    void serialize(TextWriter &w) const;

    /**
     * Binary (in-memory) layout: u32 V, u32 E, then per edge
     * u32 src, u32 dst [, i32 weight]. Little endian. This is the byte
     * stream StorageApps emit over DMA.
     */
    std::vector<std::uint8_t> toBinary() const;
    static EdgeListObject fromBinary(
        const std::vector<std::uint8_t> &bytes, bool with_weights);

    /**
     * Parse from a scanner (TextScanner or StreamingScanner).
     * @param with_weights  Whether each edge line carries a weight.
     * @return false on truncated input.
     */
    template <typename Scanner>
    bool parse(Scanner &s, bool with_weights);

    bool operator==(const EdgeListObject &) const = default;
};

/**
 * Dense row-major matrix of single-precision floats (Gaussian, LUD —
 * the Rodinia CUDA kernels compute in float).
 */
struct MatrixObject
{
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::vector<float> values;

    std::uint64_t objectBytes() const;
    void serialize(TextWriter &w, int precision = 4) const;

    /** Binary layout: u32 rows, u32 cols, then f32 values row-major. */
    std::vector<std::uint8_t> toBinary() const;
    static MatrixObject fromBinary(const std::vector<std::uint8_t> &bytes);

    template <typename Scanner>
    bool parse(Scanner &s);

    bool operator==(const MatrixObject &) const = default;
};

/** Flat array of 64-bit integers (Hybrid Sort, WordCount-style). */
struct IntArrayObject
{
    std::vector<std::int64_t> values;

    std::uint64_t objectBytes() const;
    void serialize(TextWriter &w) const;

    /** Binary layout: u32 count, then i64 values. */
    std::vector<std::uint8_t> toBinary() const;
    static IntArrayObject fromBinary(
        const std::vector<std::uint8_t> &bytes);

    template <typename Scanner>
    bool parse(Scanner &s);

    bool operator==(const IntArrayObject &) const = default;
};

/** N points of D single-precision coordinates (Kmeans, NN). */
struct PointSetObject
{
    std::uint32_t dims = 0;
    std::vector<float> coords;  // N*D, point major

    std::size_t numPoints() const
    {
        return dims == 0 ? 0 : coords.size() / dims;
    }

    std::uint64_t objectBytes() const;
    void serialize(TextWriter &w, int precision = 2) const;

    /** Binary layout: u32 points, u32 dims, then f32 coords. */
    std::vector<std::uint8_t> toBinary() const;
    static PointSetObject fromBinary(
        const std::vector<std::uint8_t> &bytes);

    template <typename Scanner>
    bool parse(Scanner &s);

    bool operator==(const PointSetObject &) const = default;
};

/** Sparse matrix in coordinate form (SpMV). */
struct CooMatrixObject
{
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::vector<std::uint32_t> rowIdx;
    std::vector<std::uint32_t> colIdx;
    std::vector<float> values;

    std::size_t nnz() const { return values.size(); }

    std::uint64_t objectBytes() const;
    void serialize(TextWriter &w, int precision = 3) const;

    /** Binary layout: u32 rows, u32 cols, u32 nnz, then per entry
     *  u32 row, u32 col, f32 value. */
    std::vector<std::uint8_t> toBinary() const;
    static CooMatrixObject fromBinary(
        const std::vector<std::uint8_t> &bytes);

    template <typename Scanner>
    bool parse(Scanner &s);

    bool operator==(const CooMatrixObject &) const = default;
};

// ---------------------------------------------------------------------
// Template definitions (work with TextScanner and StreamingScanner).
// ---------------------------------------------------------------------

template <typename Scanner>
bool
EdgeListObject::parse(Scanner &s, bool with_weights)
{
    std::int64_t v = 0, e = 0;
    if (!s.nextInt64(&v) || !s.nextInt64(&e))
        return false;
    numVertices = static_cast<std::uint32_t>(v);
    weighted = with_weights;
    src.clear();
    dst.clear();
    weight.clear();
    src.reserve(static_cast<std::size_t>(e));
    dst.reserve(static_cast<std::size_t>(e));
    if (with_weights)
        weight.reserve(static_cast<std::size_t>(e));
    for (std::int64_t i = 0; i < e; ++i) {
        std::int64_t a = 0, b = 0;
        if (!s.nextInt64(&a) || !s.nextInt64(&b))
            return false;
        src.push_back(static_cast<std::uint32_t>(a));
        dst.push_back(static_cast<std::uint32_t>(b));
        if (with_weights) {
            std::int64_t w = 0;
            if (!s.nextInt64(&w))
                return false;
            weight.push_back(static_cast<std::int32_t>(w));
        }
    }
    return true;
}

template <typename Scanner>
bool
MatrixObject::parse(Scanner &s)
{
    std::int64_t r = 0, c = 0;
    if (!s.nextInt64(&r) || !s.nextInt64(&c))
        return false;
    rows = static_cast<std::uint32_t>(r);
    cols = static_cast<std::uint32_t>(c);
    values.clear();
    values.reserve(static_cast<std::size_t>(r) *
                   static_cast<std::size_t>(c));
    for (std::int64_t i = 0; i < r * c; ++i) {
        double v = 0.0;
        if (!s.nextNumber(&v, nullptr))
            return false;
        values.push_back(static_cast<float>(v));
    }
    return true;
}

template <typename Scanner>
bool
IntArrayObject::parse(Scanner &s)
{
    std::int64_t n = 0;
    if (!s.nextInt64(&n))
        return false;
    const auto count = static_cast<std::size_t>(n);
    values.clear();
    values.reserve(count);
    // Parse in slices of the reserved space, so a count that the text
    // does not back is never zero-filled.
    while (values.size() < count) {
        const std::size_t done = values.size();
        const std::size_t take = std::min<std::size_t>(count - done, 4096);
        values.resize(done + take);
        const std::size_t got = s.nextInt64s(values.data() + done, take);
        values.resize(done + got);
        if (got < take)
            return false;
    }
    return true;
}

template <typename Scanner>
bool
PointSetObject::parse(Scanner &s)
{
    std::int64_t n = 0, d = 0;
    if (!s.nextInt64(&n) || !s.nextInt64(&d))
        return false;
    dims = static_cast<std::uint32_t>(d);
    coords.clear();
    coords.reserve(static_cast<std::size_t>(n) *
                   static_cast<std::size_t>(d));
    for (std::int64_t i = 0; i < n * d; ++i) {
        double v = 0.0;
        if (!s.nextNumber(&v, nullptr))
            return false;
        coords.push_back(static_cast<float>(v));
    }
    return true;
}

template <typename Scanner>
bool
CooMatrixObject::parse(Scanner &s)
{
    std::int64_t r = 0, c = 0, n = 0;
    if (!s.nextInt64(&r) || !s.nextInt64(&c) || !s.nextInt64(&n))
        return false;
    rows = static_cast<std::uint32_t>(r);
    cols = static_cast<std::uint32_t>(c);
    rowIdx.clear();
    colIdx.clear();
    values.clear();
    rowIdx.reserve(static_cast<std::size_t>(n));
    colIdx.reserve(static_cast<std::size_t>(n));
    values.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t a = 0, b = 0;
        double v = 0.0;
        if (!s.nextInt64(&a) || !s.nextInt64(&b) ||
            !s.nextNumber(&v, nullptr)) {
            return false;
        }
        rowIdx.push_back(static_cast<std::uint32_t>(a));
        colIdx.push_back(static_cast<std::uint32_t>(b));
        values.push_back(static_cast<float>(v));
    }
    return true;
}

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_FORMATS_HH

#include "obs/gauge_series.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace morpheus::obs {

namespace {

/** Exact decimal microseconds for a tick stamp (ticks are ps). */
std::string
tickToUs(sim::Tick t)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / 1'000'000),
                  static_cast<unsigned long long>(t % 1'000'000));
    return buf;
}

/** Deterministic JSON/CSV number: integers stay integral. */
std::string
formatValue(double v)
{
    char buf[64];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    return buf;
}

}  // namespace

GaugeSeries::GaugeSeries(sim::Tick interval) : _interval(interval)
{
    MORPHEUS_ASSERT(interval > 0, "timeline interval must be positive");
}

void
GaugeSeries::setColumns(std::vector<std::string> columns)
{
    MORPHEUS_ASSERT(_rows.empty(),
                    "timeline schema fixed after first record");
    _columns = std::move(columns);
}

void
GaugeSeries::record(const std::vector<double> &values)
{
    MORPHEUS_ASSERT(_started, "timeline not started");
    MORPHEUS_ASSERT(values.size() == _columns.size(),
                    "timeline row width mismatch: ", values.size(),
                    " values for ", _columns.size(), " columns");
    _rows.push_back({_next, values});
    _next += _interval;
}

void
GaugeSeries::writeJson(std::ostream &os) const
{
    os << "{\"intervalUs\":" << tickToUs(_interval)
       << ",\"columns\":[";
    for (std::size_t i = 0; i < _columns.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << _columns[i] << "\"";
    }
    os << "],\"rows\":[";
    for (std::size_t r = 0; r < _rows.size(); ++r) {
        if (r)
            os << ",";
        os << "\n{\"t_us\":" << tickToUs(_rows[r].at)
           << ",\"values\":[";
        for (std::size_t i = 0; i < _rows[r].values.size(); ++i) {
            if (i)
                os << ",";
            os << formatValue(_rows[r].values[i]);
        }
        os << "]}";
    }
    os << (_rows.empty() ? "]}\n" : "\n]}\n");
}

void
GaugeSeries::writeCsv(std::ostream &os) const
{
    os << "t_us";
    for (const std::string &c : _columns)
        os << "," << c;
    os << "\n";
    for (const Row &row : _rows) {
        os << tickToUs(row.at);
        for (const double v : row.values)
            os << "," << formatValue(v);
        os << "\n";
    }
}

}  // namespace morpheus::obs

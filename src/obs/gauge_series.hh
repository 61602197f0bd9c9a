/**
 * @file
 * Time-series telemetry: periodic simulated-time snapshots.
 *
 * A GaugeSeries samples a caller-defined row of gauges (queue depth,
 * backlog bytes, D-SRAM occupancy, cache hit rate, fault counters,
 * per-tenant throughput, ...) on a fixed simulated-time cadence. The
 * serving driver polls due()/record() from its event loop, so rows
 * land at exact interval boundaries regardless of event spacing.
 * Export as JSON ({"intervalUs", "columns", "rows"}) or CSV for
 * plotting. Pure observation: sampling reads state, never mutates it.
 */

#ifndef MORPHEUS_OBS_GAUGE_SERIES_HH
#define MORPHEUS_OBS_GAUGE_SERIES_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace morpheus::obs {

class GaugeSeries
{
  public:
    /** @param interval  Sampling cadence in sim ticks (> 0). */
    explicit GaugeSeries(sim::Tick interval);

    /** Define the row schema; call once before the first record(). */
    void setColumns(std::vector<std::string> columns);
    const std::vector<std::string> &columns() const { return _columns; }

    /** Anchor the first sample at @p origin (usually 0). */
    void start(sim::Tick origin) { _next = origin; _started = true; }

    /** True when sim time has reached the next sample point. */
    bool due(sim::Tick now) const { return _started && now >= _next; }

    /** The tick the next row will be stamped with. */
    sim::Tick nextSampleAt() const { return _next; }

    /**
     * Record one row stamped at the pending sample tick and advance
     * the cadence. @p values must match the column count.
     */
    void record(const std::vector<double> &values);

    struct Row
    {
        sim::Tick at = 0;
        std::vector<double> values;
    };

    const std::vector<Row> &rows() const { return _rows; }
    sim::Tick interval() const { return _interval; }

    /** {"intervalUs":..,"columns":[..],"rows":[{"t_us":..,"values":[..]}]} */
    void writeJson(std::ostream &os) const;

    /** "t_us,<col>,..." header then one line per row. */
    void writeCsv(std::ostream &os) const;

  private:
    sim::Tick _interval;
    sim::Tick _next = 0;
    bool _started = false;
    std::vector<std::string> _columns;
    std::vector<Row> _rows;
};

}  // namespace morpheus::obs

#endif  // MORPHEUS_OBS_GAUGE_SERIES_HH

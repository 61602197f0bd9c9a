#include "sim/timeline.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace morpheus::sim {

namespace {

/** Spans walked back from the tail before the binary-search fallback. */
constexpr std::size_t kWalkBack = 64;

}  // namespace

std::size_t
Timeline::firstAfter(Tick t) const
{
    std::size_t i = _busy.size();
    const std::size_t stop = i > kWalkBack ? i - kWalkBack : 0;
    while (i > stop && _busy[i - 1].first > t)
        --i;
    if (i == stop && i > 0 && _busy[i - 1].first > t) {
        const auto it = std::upper_bound(
            _busy.begin(), _busy.begin() + static_cast<std::ptrdiff_t>(i),
            t, [](Tick v, const auto &span) { return v < span.first; });
        i = static_cast<std::size_t>(it - _busy.begin());
    }
    return i;
}

Tick
Timeline::acquire(Tick earliest, Tick duration)
{
    ++_ops;
    if (duration == 0)
        return earliest;
    _busyTicks += duration;

    // Candidate start: after any interval covering `earliest`.
    Tick t = earliest;
    std::size_t i = firstAfter(t);
    if (i > 0 && _busy[i - 1].second > t)
        t = _busy[i - 1].second;
    // Slide over intervals until a gap of `duration` opens.
    while (i < _busy.size() && _busy[i].first < t + duration) {
        t = _busy[i].second;
        ++i;
    }

    // Insert [t, t + duration) before span i, merging with adjacent
    // spans.
    const Tick end = t + duration;
    const bool join_prev = i > 0 && _busy[i - 1].second == t;
    const bool join_next = i < _busy.size() && _busy[i].first == end;
    const auto at = _busy.begin() + static_cast<std::ptrdiff_t>(i);
    if (join_prev && join_next) {
        _busy[i - 1].second = _busy[i].second;
        _busy.erase(at);
    } else if (join_prev) {
        _busy[i - 1].second = end;
    } else if (join_next) {
        _busy[i].first = t;
    } else {
        _busy.insert(at, {t, end});
    }
    return t;
}

TimelineBank::TimelineBank(std::string name, unsigned count)
    : _name(std::move(name))
{
    MORPHEUS_ASSERT(count > 0, "TimelineBank needs at least one unit: ",
                    _name);
    _units.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        _units.emplace_back(_name + "[" + std::to_string(i) + "]");
}

Tick
TimelineBank::acquire(Tick earliest, Tick duration, unsigned *unit)
{
    unsigned best = 0;
    Tick best_free = _units[0].freeAt();
    for (unsigned i = 1; i < _units.size(); ++i) {
        if (_units[i].freeAt() < best_free) {
            best_free = _units[i].freeAt();
            best = i;
        }
    }
    if (unit)
        *unit = best;
    return _units[best].acquire(earliest, duration);
}

Tick
TimelineBank::totalBusyTicks() const
{
    Tick total = 0;
    for (const auto &u : _units)
        total += u.busyTicks();
    return total;
}

}  // namespace morpheus::sim

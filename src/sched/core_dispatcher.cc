#include "sched/core_dispatcher.hh"

#include <algorithm>
#include <limits>
#include <tuple>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace morpheus::sched {

CoreDispatcher::CoreDispatcher(const SchedConfig &config,
                               unsigned num_cores, LoadProbe probe,
                               DsramProbe dsram_probe,
                               std::string track_prefix)
    : _config(config), _numCores(num_cores), _probe(std::move(probe)),
      _dsramProbe(std::move(dsram_probe)),
      _trackPrefix(std::move(track_prefix)), _residents(num_cores, 0),
      _pendingBytes(num_cores, 0)
{
    MORPHEUS_ASSERT(num_cores > 0, "dispatcher needs at least one core");
}

namespace {

/** Dispatcher decisions are point events on one shared track. */
void
recordDispatch(const std::string &prefix, const char *name, sim::Tick at,
               std::uint32_t instance, unsigned core)
{
    if (auto *sink = obs::traceSink()) {
        obs::recordInstant(*sink, prefix + "sched.dispatcher", name,
                           "sched", at,
                           {.instance = instance, .core = core});
    }
}

}  // namespace

sim::Tick
CoreDispatcher::backlog(unsigned core, sim::Tick now) const
{
    const sim::Tick free_at = _probe(core);
    return free_at > now ? free_at - now : 0;
}

bool
CoreDispatcher::fitsDsram(unsigned core, std::uint32_t dsram_needed) const
{
    return dsram_needed == 0 || !_dsramProbe ||
           _dsramProbe(core) >= dsram_needed;
}

unsigned
CoreDispatcher::leastLoadedCore(sim::Tick now,
                                std::uint32_t dsram_needed) const
{
    // A core without room for the instance's D-SRAM grant would bounce
    // the MINIT, so fit leads. Resident-instance count follows: a host
    // session only keeps about one MREAD batch reserved on its core's
    // timeline at a time, so between batches a core hosting a huge
    // in-flight stream reports a near-zero backlog. The instantaneous
    // timeline backlog only breaks ties.
    unsigned best = 0;
    auto best_key = std::make_tuple(
        true, std::numeric_limits<unsigned>::max(),
        std::numeric_limits<sim::Tick>::max(), 0u);
    for (unsigned c = 0; c < _numCores; ++c) {
        const auto key = std::make_tuple(!fitsDsram(c, dsram_needed),
                                         _residents[c], backlog(c, now),
                                         c);
        if (key < best_key) {
            best_key = key;
            best = c;
        }
    }
    return best;
}

unsigned
CoreDispatcher::placeInstance(std::uint32_t instance, sim::Tick now,
                              std::uint32_t dsram_needed,
                              std::uint64_t declared_bytes)
{
    // A live instance keeps its placement (all packets with one
    // instance ID go to one core until it migrates or deinits).
    const auto it = _coreOf.find(instance);
    if (it != _coreOf.end())
        return it->second;
    const unsigned core = _config.placement == PlacementPolicy::kStatic
                              ? instance % _numCores
                              : leastLoadedCore(now, dsram_needed);
    _coreOf[instance] = core;
    _dsramOf[instance] = dsram_needed;
    _bytesOf[instance] = declared_bytes;
    ++_residents[core];
    _pendingBytes[core] += declared_bytes;
    ++_placements;
    recordDispatch(_trackPrefix, "place", now, instance, core);
    return core;
}

void
CoreDispatcher::noteServedBytes(std::uint32_t instance,
                                std::uint64_t bytes)
{
    const auto it = _bytesOf.find(instance);
    if (it == _bytesOf.end() || it->second == 0)
        return;
    // Hosts may stream more than they declared; never underflow.
    const std::uint64_t served = std::min(it->second, bytes);
    it->second -= served;
    _pendingBytes[coreOf(instance)] -= served;
}

CoreDispatcher::ChunkPlacement
CoreDispatcher::coreForChunk(std::uint32_t instance, sim::Tick now)
{
    const unsigned current = coreOf(instance);
    ChunkPlacement placement{current, false, current};
    if (_config.placement != PlacementPolicy::kLoadAware ||
        !_config.migration) {
        return placement;
    }

    const auto need_it = _dsramOf.find(instance);
    const std::uint32_t need =
        need_it != _dsramOf.end() ? need_it->second : 0;
    const unsigned best = leastLoadedCore(now, need);
    if (best == current)
        return placement;
    // A target without room for the instance's grant would only waste
    // a cancelled migration (its own reservation stays on `current`,
    // so the free-bytes probe is accurate for every other core).
    if (!fitsDsram(best, need))
        return placement;
    const sim::Tick here = backlog(current, now);
    const sim::Tick there = backlog(best, now);
    if (here <= there || here - there < _config.migrationMinGain)
        return placement;

    --_residents[current];
    ++_residents[best];
    const std::uint64_t pending = _bytesOf[instance];
    _pendingBytes[current] -= pending;
    _pendingBytes[best] += pending;
    _coreOf[instance] = best;
    ++_migrations;
    recordDispatch(_trackPrefix, "migrate", now, instance, best);
    return ChunkPlacement{best, true, current};
}

void
CoreDispatcher::cancelMigration(std::uint32_t instance, unsigned previous,
                                sim::Tick now)
{
    const unsigned current = coreOf(instance);
    MORPHEUS_ASSERT(current != previous,
                    "cancelMigration without a pending migration");
    --_residents[current];
    ++_residents[previous];
    const std::uint64_t pending = _bytesOf[instance];
    _pendingBytes[current] -= pending;
    _pendingBytes[previous] += pending;
    _coreOf[instance] = previous;
    ++_migrationsCancelled;
    recordDispatch(_trackPrefix, "migrate_cancel", now, instance, previous);
}

void
CoreDispatcher::releaseInstance(std::uint32_t instance)
{
    const auto it = _coreOf.find(instance);
    if (it == _coreOf.end())
        return;
    MORPHEUS_ASSERT(_residents[it->second] > 0,
                    "resident count underflow");
    --_residents[it->second];
    const auto bytes_it = _bytesOf.find(instance);
    if (bytes_it != _bytesOf.end()) {
        // A stream may end before serving its full declaration (errors,
        // early MDEINIT): clear the residue from the packing signal.
        _pendingBytes[it->second] -= bytes_it->second;
        _bytesOf.erase(bytes_it);
    }
    _coreOf.erase(it);
    _dsramOf.erase(instance);
}

unsigned
CoreDispatcher::coreOf(std::uint32_t instance) const
{
    const auto it = _coreOf.find(instance);
    MORPHEUS_ASSERT(it != _coreOf.end(),
                    "coreOf() on an unplaced instance");
    return it->second;
}

void
CoreDispatcher::registerStats(sim::stats::StatSet &set,
                              const std::string &prefix) const
{
    set.registerCounter(prefix + ".placements", &_placements);
    set.registerCounter(prefix + ".migrations", &_migrations);
    set.registerCounter(prefix + ".migrationsCancelled",
                        &_migrationsCancelled);
}

}  // namespace morpheus::sched

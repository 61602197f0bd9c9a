/**
 * @file
 * Per-tenant command-queue front end: admission control over MINIT
 * instances plus weighted deficit arbitration of the data path.
 *
 * Admission tracks in-flight instances per tenant and device-wide.
 * Completed instances are remembered with their completion ticks, so a
 * queued MINIT can be started exactly when a slot frees; an instance
 * that is still open (its MDEINIT has not executed yet) has an unknown
 * completion, in which case a queued MINIT is bounced back to the host
 * with a retry indication (NVMe-style backpressure).
 *
 * Arbitration approximates weighted deficit round robin under the
 * simulator's walk order: each tenant accrues served bytes, and a
 * tenant that runs more than one (weight-scaled) quantum ahead of its
 * fair share of the backlogged set is paced by delaying its next
 * command, with the delay derived from the observed device service
 * rate and clamped to SchedConfig::drrMaxDelay (starvation freedom).
 * Backlog is declared in-band: MINIT carries the stream's byte length
 * (in its otherwise unused SLBA field), the arbiter drains it as data
 * commands arrive, and clears any residue when the instance ends —
 * state a real controller front end sees on its submission queues.
 */

#ifndef MORPHEUS_SCHED_TENANT_ARBITER_HH
#define MORPHEUS_SCHED_TENANT_ARBITER_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/sched_config.hh"
#include "sim/stats.hh"

namespace morpheus::sched {

/** Outcome of an instance admission request. */
struct AdmitDecision
{
    sim::Tick start = 0;    ///< Earliest tick the MINIT may start.
    bool rejected = false;  ///< Terminal refusal (kReject policy).
    bool retry = false;     ///< Slot held by an open instance: retry.
};

/** The multi-tenant front end of the Morpheus command path. */
class TenantArbiter
{
  public:
    explicit TenantArbiter(const SchedConfig &config);

    /** Relative service weight of @p tenant (default 1.0). */
    void setTenantWeight(std::uint32_t tenant, double weight);

    // ------------------------------------------------ instance path

    /**
     * Admit one MINIT for @p tenant arriving at @p arrival, declaring
     * @p backlog_bytes of upcoming stream data. Admission registers
     * the instance->tenant mapping used by the data path. Arrivals
     * must be non-decreasing in time.
     */
    AdmitDecision admitInstance(std::uint32_t tenant,
                                std::uint32_t instance,
                                sim::Tick arrival,
                                std::uint64_t backlog_bytes = 0);

    /** The instance's MDEINIT completed at @p done. */
    void onInstanceDone(std::uint32_t instance, sim::Tick done);

    /** The instance's MINIT failed after admission: free its slot. */
    void dropInstance(std::uint32_t instance);

    /** Tenant owning @p instance (kNoTenant when unknown). */
    std::uint32_t tenantOf(std::uint32_t instance) const;

    static constexpr std::uint32_t kNoTenant = 0xFFFFFFFFu;

    // ------------------------------------------------ data path

    /**
     * Admit one MREAD/MWRITE of @p bytes for @p instance arriving at
     * @p arrival. @return the tick the command may start (>= arrival).
     */
    sim::Tick admitData(std::uint32_t instance, std::uint64_t bytes,
                        sim::Tick arrival);

    /** Service feedback: a data command of @p bytes ran [start, done).
     */
    void onDataDone(std::uint64_t bytes, sim::Tick start,
                    sim::Tick done);

    /** Declared-but-unserved bytes of @p tenant (for tests). */
    std::int64_t backlogOf(std::uint32_t tenant) const;

    /** Declared-but-unserved bytes of one instance (0 when unknown) —
     *  the in-band MINIT SLBA declaration minus the data commands seen
     *  since. */
    std::uint64_t declaredBacklog(std::uint32_t instance) const;

    /** Device-wide declared-but-unserved bytes over every open
     *  instance — the overload valve's saturation signal. */
    std::uint64_t totalDeclaredBacklog() const;

    /**
     * NVMe-style retry-after hint, in microseconds, for a bounced
     * command (kInstanceBusy / kDsramExhausted). Estimates when device
     * pressure will ease: the total declared-but-unserved backlog at
     * the observed data-path service rate, amortized over the open
     * instances draining it. Falls back to a fixed 50 us before any
     * service-rate observation exists. Clamped to [1, 65535] so it
     * always fits a CQE DW0 and a zero hint still means "no hint".
     */
    std::uint32_t retryAfterHintUs() const;

    // ------------------------------------------------ observability

    std::uint64_t instancesAdmitted() const { return _admitted.value(); }
    std::uint64_t instancesRejected() const { return _rejected.value(); }
    std::uint64_t instancesQueued() const { return _queued.value(); }
    std::uint64_t dataDelays() const { return _drrDelays.value(); }
    unsigned openInstances() const { return _openTotal; }

    void registerStats(sim::stats::StatSet &set,
                       const std::string &prefix) const;

  private:
    struct Tenant
    {
        double weight = 1.0;
        std::uint64_t servedBytes = 0;  ///< Current arbitration epoch.
        std::int64_t backlogBytes = 0;
        unsigned open = 0;  ///< Admitted, completion tick unknown.
        /** Completion ticks of finished instances not yet pruned. */
        std::multiset<sim::Tick> closedDone;
    };

    Tenant &tenant(std::uint32_t id);
    /** Drop remembered completions at or before @p arrival. */
    static void prune(std::multiset<sim::Tick> &done, sim::Tick arrival);
    /** Forget the instance; return its declared backlog residue. */
    void releaseInstance(std::uint32_t instance);

    const SchedConfig _config;
    std::map<std::uint32_t, Tenant> _tenants;
    std::unordered_map<std::uint32_t, std::uint32_t> _instanceTenant;
    /** Declared stream bytes not yet seen as data commands. */
    std::unordered_map<std::uint32_t, std::uint64_t> _instanceBacklog;
    unsigned _openTotal = 0;
    std::multiset<sim::Tick> _closedDoneAll;

    /** Arbitration epoch: reset whenever the backlogged set changes. */
    std::vector<std::uint32_t> _backloggedSet;
    std::uint64_t _totalServedBytes = 0;
    double _ewmaBytesPerTick = 0.0;

    sim::stats::Counter _admitted;
    sim::stats::Counter _rejected;
    sim::stats::Counter _queued;
    sim::stats::Counter _queuedDelayTicks;
    sim::stats::Counter _drrDelays;
    sim::stats::Counter _drrDelayTicks;
};

}  // namespace morpheus::sched

#endif  // MORPHEUS_SCHED_TENANT_ARBITER_HH

/**
 * @file
 * Fluid-flow network model with max-min fair bandwidth sharing.
 *
 * This is the stand-in for the paper's EC2 testbed. Every node link
 * (uplink, downlink) and disk is a Resource with a capacity in
 * bytes/second; every transfer (a foreground request, a repair slice,
 * a chunk hop) is a Flow traversing an ordered set of resources. At
 * any instant, flow rates are the max-min fair allocation (progressive
 * filling), the standard fluid abstraction of TCP sharing on
 * datacenter links. Rates are piecewise constant between events.
 *
 * Rate maintenance is incremental and deferred (see DESIGN.md §5g): a
 * flow start, finish, cancel, or capacity change only records the
 * resources it touched. One solve per simulated instant then re-rates
 * the connected component(s) reachable from those resources through
 * shared flows — the only region whose bottleneck structure can
 * change — while every other flow keeps its rate bit-for-bit. The
 * solve runs from the simulator's pre-advance hook, just before time
 * moves, or earlier when a rate is read (flowRate, currentTagRate).
 * Flow progress is integrated lazily per flow (each flow remembers
 * the last instant it was integrated and its rate is constant since),
 * and completions come from an intrusive min-heap of predicted
 * completion times instead of an all-flows scan. Setting the
 * environment variable CHAMELEON_SIM_REFERENCE_SOLVER=1 (or calling
 * setReferenceSolver(true)) makes every solve the from-scratch global
 * one as a differential oracle; both modes produce byte-identical
 * rates, event orders, and experiment output.
 *
 * Per-resource, per-tag byte accounting feeds the paper's
 * measurements: foreground-bandwidth fluctuation (Fig. 5), most/least
 * loaded links (Fig. 6), and the residual-bandwidth estimates
 * ChameleonEC's dispatcher consumes.
 */

#ifndef CHAMELEON_SIM_FLOW_NETWORK_HH_
#define CHAMELEON_SIM_FLOW_NETWORK_HH_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hh"
#include "telemetry/metrics.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace chameleon {
namespace sim {

/** Identifier of a capacity-constrained resource. */
using ResourceId = int32_t;

/** Identifier of an active or completed flow. */
using FlowId = int64_t;

inline constexpr ResourceId kInvalidResource = -1;
inline constexpr FlowId kInvalidFlow = -1;

/** Classification used for accounting and monitoring. */
enum class FlowTag : int {
    kForeground = 0,
    kRepair = 1,
    /** Background integrity scrub reads (cluster::ScrubScanner). */
    kScrub = 2,
};

inline constexpr int kNumFlowTags = 3;

/**
 * Optional provenance attached to a flow for telemetry: which repair
 * (group), which DAG vertex produced the payload, and which slice
 * index it carries. Unset fields stay -1 and are omitted from the
 * trace span, so unlabeled flows trace exactly as before.
 */
struct FlowLabel
{
    int64_t group = -1;
    int32_t vertex = -1;
    int32_t slice = -1;

    bool empty() const
    {
        return group < 0 && vertex < 0 && slice < 0;
    }
};

/** Max-min fair fluid network; see file comment. */
class FlowNetwork
{
  public:
    /** Flow-completion callback; small captures stay inline. */
    using Callback = Simulator::Callback;

    /**
     * @param sim           the owning event loop.
     * @param usage_window  window for per-resource bandwidth
     *                      accounting (the paper uses 15 s windows).
     *
     * Registers the simulator's pre-advance hook, so a simulator
     * carries at most one FlowNetwork at a time.
     */
    explicit FlowNetwork(Simulator &sim, SimTime usage_window = 15.0);

    /** Unregisters the pre-advance hook and the completion event. */
    ~FlowNetwork();

    FlowNetwork(const FlowNetwork &) = delete;
    FlowNetwork &operator=(const FlowNetwork &) = delete;

    /** Registers a resource; capacity in bytes/second. */
    ResourceId addResource(std::string name, Rate capacity);

    /** Sizes the resource table for `count` resources up front, so
     * registering them never reallocates it. */
    void reserveResources(std::size_t count)
    {
        resources_.reserve(count);
    }

    std::size_t resourceCount() const { return resources_.size(); }
    const std::string &resourceName(ResourceId id) const;
    Rate capacity(ResourceId id) const;

    /** Changes capacity (straggler/throttle injection); the affected
     * component is re-solved before time advances. */
    void setCapacity(ResourceId id, Rate capacity);

    /**
     * Starts a flow of `size` bytes across `path` (resources are
     * traversed conceptually in order but share rate simultaneously,
     * as in a cut-through fluid model).
     *
     * @param on_complete  invoked (once) when the last byte arrives.
     * @return the flow id (valid until completion/cancellation).
     */
    FlowId startFlow(std::vector<ResourceId> path, Bytes size,
                     FlowTag tag, Callback on_complete);

    /** As above, tagging the flow's trace span with `label` (the
     * slice-pipelined DAG executor labels every slice hop). */
    FlowId startFlow(std::vector<ResourceId> path, Bytes size,
                     FlowTag tag, const FlowLabel &label,
                     Callback on_complete);

    /**
     * Cancels an active flow. Cancelling an id that is not active
     * (already completed or never started) is a cheap no-op.
     * @return bytes that had not yet been transferred.
     */
    Bytes cancelFlow(FlowId id);

    bool flowActive(FlowId id) const;

    /** Remaining bytes of an active flow, exact at the current
     * instant (the flow is lazily integrated on read). */
    Bytes flowRemaining(FlowId id) const;

    /** Current allocated rate of an active flow (bytes/s); solves
     * pending changes first. */
    Rate flowRate(FlowId id) const;

    /** Number of currently active flows. */
    std::size_t activeFlowCount() const { return flows_.size(); }

    /**
     * Integrates all flow progress up to the current simulator time.
     *
     * Per-flow progress is integrated lazily (only when a flow's
     * rate changes), so queries of per-resource byte counters made
     * from an unrelated event (e.g. a monitor tick) should call
     * sync() first to observe exact byte counts.
     */
    void sync();

    /** Cumulative bytes moved through `id` by flows tagged `tag`. */
    Bytes taggedBytes(ResourceId id, FlowTag tag) const;

    /** Windowed usage recorder for (resource, tag). */
    const WindowedUsage &usage(ResourceId id, FlowTag tag) const;

    /** Instantaneous aggregate rate of `tag` flows through `id`;
     * O(1) via incrementally maintained per-tag sums (after solving
     * pending changes). */
    Rate currentTagRate(ResourceId id, FlowTag tag) const;

    /** Count of active flows through `id`. */
    std::size_t activeFlowsOn(ResourceId id) const;

    /**
     * Makes every solve the from-scratch global max-min solve (the
     * debug oracle the incremental solver is differentially tested
     * against). Also enabled by the environment variable
     * CHAMELEON_SIM_REFERENCE_SOLVER=1 at construction.
     */
    void setReferenceSolver(bool on) { referenceSolver_ = on; }
    bool referenceSolver() const { return referenceSolver_; }

  private:
    struct Flow
    {
        FlowId id;
        std::vector<ResourceId> path;
        Bytes remaining;
        Rate rate = 0.0;
        FlowTag tag;
        Callback onComplete;
        /** Telemetry: launch time and original size for flow spans. */
        SimTime start = 0.0;
        Bytes size = 0.0;
        /** Optional per-slice provenance for the trace span. */
        FlowLabel label;
        /** Progress is integrated up to here; the rate has been
         * constant since (lazy integration). */
        SimTime syncTime = 0.0;
        /** Rate before the current solve (scratch). */
        Rate prevRate = 0.0;
        /** Predicted completion instant (completion-heap key);
         * kTimeNever while stalled. */
        SimTime eta = kTimeNever;
        /** Position in the completion heap; -1 = not enqueued. */
        int32_t heapPos = -1;
        /** Dirty-set traversal epoch (solve-internal). */
        uint64_t mark = 0;
    };

    struct Resource
    {
        std::string name;
        Rate capacity;
        /** Flows currently crossing this resource. Pointers into
         * flows_ (stable: unordered_map never moves nodes), so the
         * progressive-filling loop walks flows directly instead of
         * hashing ids per visit. */
        std::vector<Flow *> active;
        Bytes taggedBytes[kNumFlowTags] = {0.0, 0.0, 0.0};
        WindowedUsage usage[kNumFlowTags];
        /** Incrementally maintained per-tag rate sums and flow
         * counts; the sum snaps to exactly 0 when the count does,
         * so FP dust never accumulates on idle links. */
        Rate tagRate[kNumFlowTags] = {0.0, 0.0, 0.0};
        int32_t tagCount[kNumFlowTags] = {0, 0, 0};
        /** Dirty-set traversal epoch (solve-internal). */
        uint64_t mark = 0;
        /** Already in pendingSeeds_. */
        bool seeded = false;
        /** Progressive-filling scratch (solve-internal). `fair`
         * caches max(residual, 0) / unfrozen (+inf at 0 unfrozen),
         * recomputed wherever a freeze changes either, so the
         * bottleneck scan divides nothing. */
        Rate residual = 0.0;
        std::size_t unfrozen = 0;
        Rate fair = 0.0;
        /** Carries a flow the current solve re-rated, so its per-tag
         * rate sums need a refresh (solve-internal). */
        bool tagsStale = false;

        Resource(std::string n, Rate c, SimTime window)
            : name(std::move(n)), capacity(c),
              usage{WindowedUsage(window), WindowedUsage(window),
                    WindowedUsage(window)}
        {
        }
    };

    /**
     * Integrates one flow's progress over [flow.syncTime, now] at
     * `rate` (its rate over that interval) and advances syncTime.
     * @return the instant the last integrated byte arrived (used as
     *         the exact completion time for trace spans).
     */
    SimTime integrateFlow(Flow &flow, SimTime now, Rate rate);

    /** Records a changed resource for the next solve. */
    void addSeed(ResourceId r)
    {
        Resource &res = resources_[static_cast<std::size_t>(r)];
        if (res.seeded)
            return;
        res.seeded = true;
        pendingSeeds_.push_back(r);
    }
    void addSeeds(const std::vector<ResourceId> &path)
    {
        for (ResourceId r : path)
            addSeed(r);
    }

    /**
     * If any change is pending, re-solves the max-min allocation of
     * the connected component(s) reachable from the pending seeds,
     * one component at a time, then reschedules the next completion.
     * In reference-solver mode the dirty set is the whole network.
     * The pre-advance hook and the rate readers call it.
     * @return true if it solved.
     */
    bool resolve();

    /**
     * Progressive filling over dirtyRes_/dirtyFlows_ (one component,
     * or the whole network; either in any order: the bottleneck is
     * the least (fair share, resource index)). Integrates and
     * re-keys, in flow-id order, only the flows whose rate changed
     * across the instant, and refreshes the per-tag rate sums of the
     * resources whose sums can have moved: the seeded ones (their
     * active lists changed) and those carrying a re-rated flow. In
     * reference-solver mode every dirty resource is refreshed.
     */
    void solveDirty(SimTime now);

    /** Stages the completion of a finished flow: callback, counters,
     * trace span, detach, erase. `flow` is dead afterwards. */
    void completeFlow(Flow &flow, SimTime end);

    /** Removes the flow from its resources' active lists and per-tag
     * sums, and from the completion heap. */
    void detachFlow(Flow &flow);

    void scheduleNextCompletion();
    void onCompletionEvent();
    void dispatchPending();

    /** Completion-heap primitives (binary heap ordered by (eta, id),
     * positions tracked intrusively in Flow::heapPos). */
    bool heapLess(const Flow *a, const Flow *b) const
    {
        if (a->eta != b->eta)
            return a->eta < b->eta;
        return a->id < b->id;
    }
    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);
    void heapUpdate(Flow *flow);
    void heapRemove(Flow *flow);

    /** Emits the Chrome-trace span of a finished/cancelled flow. */
    void traceFlowSpan(const Flow &flow, SimTime end, bool cancelled);

    Simulator &sim_;
    SimTime usageWindow_;
    /** Metric handles (resolved once; updates are single adds). */
    telemetry::Counter &flowsStarted_;
    telemetry::Counter &flowsCompleted_;
    telemetry::Counter &flowsCancelled_;
    telemetry::Gauge &flowsActive_;
    telemetry::Counter &rateRecomputes_;
    telemetry::Counter &rateRecomputeVisits_;
    telemetry::Counter &dirtyResourceVisits_;
    telemetry::Counter &reratedFlows_;
    telemetry::Counter &capacityChanges_;
    std::vector<Resource> resources_;
    std::unordered_map<FlowId, Flow> flows_;
    FlowId nextFlowId_ = 0;
    EventHandle completionEvent_;
    /** Absolute time the pending completion event targets. */
    SimTime completionEventAt_ = kTimeNever;
    /** Resources changed since the last solve (deduplicated by
     * Resource::seeded). */
    std::vector<ResourceId> pendingSeeds_;
    /** Completion callbacks staged during integration. */
    std::vector<Callback> pendingCallbacks_;
    bool dispatching_ = false;
    bool referenceSolver_ = false;
    /** Dirty-set traversal epoch; bumped per solve. */
    uint64_t epoch_ = 0;
    /** Min-heap of active flows by predicted completion time. */
    std::vector<Flow *> heap_;
    /** Solve scratch, reused across solves (allocation-light). */
    std::vector<Resource *> dirtyRes_;
    std::vector<Flow *> dirtyFlows_;
    /** Flows whose rate the current solve changed. */
    std::vector<Flow *> rerated_;
    std::vector<Resource *> bfsStack_;
};

} // namespace sim
} // namespace chameleon

#endif // CHAMELEON_SIM_FLOW_NETWORK_HH_

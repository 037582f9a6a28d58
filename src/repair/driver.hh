/**
 * @file
 * The lifecycle every repair driver shares. ChameleonScheduler,
 * RepairSession and HedgedReadManager are policies over the same
 * contract: start on a work list (or start empty and be fed later
 * through enqueue(), the ReplicatorScanner admission path), absorb
 * mid-repair node crashes, and report each chunk's terminal outcome
 * exactly once. This base owns the bookkeeping of that contract —
 * start/finish times, chunk counters, the unrecoverable list, the
 * per-stripe destination reservations and the outcome hook — so the
 * runtime wires one driver whichever policy runs.
 */

#ifndef CHAMELEON_REPAIR_DRIVER_HH_
#define CHAMELEON_REPAIR_DRIVER_HH_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/stripe_manager.hh"
#include "repair/executor.hh"

namespace chameleon {
namespace repair {

/** Common repair-driver lifecycle; see file comment. */
class RepairDriver
{
  public:
    /** Terminal per-chunk outcome notification: fired once per
     * chunk, with repaired=true on success and false when the chunk
     * lands in the unrecoverable list. */
    using OutcomeFn = std::function<void(
        const cluster::FailedChunk &, bool repaired)>;

    virtual ~RepairDriver() = default;
    RepairDriver(const RepairDriver &) = delete;
    RepairDriver &operator=(const RepairDriver &) = delete;

    /**
     * Starts the driver on `pending` (FIFO order). An empty list
     * starts it idle: chunks then arrive through enqueue().
     */
    void start(std::vector<cluster::FailedChunk> pending = {});

    /** Adds admitted chunks to the work (after start()). */
    virtual void enqueue(
        const std::vector<cluster::FailedChunk> &chunks) = 0;

    /**
     * Absorbs a mid-repair node crash. Call after the stripe manager
     * and cluster already marked the node dead: aborts in-flight
     * work touching it and queues `newly_lost`, the chunks the crash
     * destroyed.
     */
    virtual void onNodeCrash(
        NodeId node,
        const std::vector<cluster::FailedChunk> &newly_lost) = 0;

    /** Installs the terminal-outcome hook; call before work runs. */
    void setOutcomeHook(OutcomeFn fn) { outcomeHook_ = std::move(fn); }

    /** True once every chunk is repaired or unrecoverable. A later
     * crash or enqueue can add work and make the driver active
     * again. */
    bool finished() const;

    SimTime startTime() const { return startTime_; }
    SimTime finishTime() const { return finishTime_; }
    int chunksRepaired() const { return chunksRepaired_; }
    int chunksUnrecoverable() const
    {
        return static_cast<int>(unrecoverable_.size());
    }
    const std::vector<cluster::FailedChunk> &unrecoverable() const
    {
        return unrecoverable_;
    }
    /** All chunks ever queued (initial failures + crash losses). */
    int totalChunks() const { return totalChunks_; }
    /** Chunk repairs aborted by crashes and re-queued. */
    int crashReplans() const { return crashReplans_; }

    /** Repaired bytes per second over the whole run. */
    Rate throughput() const;

  protected:
    /** `metric_prefix` names the driver's counters
     * (`<prefix>.unrecoverable`, `<prefix>.crash_replans`). */
    RepairDriver(cluster::StripeManager &stripes,
                 RepairExecutor &executor, std::string metric_prefix);

    sim::Simulator &simulator() const
    {
        return executor_.cluster().simulator();
    }
    bool started() const { return started_; }

    /** Counts `count` newly queued chunks. */
    void noteQueued(std::size_t count)
    {
        totalChunks_ += static_cast<int>(count);
    }
    /** Counts a repaired chunk and fires the outcome hook. Call
     * after the stripe map records the repair and before the
     * finished() check: the hook may feed new work back in. */
    void noteRepaired(const cluster::FailedChunk &chunk);
    /** Moves `chunk` to the unrecoverable list and fires the
     * outcome hook. */
    void markUnrecoverable(const cluster::FailedChunk &chunk);
    /** Counts a crash-aborted repair that is re-queued. */
    void noteCrashReplan();
    /** Stamps the finish time if every chunk is accounted for;
     * returns finished(). */
    bool checkFinished(SimTime when);
    /** Frees `destination` among the stripe's claimed
     * destinations. */
    void releaseReservation(StripeId stripe, NodeId destination);

    cluster::StripeManager &stripes_;
    RepairExecutor &executor_;
    /** Destinations claimed by in-flight repairs, per stripe. */
    std::map<StripeId, std::set<NodeId>> reserved_;

  private:
    std::string metricPrefix_;
    OutcomeFn outcomeHook_;
    std::vector<cluster::FailedChunk> unrecoverable_;
    bool started_ = false;
    SimTime startTime_ = 0.0;
    SimTime finishTime_ = kTimeNever;
    int totalChunks_ = 0;
    int chunksRepaired_ = 0;
    int crashReplans_ = 0;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_DRIVER_HH_

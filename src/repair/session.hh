/**
 * @file
 * Full-node repair session for the baseline algorithms: keeps a
 * bounded window of chunk repairs in flight (as HDFS reconstruction
 * work queues do), builds each chunk's plan through a pluggable plan
 * factory (random baseline or RepairBoost selection), updates stripe
 * metadata as chunks complete, and reports repair throughput.
 *
 * The session survives mid-repair churn: onNodeCrash() aborts every
 * in-flight repair touching the dead node, folds the node's newly
 * lost chunks into the queue, and re-plans aborted chunks against
 * the surviving nodes after a short backoff (bounded retries). A
 * chunk whose stripe no longer has enough surviving helpers — or
 * that keeps getting aborted past the retry budget — lands in the
 * unrecoverable list, a graceful terminal state.
 */

#ifndef CHAMELEON_REPAIR_SESSION_HH_
#define CHAMELEON_REPAIR_SESSION_HH_

#include <deque>
#include <functional>
#include <map>

#include "repair/driver.hh"

namespace chameleon {
namespace repair {

/** Baseline session tuning. */
struct SessionConfig
{
    /**
     * Concurrent chunk repairs. Full-node repair in production
     * systems keeps the cluster saturated with reconstruction work
     * (HDFS runs multiple streams per DataNode); the executor's
     * per-node task slots then bound the actual parallelism, so a
     * generous window here models "repair as fast as the nodes
     * allow".
     */
    int maxInFlight = 64;
    /** Crash-abort re-plans per chunk before giving up on it. */
    int maxRetries = 5;
    /** Delay before a crash-aborted chunk is re-planned, so one
     * crash's burst of aborts settles before replacements launch. */
    SimTime retryBackoff = 1.0;

    bool operator==(const SessionConfig &) const = default;
};

/** Windowed baseline repair runner; see file comment. */
class RepairSession : public RepairDriver
{
  public:
    /**
     * Produces a plan for one failed chunk.
     * @param reserved destinations concurrent repairs of the same
     *                 stripe already claimed.
     */
    using PlanFn = std::function<ChunkRepairPlan(
        const cluster::FailedChunk &,
        const std::vector<NodeId> &reserved)>;

    RepairSession(cluster::StripeManager &stripes,
                  RepairExecutor &executor, PlanFn plan_fn,
                  SessionConfig config = {});

    /**
     * Overrides every chunk's execution topology: instead of running
     * the planner's tree directly, the session rebuilds the plan's
     * source set into `spec`'s DAG shape (chain, PPR, MLF, star) and
     * executes it slice-pipelined via RepairExecutor::launchDag.
     * kAuto (the default) keeps the planner's native tree execution.
     * Non-combinable plans always degrade to the star. Call before
     * start().
     */
    void setDagTopology(const dag::TopologySpec &spec);

    const dag::TopologySpec &dagTopology() const { return topology_; }

    void enqueue(
        const std::vector<cluster::FailedChunk> &chunks) override;
    void onNodeCrash(NodeId node,
                     const std::vector<cluster::FailedChunk>
                         &newly_lost) override;

    /** Chunks waiting to be planned (deferred + backoff included). */
    int pendingCount() const;
    int inFlightCount() const { return inFlight_; }

  private:
    void pump();
    void onChunkDone(const ChunkRepairPlan &plan, SimTime when);
    void onChunkFailed(const ChunkRepairPlan &plan, NodeId cause,
                       SimTime when);
    /** Moves deferred chunks back into the queue (destinations or
     * helpers may have changed). */
    void requeueDeferred();

    PlanFn planFn_;
    SessionConfig config_;
    /** Execution-topology override; kAuto = native tree path. */
    dag::TopologySpec topology_;
    std::deque<cluster::FailedChunk> pending_;
    /** Chunks that currently cannot be planned (no free destination);
     * retried when a repair completes or the cluster changes. */
    std::deque<cluster::FailedChunk> deferred_;
    /** Crash-abort counts per chunk, against maxRetries. */
    std::map<std::pair<StripeId, ChunkIndex>, int> retries_;
    int inFlight_ = 0;
    /** Chunks whose retry backoff timer is pending. */
    int retriesInAir_ = 0;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_SESSION_HH_

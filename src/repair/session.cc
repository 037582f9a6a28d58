#include "repair/session.hh"

#include <algorithm>

#include "repair/dag_bridge.hh"
#include "util/logging.hh"

namespace chameleon {
namespace repair {

RepairSession::RepairSession(cluster::StripeManager &stripes,
                             RepairExecutor &executor, PlanFn plan_fn,
                             SessionConfig config)
    : RepairDriver(stripes, executor, "repair.session"),
      planFn_(std::move(plan_fn)), config_(config)
{
    CHAMELEON_ASSERT(config_.maxInFlight >= 1,
                     "window must be at least 1");
    CHAMELEON_ASSERT(config_.maxRetries >= 0, "negative retry budget");
    CHAMELEON_ASSERT(planFn_ != nullptr, "null plan factory");
}

void
RepairSession::setDagTopology(const dag::TopologySpec &spec)
{
    CHAMELEON_ASSERT(!started(),
                     "topology override after session start");
    topology_ = spec;
}

void
RepairSession::enqueue(
    const std::vector<cluster::FailedChunk> &chunks)
{
    CHAMELEON_ASSERT(started(), "enqueue before session start");
    if (chunks.empty())
        return;
    pending_.insert(pending_.end(), chunks.begin(), chunks.end());
    noteQueued(chunks.size());
    pump();
}

int
RepairSession::pendingCount() const
{
    return static_cast<int>(pending_.size() + deferred_.size()) +
           retriesInAir_;
}

void
RepairSession::requeueDeferred()
{
    while (!deferred_.empty()) {
        pending_.push_back(deferred_.front());
        deferred_.pop_front();
    }
}

void
RepairSession::pump()
{
    while (inFlight_ < config_.maxInFlight && !pending_.empty()) {
        cluster::FailedChunk fc = pending_.front();
        pending_.pop_front();

        // Recoverability gate: fewer surviving helpers than the code
        // needs means no plan can exist (for MDS codes this is
        // permanent — a stripe short of k survivors stays short).
        auto avail = stripes_.availableChunks(fc.stripe);
        auto pool = stripes_.code().helperPool(fc.chunk, avail);
        if (static_cast<int>(pool.candidates.size()) <
            pool.required) {
            markUnrecoverable(fc);
            continue;
        }

        auto &res = reserved_[fc.stripe];
        std::vector<NodeId> reserved(res.begin(), res.end());
        // Destination gate: concurrent repairs of the same stripe
        // may hold every candidate destination; park the chunk until
        // one completes.
        auto dests = stripes_.candidateDestinations(fc.stripe);
        std::erase_if(dests, [&](NodeId d) { return res.count(d); });
        if (dests.empty()) {
            if (res.empty()) {
                // Not even an unreserved cluster has a slot for this
                // stripe: no completion can free one up.
                markUnrecoverable(fc);
            } else {
                deferred_.push_back(fc);
            }
            continue;
        }
        ChunkRepairPlan plan = planFn_(fc, reserved);
        res.insert(plan.destination);

        ++inFlight_;
        auto on_done = [this](const ChunkRepairPlan &p, SimTime t) {
            onChunkDone(p, t);
        };
        auto on_fail = [this](const ChunkRepairPlan &p, NodeId cause,
                              SimTime t) { onChunkFailed(p, cause, t); };
        if (topology_.kind != dag::RepairTopology::kAuto) {
            // Topology override: keep the planner's source set (and
            // coefficients) but execute it in the requested DAG
            // shape, slice-pipelined.
            dag::EcDag d = dag::buildTopologyDag(
                topology_, plan.stripe, plan.failedChunk,
                plan.destination, toDagSources(plan.sources),
                plan.combinable);
            executor_.launchDag(d, plan, std::move(on_done),
                                std::move(on_fail));
        } else {
            executor_.launch(plan, std::move(on_done),
                             std::move(on_fail));
        }
    }
    checkFinished(simulator().now());
}

void
RepairSession::onChunkDone(const ChunkRepairPlan &plan, SimTime when)
{
    --inFlight_;
    stripes_.markRepaired(plan.stripe, plan.failedChunk);
    stripes_.relocate(plan.stripe, plan.failedChunk, plan.destination);
    releaseReservation(plan.stripe, plan.destination);
    noteRepaired({plan.stripe, plan.failedChunk});
    if (checkFinished(when))
        return;
    // A completion frees a destination: parked chunks get another
    // shot at planning.
    requeueDeferred();
    pump();
}

void
RepairSession::onChunkFailed(const ChunkRepairPlan &plan, NodeId cause,
                             SimTime when)
{
    --inFlight_;
    noteCrashReplan();
    releaseReservation(plan.stripe, plan.destination);

    cluster::FailedChunk fc{plan.stripe, plan.failedChunk};
    CHAMELEON_ASSERT(stripes_.chunkLost(fc.stripe, fc.chunk),
                     "aborted chunk is not lost");
    int &attempts = retries_[{fc.stripe, fc.chunk}];
    if (++attempts > config_.maxRetries) {
        markUnrecoverable(fc);
        checkFinished(when);
        return;
    }
    // Re-plan after a backoff so the burst of aborts from one crash
    // settles before replacement plans pick sources.
    ++retriesInAir_;
    simulator().scheduleAfter(
        config_.retryBackoff, [this, fc] {
            --retriesInAir_;
            pending_.push_back(fc);
            pump();
        });
    (void)cause;
}

void
RepairSession::onNodeCrash(
    NodeId node, const std::vector<cluster::FailedChunk> &newly_lost)
{
    CHAMELEON_ASSERT(started(), "crash before session start");
    // Abort doomed in-flight repairs first; each abort lands in
    // onChunkFailed and schedules its own re-plan.
    executor_.abortChunksTouching(node);
    pending_.insert(pending_.end(), newly_lost.begin(),
                    newly_lost.end());
    noteQueued(newly_lost.size());
    // Stripe geometry changed: parked chunks may be plannable now
    // (or newly unrecoverable — pump sorts them).
    requeueDeferred();
    pump();
}

} // namespace repair
} // namespace chameleon

#include "repair/driver.hh"

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace repair {

RepairDriver::RepairDriver(cluster::StripeManager &stripes,
                           RepairExecutor &executor,
                           std::string metric_prefix)
    : stripes_(stripes), executor_(executor),
      metricPrefix_(std::move(metric_prefix))
{
}

void
RepairDriver::start(std::vector<cluster::FailedChunk> pending)
{
    CHAMELEON_ASSERT(!started_, "repair driver already started");
    started_ = true;
    startTime_ = simulator().now();
    if (pending.empty()) {
        finishTime_ = startTime_;
        return;
    }
    enqueue(pending);
}

bool
RepairDriver::finished() const
{
    return started_ &&
           chunksRepaired_ + chunksUnrecoverable() == totalChunks_;
}

Rate
RepairDriver::throughput() const
{
    CHAMELEON_ASSERT(finished(), "repair not finished");
    if (chunksRepaired_ == 0)
        return 0.0;
    SimTime span = finishTime_ - startTime_;
    CHAMELEON_ASSERT(span > 0, "zero-length repair");
    return static_cast<double>(chunksRepaired_) *
           executor_.config().chunkSize / span;
}

void
RepairDriver::noteRepaired(const cluster::FailedChunk &chunk)
{
    ++chunksRepaired_;
    if (outcomeHook_)
        outcomeHook_(chunk, true);
}

void
RepairDriver::markUnrecoverable(const cluster::FailedChunk &chunk)
{
    unrecoverable_.push_back(chunk);
    CHAMELEON_TELEM(telemetry::tracer().instant(
        simulator().now(), telemetry::kTrackFault, "fault",
        "unrecoverable",
        {{"stripe", chunk.stripe}, {"chunk", chunk.chunk}}));
    telemetry::metrics().counter(metricPrefix_ + ".unrecoverable").add();
    if (outcomeHook_)
        outcomeHook_(chunk, false);
}

void
RepairDriver::noteCrashReplan()
{
    ++crashReplans_;
    telemetry::metrics().counter(metricPrefix_ + ".crash_replans").add();
}

bool
RepairDriver::checkFinished(SimTime when)
{
    if (!finished())
        return false;
    finishTime_ = when;
    return true;
}

void
RepairDriver::releaseReservation(StripeId stripe, NodeId destination)
{
    auto it = reserved_.find(stripe);
    if (it == reserved_.end())
        return;
    it->second.erase(destination);
    if (it->second.empty())
        reserved_.erase(it);
}

} // namespace repair
} // namespace chameleon

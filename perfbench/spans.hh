/**
 * @file
 * Benchmark-side instrumentation: an in-memory span recorder and the
 * two hooks both drivers need.
 *
 * Spans. The traced driver (PERFBENCH_TRACED) opens one span around
 * every call into a module's public entry points: the driver's own
 * calls (Runtime::run, the ErasureCode calls) directly, and calls the
 * program makes between its modules through the link-time wrappers
 * in wraps.cc. Each span keeps its name, start, end, parent and run
 * id. Self time is a span's duration minus its children's. Work the
 * program does inside simulator callbacks without crossing a wrapped
 * entry point (the flow-completion re-solves, scheduler bookkeeping)
 * therefore lands in Simulator::run's self time. In the untraced
 * driver SpanScope compiles to nothing.
 *
 * Hooks (both drivers, through ld --wrap in spans.cc):
 *  - Simulator::run: an outermost call advances simulated time in
 *    steps of 0.1 s (the same events in the same order as one call)
 *    and stamps its entry and every step. The first entry ends
 *    set-up; the stamps cut a run into short segments that do
 *    identical work from round to round.
 *  - StripeTable::failNode: records every chunk a failure declares
 *    lost, so the driver can check that exactly that set was
 *    repaired.
 */

#ifndef PERFBENCH_SPANS_HH_
#define PERFBENCH_SPANS_HH_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "cluster/stripe_table.hh"

namespace perfbench {

#ifdef PERFBENCH_TRACED
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

/** Every span name; spanName()/spanModule() give its label. */
enum class Span : uint16_t {
    kRuntimeRun,
    kSimulatorRun,
    kFlowStart,
    kFlowCancel,
    kFlowSetCapacity,
    kFlowRate,
    kFlowRemaining,
    kFlowTagRate,
    kPlacement,
    kFailNode,
    kQueuePush,
    kQueuePop,
    kQueueComplete,
    kExecLaunch,
    kExecLaunchDag,
    kExecAbort,
    kPlanChunk,
    kPlannerState,
    kBaselinePlan,
    kRepairBoostPlan,
    kDagTopology,
    kDagFromParents,
    kDagFromTree,
    kEcEncode,
    kEcRepairIndices,
    kEcRepair,
    kEcDecode,
    kCrc32c,
    kCount,
};

const char *spanName(Span span);
const char *spanModule(Span span);

using Clock = std::chrono::steady_clock;

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Totals of one span name over the whole process. */
struct SpanTotals
{
    uint64_t calls = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
};

void beginSpan(Span span);
void endSpan();

/** Clears the totals and the log (no span may be open). */
void resetSpans();

/** Run id stamped on spans opened from now on. */
void setRunId(uint32_t run);

const SpanTotals &spanTotals(Span span);

/** Spans kept in memory (the log is capped; totals are not). */
std::size_t spansLogged();
std::size_t spansDropped();

/** Writes the span log as TSV: run, id, parent, name, start_ns,
 * end_ns (times relative to the first span). */
bool writeSpans(std::FILE *out);

/** RAII span; a no-op in the untraced driver. */
class SpanScope
{
  public:
    explicit SpanScope(Span span)
    {
        if constexpr (kTraced)
            beginSpan(span);
    }
    ~SpanScope()
    {
        if constexpr (kTraced)
            endSpan();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
};

/** Entry and exit times (nowNs()) of every outermost Simulator::run
 * call since the last clearSimMarks(), in order. */
const std::vector<uint64_t> &simMarks();
void clearSimMarks();

/** Chunks declared lost by StripeTable::failNode since the last
 * clearLosses(), one entry per failNode call. */
struct NodeLoss
{
    int node = 0;
    std::vector<chameleon::cluster::FailedChunk> chunks;
};
const std::vector<NodeLoss> &losses();
void clearLosses();

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH_

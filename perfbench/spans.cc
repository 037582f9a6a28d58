#include "spans.hh"

#include <array>
#include <cinttypes>
#include <cstdlib>
#include <limits>

#include "sim/simulator.hh"

namespace perfbench {

namespace {

struct SpanRecord
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t parent = 0;
    uint32_t run = 0;
    Span name = Span::kCount;
};

struct OpenSpan
{
    Span name;
    uint64_t startNs;
    uint64_t childNs;
    uint32_t logIndex;
};

constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();
/** Log cap: ~2M spans (64 MiB); totals keep counting past it. */
constexpr std::size_t kLogCap = std::size_t{1} << 21;

struct Recorder
{
    std::array<SpanTotals, static_cast<std::size_t>(Span::kCount)>
        totals{};
    std::vector<OpenSpan> stack;
    std::vector<SpanRecord> log;
    std::size_t dropped = 0;
    uint32_t run = 0;
};

Recorder &
recorder()
{
    static Recorder r;
    return r;
}

std::vector<uint64_t> gSimMarks;
int gSimDepth = 0;
/** Simulated seconds per measured segment of a Simulator::run call. */
constexpr double kSegmentSimSeconds = 0.1;
std::vector<NodeLoss> gLosses;

struct SpanLabel
{
    const char *name;
    const char *module;
};

constexpr SpanLabel kLabels[] = {
    {"Runtime::run", "runtime"},
    {"Simulator::run", "sim"},
    {"FlowNetwork::startFlow", "sim"},
    {"FlowNetwork::cancelFlow", "sim"},
    {"FlowNetwork::setCapacity", "sim"},
    {"FlowNetwork::flowRate", "sim"},
    {"FlowNetwork::flowRemaining", "sim"},
    {"FlowNetwork::currentTagRate", "sim"},
    {"StripeTable::createStripes", "cluster"},
    {"StripeTable::failNode", "cluster"},
    {"RepairQueue::push", "cluster"},
    {"RepairQueue::pop", "cluster"},
    {"RepairQueue::complete", "cluster"},
    {"RepairExecutor::launch", "repair.exec"},
    {"RepairExecutor::launchDag", "repair.exec"},
    {"RepairExecutor::abortChunksTouching", "repair.exec"},
    {"planChunk", "repair.plan"},
    {"PlannerState::make", "repair.plan"},
    {"makeBaselinePlan", "repair.plan"},
    {"RepairBoostSelector::makePlan", "repair.plan"},
    {"buildTopologyDag", "dag"},
    {"dagFromParents", "dag"},
    {"fromTree", "dag"},
    {"ErasureCode::encode", "ec.encode"},
    {"ErasureCode::repairIndices+specFor", "ec.repair"},
    {"ErasureCode::repairCompute", "ec.repair"},
    {"ErasureCode::decode", "ec.decode"},
    {"checksum::crc32c", "ec.crc"},
};
static_assert(std::size(kLabels) == static_cast<std::size_t>(Span::kCount));

} // namespace

const char *
spanName(Span span)
{
    return kLabels[static_cast<std::size_t>(span)].name;
}

const char *
spanModule(Span span)
{
    return kLabels[static_cast<std::size_t>(span)].module;
}

void
beginSpan(Span span)
{
    Recorder &r = recorder();
    const uint64_t now = nowNs();
    uint32_t index = kNoParent;
    if (r.log.size() < kLogCap) {
        index = static_cast<uint32_t>(r.log.size());
        const uint32_t parent =
            r.stack.empty() ? kNoParent : r.stack.back().logIndex;
        r.log.push_back({now, 0, parent, r.run, span});
    } else {
        ++r.dropped;
    }
    r.stack.push_back({span, now, 0, index});
}

void
endSpan()
{
    Recorder &r = recorder();
    const uint64_t now = nowNs();
    const OpenSpan open = r.stack.back();
    r.stack.pop_back();
    const uint64_t dur = now - open.startNs;
    SpanTotals &t = r.totals[static_cast<std::size_t>(open.name)];
    ++t.calls;
    t.totalNs += dur;
    t.selfNs += dur > open.childNs ? dur - open.childNs : 0;
    if (!r.stack.empty())
        r.stack.back().childNs += dur;
    if (open.logIndex != kNoParent)
        r.log[open.logIndex].endNs = now;
}

void
resetSpans()
{
    Recorder &r = recorder();
    r.totals = {};
    r.log.clear();
    r.dropped = 0;
}

void
setRunId(uint32_t run)
{
    recorder().run = run;
}

const SpanTotals &
spanTotals(Span span)
{
    return recorder().totals[static_cast<std::size_t>(span)];
}

std::size_t
spansLogged()
{
    return recorder().log.size();
}

std::size_t
spansDropped()
{
    return recorder().dropped;
}

bool
writeSpans(std::FILE *out)
{
    const Recorder &r = recorder();
    const uint64_t t0 = r.log.empty() ? 0 : r.log.front().startNs;
    std::fprintf(out, "run\tid\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < r.log.size(); ++i) {
        const SpanRecord &s = r.log[i];
        const long long parent =
            s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
        std::fprintf(out, "%" PRIu32 "\t%zu\t%lld\t%s\t%" PRIu64
                          "\t%" PRIu64 "\n",
                     s.run, i, parent, spanName(s.name),
                     s.startNs - t0, s.endNs - t0);
    }
    return std::ferror(out) == 0;
}

const std::vector<uint64_t> &
simMarks()
{
    return gSimMarks;
}

void
clearSimMarks()
{
    gSimMarks.clear();
}

const std::vector<NodeLoss> &
losses()
{
    return gLosses;
}

void
clearLosses()
{
    gLosses.clear();
}

} // namespace perfbench

// ---- Hooks linked into both drivers (ld --wrap=<symbol>). The
// __real_ references are weak, as in wraps.cc: a renamed entry point
// leaves the hook unreached (the driver then reports that set-up end
// or the losses were never observed) instead of breaking the link.

using chameleon::cluster::FailedChunk;
using chameleon::cluster::StripeTable;
using chameleon::sim::Simulator;

extern "C" {

__attribute__((weak)) std::size_t
__real__ZN9chameleon3sim9Simulator3runEd(Simulator *self, double until);

std::size_t
__wrap__ZN9chameleon3sim9Simulator3runEd(Simulator *self, double until)
{
    if (!__real__ZN9chameleon3sim9Simulator3runEd)
        std::abort();
    if (perfbench::gSimDepth > 0)
        return __real__ZN9chameleon3sim9Simulator3runEd(self, until);
    // Outermost call: advance in steps of kSegmentSimSeconds, stamping
    // each step. Simulator::run(t) executes the events due by t in
    // order and then sets now() to t, so a run to `until` in steps
    // executes the same events in the same order as one call; only
    // now() between the steps, which nothing reads, differs.
    ++perfbench::gSimDepth;
    perfbench::gSimMarks.push_back(perfbench::nowNs());
    std::size_t events = 0;
    {
        perfbench::SpanScope span(perfbench::Span::kSimulatorRun);
        if (until != chameleon::kTimeNever) {
            for (double t = self->now() + perfbench::kSegmentSimSeconds;
                 t < until && !self->idle();
                 t = self->now() + perfbench::kSegmentSimSeconds) {
                events += __real__ZN9chameleon3sim9Simulator3runEd(self, t);
                perfbench::gSimMarks.push_back(perfbench::nowNs());
            }
        }
        events += __real__ZN9chameleon3sim9Simulator3runEd(self, until);
    }
    perfbench::gSimMarks.push_back(perfbench::nowNs());
    --perfbench::gSimDepth;
    return events;
}

__attribute__((weak)) std::vector<FailedChunk>
__real__ZN9chameleon7cluster11StripeTable8failNodeEi(StripeTable *self,
                                                     int node);

std::vector<FailedChunk>
__wrap__ZN9chameleon7cluster11StripeTable8failNodeEi(StripeTable *self,
                                                     int node)
{
    if (!__real__ZN9chameleon7cluster11StripeTable8failNodeEi)
        std::abort();
    perfbench::SpanScope span(perfbench::Span::kFailNode);
    std::vector<FailedChunk> lost =
        __real__ZN9chameleon7cluster11StripeTable8failNodeEi(self, node);
    perfbench::gLosses.push_back({node, lost});
    return lost;
}

} // extern "C"

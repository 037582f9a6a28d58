/**
 * @file
 * Span-recording wrappers around the modules' public entry points,
 * linked only into perfbench-traced. CMakeLists.txt passes
 * `ld --wrap=<symbol>` for every symbol below, so each call the
 * program makes to it from another translation unit lands in
 * __wrap_<symbol>, which opens a span and forwards to the original
 * (__real_<symbol>). Calls inside the defining translation unit are
 * not redirected; their time stays in the caller's span.
 *
 * __real_ references are weak: if a symbol is renamed the wrapper is
 * never reached and its span reads zero instead of breaking the
 * link. A wrapper reached with no original aborts loudly.
 */

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "cluster/repair_queue.hh"
#include "cluster/stripe_table.hh"
#include "dag/dag.hh"
#include "ec/checksum.hh"
#include "repair/chameleon_planner.hh"
#include "repair/dag_bridge.hh"
#include "repair/executor.hh"
#include "repair/strategies.hh"
#include "sim/flow_network.hh"
#include "spans.hh"

using namespace chameleon;
using sim::FlowNetwork;

[[noreturn]] static void
missingOriginal(const char *symbol)
{
    std::fprintf(stderr, "perfbench: no original for wrapped %s\n",
                 symbol);
    std::abort();
}

// PARAMS and ARGS are parenthesized lists; non-trivially-copyable
// by-value parameters are moved through.
#define PERFBENCH_WRAP(SYM, SPAN, RET, PARAMS, ARGS)                  \
    extern "C" __attribute__((weak)) RET __real_##SYM PARAMS;         \
    extern "C" RET __wrap_##SYM PARAMS                                \
    {                                                                 \
        if (!__real_##SYM)                                            \
            missingOriginal(#SYM);                                    \
        perfbench::SpanScope span(perfbench::Span::SPAN);             \
        return __real_##SYM ARGS;                                     \
    }

// ---- sim: FlowNetwork mutations and rate/remaining readers.

PERFBENCH_WRAP(
    _ZN9chameleon3sim11FlowNetwork9startFlowESt6vectorIiSaIiEEdNS0_7FlowTagENS_4util13SmallFunctionIFvvELm48EEE,
    kFlowStart, sim::FlowId,
    (FlowNetwork * self, std::vector<sim::ResourceId> path, Bytes size,
     sim::FlowTag tag, FlowNetwork::Callback on_complete),
    (self, std::move(path), size, tag, std::move(on_complete)))

PERFBENCH_WRAP(
    _ZN9chameleon3sim11FlowNetwork9startFlowESt6vectorIiSaIiEEdNS0_7FlowTagERKNS0_9FlowLabelENS_4util13SmallFunctionIFvvELm48EEE,
    kFlowStart, sim::FlowId,
    (FlowNetwork * self, std::vector<sim::ResourceId> path, Bytes size,
     sim::FlowTag tag, const sim::FlowLabel &label,
     FlowNetwork::Callback on_complete),
    (self, std::move(path), size, tag, label, std::move(on_complete)))

PERFBENCH_WRAP(_ZN9chameleon3sim11FlowNetwork10cancelFlowEl, kFlowCancel,
               Bytes, (FlowNetwork * self, sim::FlowId id), (self, id))

PERFBENCH_WRAP(_ZN9chameleon3sim11FlowNetwork11setCapacityEid,
               kFlowSetCapacity, void,
               (FlowNetwork * self, sim::ResourceId id, Rate capacity),
               (self, id, capacity))

PERFBENCH_WRAP(_ZNK9chameleon3sim11FlowNetwork8flowRateEl, kFlowRate, Rate,
               (const FlowNetwork *self, sim::FlowId id), (self, id))

PERFBENCH_WRAP(_ZNK9chameleon3sim11FlowNetwork13flowRemainingEl,
               kFlowRemaining, Bytes,
               (const FlowNetwork *self, sim::FlowId id), (self, id))

PERFBENCH_WRAP(_ZNK9chameleon3sim11FlowNetwork14currentTagRateEiNS0_7FlowTagE,
               kFlowTagRate, Rate,
               (const FlowNetwork *self, sim::ResourceId id,
                sim::FlowTag tag),
               (self, id, tag))

// ---- cluster: stripe placement and the repair queue.

PERFBENCH_WRAP(_ZN9chameleon7cluster11StripeTable13createStripesEiRNS_3RngE,
               kPlacement, void,
               (cluster::StripeTable * self, int count, Rng &rng),
               (self, count, rng))

PERFBENCH_WRAP(
    _ZN9chameleon7cluster11RepairQueue4pushENS0_11FailedChunkENS0_10RepairTierE,
    kQueuePush, bool,
    (cluster::RepairQueue * self, cluster::FailedChunk chunk,
     cluster::RepairTier tier),
    (self, chunk, tier))

PERFBENCH_WRAP(_ZN9chameleon7cluster11RepairQueue3popEv, kQueuePop,
               std::optional<cluster::AdmittedRepair>,
               (cluster::RepairQueue * self), (self))

PERFBENCH_WRAP(
    _ZN9chameleon7cluster11RepairQueue8completeERKNS0_11FailedChunkE,
    kQueueComplete, void,
    (cluster::RepairQueue * self, const cluster::FailedChunk &chunk),
    (self, chunk))

// ---- repair executor: launch, launchDag, abort.

PERFBENCH_WRAP(
    _ZN9chameleon6repair14RepairExecutor6launchERKNS0_15ChunkRepairPlanESt8functionIFvS4_dEES5_IFvS4_idEE,
    kExecLaunch, repair::RepairId,
    (repair::RepairExecutor * self, const repair::ChunkRepairPlan &plan,
     repair::RepairExecutor::ChunkDone on_done,
     repair::RepairExecutor::ChunkFail on_fail),
    (self, plan, std::move(on_done), std::move(on_fail)))

PERFBENCH_WRAP(
    _ZN9chameleon6repair14RepairExecutor9launchDagERKNS_3dag5EcDagERKNS0_15ChunkRepairPlanESt8functionIFvS8_dEES9_IFvS8_idEE,
    kExecLaunchDag, repair::RepairId,
    (repair::RepairExecutor * self, const dag::EcDag &dag,
     const repair::ChunkRepairPlan &plan,
     repair::RepairExecutor::ChunkDone on_done,
     repair::RepairExecutor::ChunkFail on_fail),
    (self, dag, plan, std::move(on_done), std::move(on_fail)))

PERFBENCH_WRAP(_ZN9chameleon6repair14RepairExecutor19abortChunksTouchingEi,
               kExecAbort, int,
               (repair::RepairExecutor * self, NodeId node), (self, node))

// ---- repair planner and strategy plan builders.

PERFBENCH_WRAP(
    _ZN9chameleon6repair9planChunkERNS0_12PlannerStateERKNS0_17PlannerChunkInputE,
    kPlanChunk, std::optional<repair::PlannedChunk>,
    (repair::PlannerState & state, const repair::PlannerChunkInput &input),
    (state, input))

PERFBENCH_WRAP(_ZN9chameleon6repair12PlannerState4makeEid, kPlannerState,
               repair::PlannerState, (int nodes, Bytes chunk_size),
               (nodes, chunk_size))

PERFBENCH_WRAP(
    _ZN9chameleon6repair16makeBaselinePlanERKNS_7cluster13StripeManagerERKNS1_11FailedChunkENS0_8TopologyERKSt6vectorIiSaIiEERNS_3RngE,
    kBaselinePlan, repair::ChunkRepairPlan,
    (const cluster::StripeManager &stripes,
     const cluster::FailedChunk &failed, repair::Topology topology,
     const std::vector<NodeId> &reserved, Rng &rng),
    (stripes, failed, topology, reserved, rng))

PERFBENCH_WRAP(
    _ZN9chameleon6repair19RepairBoostSelector8makePlanERKNS_7cluster13StripeManagerERKNS2_11FailedChunkENS0_8TopologyERKSt6vectorIiSaIiEERNS_3RngE,
    kRepairBoostPlan, repair::ChunkRepairPlan,
    (repair::RepairBoostSelector * self,
     const cluster::StripeManager &stripes,
     const cluster::FailedChunk &failed, repair::Topology topology,
     const std::vector<NodeId> &reserved, Rng &rng),
    (self, stripes, failed, topology, reserved, rng))

// ---- dag builders.

PERFBENCH_WRAP(
    _ZN9chameleon3dag16buildTopologyDagERKNS0_12TopologySpecEiiiRKSt6vectorINS0_9DagSourceESaIS5_EEb,
    kDagTopology, dag::EcDag,
    (const dag::TopologySpec &spec, StripeId stripe, ChunkIndex failed,
     NodeId destination, const std::vector<dag::DagSource> &sources,
     bool combinable),
    (spec, stripe, failed, destination, sources, combinable))

PERFBENCH_WRAP(
    _ZN9chameleon3dag14dagFromParentsEiiiRKSt6vectorINS0_9DagSourceESaIS2_EERKS1_IiSaIiEEb,
    kDagFromParents, dag::EcDag,
    (StripeId stripe, ChunkIndex failed, NodeId destination,
     const std::vector<dag::DagSource> &sources,
     const std::vector<int> &parents, bool combinable),
    (stripe, failed, destination, sources, parents, combinable))

PERFBENCH_WRAP(_ZN9chameleon6repair8fromTreeERKNS0_15ChunkRepairPlanE,
               kDagFromTree, dag::EcDag,
               (const repair::ChunkRepairPlan &plan), (plan))

// ---- ec: checksum kernel (the ErasureCode calls are virtual; the
// codec workload spans them at its own call sites).

PERFBENCH_WRAP(_ZN9chameleon2ec8checksum6crc32cEPKvmj, kCrc32c, uint32_t,
               (const void *data, std::size_t len, uint32_t crc),
               (data, len, crc))

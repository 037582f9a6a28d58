/**
 * @file
 * Microbenchmark for the simulator core: events/sec and flow-churn
 * throughput of the incremental max-min solver versus the reference
 * from-scratch solver (CHAMELEON_SIM_REFERENCE_SOLVER semantics) on
 * the workloads that dominate ChameleonEC runs — raw flow churn,
 * idle repair chains, slice-pipelined DAG repair at S=64, and a
 * YCSB-A foreground mix with concurrent repairs. Each cell runs in
 * both solver modes on identical scripts; the executed-event counts
 * must match exactly (the solvers are byte-equivalent), and the
 * wall-clock ratio is the recorded speedup. Results go to
 * BENCH_sim.json, the sim-layer analogue of BENCH_codec.json.
 *
 * Every cell also records the deterministic solver work behind its
 * wall clock: `sim.rate_recomputes` (solves),
 * `sim.rate_recompute_flow_visits` (flows re-filled across them) and
 * `sim.solver.rerated_flows` (flows whose rate changed, which both
 * modes must agree on: the solvers re-rate the same flows). The
 * churn cell additionally records the visits per operation at two
 * live-flow scales: the incremental solver's visits/op must not grow
 * with the number of live flows in other components (the
 * sublinearity acceptance metric).
 *
 * Exit code: non-zero if any cell fails its consistency checks; the
 * rates are recorded, not asserted (they depend on the machine).
 */

#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cluster/cluster.hh"
#include "repair/dag_bridge.hh"
#include "repair/executor.hh"
#include "repair/plan.hh"
#include "sim/flow_network.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"
#include "traffic/foreground_driver.hh"
#include "traffic/trace_profile.hh"
#include "util/format.hh"
#include "util/rng.hh"

namespace {

using namespace chameleon;
using namespace chameleon::bench;

struct CellResult
{
    std::string name;
    long long events = 0;
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    /** Solver work over the cell (registry counter deltas). */
    long long recomputes = 0;
    long long visits = 0;
    long long rerated = 0;
    bool ok = true;
};

/** Runs one cell, stamping the solver counters it moved. */
template <typename Fn>
CellResult
counted(Fn &&cell)
{
    auto &recomputes =
        telemetry::metrics().counter("sim.rate_recomputes");
    auto &visits = telemetry::metrics().counter(
        "sim.rate_recompute_flow_visits");
    auto &rerated =
        telemetry::metrics().counter("sim.solver.rerated_flows");
    const int64_t r0 = recomputes.value.load();
    const int64_t v0 = visits.value.load();
    const int64_t x0 = rerated.value.load();
    CellResult r = cell();
    r.recomputes = recomputes.value.load() - r0;
    r.visits = visits.value.load() - v0;
    r.rerated = rerated.value.load() - x0;
    return r;
}

double
wallSeconds(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Raw flow churn on disjoint repair pairs: `pairs` two-link
 * components each carrying 4 long-lived repair flows, while short
 * foreground flows start and complete on one component. Returns
 * events/sec and (via out-param) solver flow visits per operation.
 */
CellResult
runChurn(bool reference, int pairs, int ops, double *visits_per_op)
{
    sim::Simulator sim;
    sim::FlowNetwork net(sim);
    net.setReferenceSolver(reference);
    auto &visits = telemetry::metrics().counter(
        "sim.rate_recompute_flow_visits");

    std::vector<sim::ResourceId> up(pairs), down(pairs);
    for (int p = 0; p < pairs; ++p) {
        up[p] = net.addResource("up" + std::to_string(p), 1e9);
        down[p] = net.addResource("down" + std::to_string(p), 1e9);
    }
    for (int p = 0; p < pairs; ++p)
        for (int f = 0; f < 4; ++f)
            net.startFlow({up[p], down[p]}, 1e18,
                          sim::FlowTag::kRepair, nullptr);

    const int64_t visitsBefore = visits.value.load();
    int completed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < ops; ++i) {
        net.startFlow({up[0], down[0]}, 1e6,
                      sim::FlowTag::kForeground,
                      [&completed] { ++completed; });
        while (completed <= i)
            if (!sim.step())
                break;
    }
    const double seconds = wallSeconds(start);
    if (visits_per_op)
        *visits_per_op =
            static_cast<double>(visits.value.load() - visitsBefore) /
            ops;

    CellResult r;
    r.name = "churn";
    r.events = static_cast<long long>(sim.eventsExecuted());
    r.seconds = seconds;
    r.eventsPerSec = seconds > 0 ? 2.0 * ops / seconds : 0.0;
    r.ok = completed == ops;
    return r;
}

/** Idle repair chains: sequential chain repairs, one slice per
 * chunk, no foreground. */
CellResult
runChains(bool reference, int chunks)
{
    sim::Simulator sim;
    cluster::ClusterConfig cfg;
    cfg.numNodes = 8;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cluster::Cluster cluster(sim, cfg);
    cluster.network().setReferenceSolver(reference);
    repair::ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 64.0;
    ecfg.slices = 1;
    ecfg.relayOverheadPerMiB = 0.0;
    repair::RepairExecutor exec(cluster, ecfg);

    std::vector<repair::PlanSource> sources;
    for (int i = 0; i < 4; ++i) {
        repair::PlanSource src;
        src.node = static_cast<NodeId>(i + 1);
        src.chunk = static_cast<ChunkIndex>(i + 1);
        sources.push_back(src);
    }
    const auto plan = repair::buildChainPlan(0, 0, 6, sources);

    int completed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < chunks; ++c) {
        exec.launch(plan,
                    [&](const repair::ChunkRepairPlan &, SimTime) {
                        ++completed;
                    });
        sim.run();
    }
    const double seconds = wallSeconds(start);

    CellResult r;
    r.name = "chains";
    r.events = static_cast<long long>(sim.eventsExecuted());
    r.seconds = seconds;
    r.eventsPerSec =
        seconds > 0 ? static_cast<double>(r.events) / seconds : 0.0;
    r.ok = completed == chunks;
    return r;
}

/**
 * Slice-pipelined DAG repair at S=64 (PR 6's hot path): `lanes`
 * concurrent chain repairs on disjoint node groups of a large
 * cluster, the regime where slice pipelining multiplies live-flow
 * counts and the from-scratch solver pays for the whole cluster on
 * every slice event.
 */
CellResult
runDag64(bool reference, int lanes, int rounds)
{
    sim::Simulator sim;
    cluster::ClusterConfig cfg;
    cfg.numNodes = lanes * 6;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cluster::Cluster cluster(sim, cfg);
    cluster.network().setReferenceSolver(reference);
    repair::ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 1.0;
    ecfg.slices = 64;
    ecfg.relayOverheadPerMiB = 0.0;
    repair::RepairExecutor exec(cluster, ecfg);

    int completed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (int lane = 0; lane < lanes; ++lane) {
            const NodeId base = static_cast<NodeId>(lane * 6);
            std::vector<repair::PlanSource> sources;
            for (int i = 0; i < 4; ++i) {
                repair::PlanSource src;
                src.node = static_cast<NodeId>(base + i + 1);
                src.chunk = static_cast<ChunkIndex>(i + 1);
                sources.push_back(src);
            }
            const auto plan = repair::buildChainPlan(
                lane, 0, static_cast<NodeId>(base + 5), sources);
            const auto dag = repair::fromTree(plan);
            exec.launchDag(
                dag, plan,
                [&](const repair::ChunkRepairPlan &, SimTime) {
                    ++completed;
                });
        }
        sim.run();
    }
    const double seconds = wallSeconds(start);

    CellResult r;
    r.name = "dag64";
    r.events = static_cast<long long>(sim.eventsExecuted());
    r.seconds = seconds;
    r.eventsPerSec =
        seconds > 0 ? static_cast<double>(r.events) / seconds : 0.0;
    r.ok = completed == lanes * rounds;
    return r;
}

/**
 * YCSB-A foreground mix with concurrent chain repairs on a large
 * cluster: the experiment-shaped workload. Client links couple the
 * nodes currently serving requests into one component, but the rest
 * of the cluster stays out of each re-solve; the reference solver
 * pays for every node on every request start/finish.
 */
CellResult
runYcsb(bool reference, int nodes, uint64_t requests_per_client)
{
    sim::Simulator sim;
    cluster::ClusterConfig cfg; // paper-shaped, scaled up
    cfg.numNodes = nodes;
    cluster::Cluster cluster(sim, cfg);
    cluster.network().setReferenceSolver(reference);
    traffic::ForegroundDriver driver(cluster, traffic::ycsbA(),
                                     Rng(42), requests_per_client);
    repair::ExecutorConfig ecfg;
    repair::RepairExecutor exec(cluster, ecfg);

    const int repairs = nodes / 6;
    int completed = 0;
    const auto start = std::chrono::steady_clock::now();
    driver.start();
    for (int c = 0; c < repairs; ++c) {
        const NodeId base = static_cast<NodeId>(c * 6);
        std::vector<repair::PlanSource> sources;
        for (int i = 0; i < 4; ++i) {
            repair::PlanSource src;
            src.node = static_cast<NodeId>(base + i + 1);
            src.chunk = static_cast<ChunkIndex>(i + 1);
            sources.push_back(src);
        }
        const auto plan = repair::buildChainPlan(
            c, 0, static_cast<NodeId>(base + 5), sources);
        exec.launch(plan,
                    [&](const repair::ChunkRepairPlan &, SimTime) {
                        ++completed;
                    });
    }
    sim.run();
    driver.stop();
    sim.run();
    const double seconds = wallSeconds(start);

    CellResult r;
    r.name = "ycsb";
    r.events = static_cast<long long>(sim.eventsExecuted());
    r.seconds = seconds;
    r.eventsPerSec =
        seconds > 0 ? static_cast<double>(r.events) / seconds : 0.0;
    r.ok = completed == repairs && driver.finished();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    init(argc, argv);

    const bool smoke = opts().smoke;
    const int churnPairs = smoke ? 16 : 64;
    const int churnOps = smoke ? 500 : 20000;
    const int chainChunks = smoke ? 8 : 256;
    const int dagLanes = smoke ? 4 : 16;
    const int dagRounds = smoke ? 1 : 4;
    const int ycsbNodes = smoke ? 24 : 96;
    const uint64_t ycsbRequests = smoke ? 50 : 1500;

    struct Pair
    {
        CellResult inc;
        CellResult ref;
        double visitsPerOpInc = 0.0;
        double visitsPerOpRef = 0.0;
    };
    std::vector<Pair> cells;

    {
        Pair p;
        p.inc = counted([&] {
            return runChurn(false, churnPairs, churnOps,
                            &p.visitsPerOpInc);
        });
        p.ref = counted([&] {
            return runChurn(true, churnPairs, churnOps,
                            &p.visitsPerOpRef);
        });
        cells.push_back(p);
    }
    {
        Pair p;
        p.inc = counted([&] { return runChains(false, chainChunks); });
        p.ref = counted([&] { return runChains(true, chainChunks); });
        cells.push_back(p);
    }
    {
        Pair p;
        p.inc = counted(
            [&] { return runDag64(false, dagLanes, dagRounds); });
        p.ref = counted(
            [&] { return runDag64(true, dagLanes, dagRounds); });
        cells.push_back(p);
    }
    {
        Pair p;
        p.inc = counted(
            [&] { return runYcsb(false, ycsbNodes, ycsbRequests); });
        p.ref = counted(
            [&] { return runYcsb(true, ycsbNodes, ycsbRequests); });
        cells.push_back(p);
    }

    // Sublinearity evidence: the same churn at 4x the live-flow
    // count must not grow the incremental solver's visits/op.
    double visitsSmall = 0.0, visitsLarge = 0.0;
    runChurn(false, churnPairs, churnOps / 2, &visitsSmall);
    runChurn(false, churnPairs * 4, churnOps / 2, &visitsLarge);

    bool ok = true;
    std::printf("micro_sim: incremental vs reference solver\n");
    for (const auto &p : cells) {
        const bool consistent = p.inc.ok && p.ref.ok &&
                                p.inc.events == p.ref.events &&
                                p.inc.rerated == p.ref.rerated;
        ok = ok && consistent;
        const double speedup = p.ref.eventsPerSec > 0
                                   ? p.inc.eventsPerSec /
                                         p.ref.eventsPerSec
                                   : 0.0;
        std::printf("  %-6s  %9lld events  inc %12.0f ev/s  "
                    "ref %12.0f ev/s  %5.2fx  [%s]\n"
                    "          rate_recomputes inc %lld ref %lld  "
                    "recompute_flow_visits inc %lld ref %lld  "
                    "rerated_flows %lld\n",
                    p.inc.name.c_str(), p.inc.events,
                    p.inc.eventsPerSec, p.ref.eventsPerSec, speedup,
                    consistent ? "ok" : "FAIL", p.inc.recomputes,
                    p.ref.recomputes, p.inc.visits, p.ref.visits,
                    p.inc.rerated);
    }
    const double visitsGrowth =
        visitsSmall > 0 ? visitsLarge / visitsSmall : 0.0;
    std::printf("  churn visits/op: %.1f at 1x flows, %.1f at 4x "
                "flows (growth %.2fx; reference %.1f)\n",
                visitsSmall, visitsLarge, visitsGrowth,
                cells[0].visitsPerOpRef);
    // Dirty-set visits must not scale with unrelated live flows.
    ok = ok && visitsGrowth < 2.0;

    std::FILE *json = std::fopen("BENCH_sim.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n"
            "  \"bench\": \"micro_sim\",\n"
            "  \"description\": \"simulator core events/sec, "
            "incremental vs reference (from-scratch) max-min "
            "solver on identical scripts\",\n"
            "  \"smoke\": %s,\n"
            "  \"results\": [\n",
            smoke ? "true" : "false");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &p = cells[i];
            const double speedup = p.ref.eventsPerSec > 0
                                       ? p.inc.eventsPerSec /
                                             p.ref.eventsPerSec
                                       : 0.0;
            std::fprintf(
                json,
                "    {\"cell\": \"%s\", \"events\": %lld,\n"
                "     \"incremental_events_per_sec\": %s,\n"
                "     \"reference_events_per_sec\": %s,\n"
                "     \"speedup\": %s,\n"
                "     \"incremental_rate_recomputes\": %lld,\n"
                "     \"incremental_recompute_flow_visits\": %lld,\n"
                "     \"reference_rate_recomputes\": %lld,\n"
                "     \"reference_recompute_flow_visits\": %lld,\n"
                "     \"rerated_flows\": %lld}%s\n",
                p.inc.name.c_str(), p.inc.events,
                formatDouble(p.inc.eventsPerSec).c_str(),
                formatDouble(p.ref.eventsPerSec).c_str(),
                formatDouble(speedup).c_str(), p.inc.recomputes,
                p.inc.visits, p.ref.recomputes, p.ref.visits,
                p.inc.rerated, i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(
            json,
            "  ],\n"
            "  \"churn_visits_per_op\": {\n"
            "    \"incremental_1x_flows\": %s,\n"
            "    \"incremental_4x_flows\": %s,\n"
            "    \"growth\": %s,\n"
            "    \"reference_1x_flows\": %s\n"
            "  },\n"
            "  \"consistent\": %s\n"
            "}\n",
            formatDouble(visitsSmall).c_str(),
            formatDouble(visitsLarge).c_str(),
            formatDouble(visitsGrowth).c_str(),
            formatDouble(cells[0].visitsPerOpRef).c_str(),
            ok ? "true" : "false");
        std::fclose(json);
        std::printf("wrote BENCH_sim.json\n");
    } else {
        std::fprintf(stderr, "cannot write BENCH_sim.json\n");
        ok = false;
    }
    return ok ? 0 : 1;
}

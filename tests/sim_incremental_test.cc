/**
 * @file
 * Differential and property tests for the incremental max-min solver.
 *
 * The incremental solver (dirty-component re-solve, lazy progress
 * integration, completion heap) must be indistinguishable from the
 * reference from-scratch solver: a scripted, seeded churn of flow
 * starts, cancels, completions, capacity changes, and syncs is
 * applied to two independent simulations — one per solver mode — and
 * every observable (flow rates bit-for-bit, completion order,
 * per-resource byte counters) is compared after every operation.
 * Invariants (rate sums within capacity, O(1) tag-rate sums matching
 * a fresh walk) are checked on the incremental side, and the
 * dirty-set counters are asserted sublinear on disjoint components.
 * Deferral is pinned too: same-instant churn costs one solve at the
 * clock advance, a same-instant start+cancel leaves no trace, and a
 * run cut into 0.1 s steps equals one run.
 */

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/flow_network.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"

namespace chameleon {
namespace sim {
namespace {

/** One scripted operation, applied identically to both modes. */
struct Op
{
    enum Kind { kStart, kCancel, kSetCapacity, kSync };

    Kind kind;
    SimTime at;
    std::vector<ResourceId> path; // kStart
    Bytes size = 0.0;             // kStart
    FlowTag tag = FlowTag::kForeground;
    std::size_t victim = 0;  // kCancel: index into the live set
    ResourceId resource = 0; // kSetCapacity
    Rate capacity = 0.0;     // kSetCapacity
};

struct Completion
{
    SimTime at;
    FlowId id;

    bool operator==(const Completion &o) const
    {
        return at == o.at && id == o.id;
    }
};

/** One simulation under churn; two instances run the same script. */
class Churn
{
  public:
    Churn(bool reference, const std::vector<Rate> &caps)
    {
        net_.setReferenceSolver(reference);
        for (std::size_t i = 0; i < caps.size(); ++i)
            net_.addResource("r" + std::to_string(i), caps[i]);
    }

    void apply(const Op &op)
    {
        sim_.run(op.at);
        switch (op.kind) {
        case Op::kStart: {
            const FlowId id = nextId_++;
            live_.push_back(id);
            paths_[id] = op.path;
            tags_[id] = op.tag;
            net_.startFlow(op.path, op.size, op.tag, [this, id] {
                completions_.push_back({sim_.now(), id});
                dropLive(id);
            });
            break;
        }
        case Op::kCancel: {
            // An empty live set turns the op into an unknown-id
            // cancel, exercising the no-op fast path.
            FlowId id = kInvalidFlow;
            if (!live_.empty())
                id = live_[op.victim % live_.size()];
            lastCancelReturn_ = net_.cancelFlow(id);
            dropLive(id);
            break;
        }
        case Op::kSetCapacity:
            net_.setCapacity(op.resource, op.capacity);
            break;
        case Op::kSync:
            net_.sync();
            break;
        }
    }

    void drain(SimTime until) { sim_.run(until); }

    Simulator &sim() { return sim_; }
    FlowNetwork &net() { return net_; }
    const std::vector<FlowId> &live() const { return live_; }
    const std::vector<Completion> &completions() const
    {
        return completions_;
    }
    const std::vector<ResourceId> &pathOf(FlowId id) const
    {
        return paths_.at(id);
    }
    FlowTag tagOf(FlowId id) const { return tags_.at(id); }
    Bytes lastCancelReturn() const { return lastCancelReturn_; }

  private:
    void dropLive(FlowId id)
    {
        auto it = std::find(live_.begin(), live_.end(), id);
        if (it != live_.end())
            live_.erase(it);
    }

    Simulator sim_;
    FlowNetwork net_{sim_};
    FlowId nextId_ = 0;
    std::vector<FlowId> live_;
    std::unordered_map<FlowId, std::vector<ResourceId>> paths_;
    std::unordered_map<FlowId, FlowTag> tags_;
    std::vector<Completion> completions_;
    Bytes lastCancelReturn_ = 0.0;
};

/**
 * A seeded churn script over `nres` resources. With `ties`, every
 * capacity and capacity step is one of two values (like a cluster's
 * equal links), so equal fair shares on different resources are
 * common and the bottleneck tie-break decides which one saturates
 * first.
 */
std::vector<Op>
makeScript(uint32_t seed, std::size_t nres, std::size_t nops,
           std::vector<Rate> &caps, bool ties = false)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> realCap(20.0, 150.0);
    auto capDist = [&](std::mt19937 &g) {
        return ties ? (g() % 2 == 0 ? 50.0 : 100.0) : realCap(g);
    };
    caps.clear();
    for (std::size_t i = 0; i < nres; ++i)
        caps.push_back(capDist(rng));

    std::vector<Op> ops;
    SimTime t = 0.0;
    std::uniform_real_distribution<double> dtDist(0.0, 0.8);
    std::uniform_real_distribution<double> sizeDist(1.0, 4000.0);
    std::uniform_int_distribution<int> kindDist(0, 99);
    std::uniform_int_distribution<std::size_t> resDist(0, nres - 1);
    for (std::size_t i = 0; i < nops; ++i) {
        t += dtDist(rng);
        Op op;
        op.at = t;
        const int k = kindDist(rng);
        if (k < 45) {
            op.kind = Op::kStart;
            const std::size_t hops = 2 + (rng() % 2);
            while (op.path.size() < hops) {
                const auto r =
                    static_cast<ResourceId>(resDist(rng));
                if (std::find(op.path.begin(), op.path.end(), r) ==
                    op.path.end())
                    op.path.push_back(r);
            }
            // A few degenerate (zero-byte) starts exercise the
            // solver-skipping fast path.
            op.size = k < 3 ? 0.0 : sizeDist(rng);
            op.tag = (rng() % 3 == 0) ? FlowTag::kRepair
                                      : FlowTag::kForeground;
        } else if (k < 70) {
            op.kind = Op::kCancel;
            op.victim = rng();
        } else if (k < 85) {
            op.kind = Op::kSetCapacity;
            op.resource = static_cast<ResourceId>(resDist(rng));
            // Occasionally stall a link completely.
            op.capacity = (rng() % 8 == 0) ? 0.0 : capDist(rng);
        } else {
            op.kind = Op::kSync;
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/** Compares every observable of the two modes bit-for-bit. */
void
expectIdentical(Churn &inc, Churn &ref)
{
    ASSERT_EQ(inc.completions().size(), ref.completions().size());
    for (std::size_t i = 0; i < inc.completions().size(); ++i) {
        EXPECT_EQ(inc.completions()[i].at, ref.completions()[i].at);
        EXPECT_EQ(inc.completions()[i].id, ref.completions()[i].id);
    }
    ASSERT_EQ(inc.live(), ref.live());
    EXPECT_EQ(inc.lastCancelReturn(), ref.lastCancelReturn());
    for (FlowId id : inc.live()) {
        ASSERT_TRUE(inc.net().flowActive(id));
        ASSERT_TRUE(ref.net().flowActive(id));
        EXPECT_EQ(inc.net().flowRate(id), ref.net().flowRate(id))
            << "flow " << id;
        EXPECT_EQ(inc.net().flowRemaining(id),
                  ref.net().flowRemaining(id))
            << "flow " << id;
    }
    for (std::size_t r = 0; r < inc.net().resourceCount(); ++r) {
        const auto rid = static_cast<ResourceId>(r);
        for (int t = 0; t < kNumFlowTags; ++t) {
            const auto tag = static_cast<FlowTag>(t);
            EXPECT_EQ(inc.net().currentTagRate(rid, tag),
                      ref.net().currentTagRate(rid, tag))
                << "resource " << r << " tag " << t;
            EXPECT_EQ(inc.net().taggedBytes(rid, tag),
                      ref.net().taggedBytes(rid, tag))
                << "resource " << r << " tag " << t;
        }
        EXPECT_EQ(inc.net().activeFlowsOn(rid),
                  ref.net().activeFlowsOn(rid));
    }
}

/** Invariants of the incremental bookkeeping itself. */
void
expectInvariants(Churn &c)
{
    FlowNetwork &net = c.net();
    for (std::size_t r = 0; r < net.resourceCount(); ++r) {
        const auto rid = static_cast<ResourceId>(r);
        Rate total = 0.0;
        Rate fresh[kNumFlowTags] = {0.0, 0.0};
        for (int t = 0; t < kNumFlowTags; ++t)
            total += net.currentTagRate(rid, static_cast<FlowTag>(t));
        EXPECT_LE(total, net.capacity(rid) + 1e-6);
        // The O(1) per-tag sums must match a fresh walk of the live
        // flows crossing the resource (order-tolerant comparison:
        // the walk sums in id order, the network in list order).
        std::size_t crossing = 0;
        for (FlowId id : c.live()) {
            const auto &path = c.pathOf(id);
            if (std::find(path.begin(), path.end(), rid) ==
                path.end())
                continue;
            ++crossing;
            fresh[static_cast<int>(c.tagOf(id))] +=
                net.flowRate(id);
        }
        EXPECT_EQ(crossing, net.activeFlowsOn(rid));
        for (int t = 0; t < kNumFlowTags; ++t)
            EXPECT_NEAR(
                fresh[t],
                net.currentTagRate(rid, static_cast<FlowTag>(t)),
                1e-6)
                << "resource " << r << " tag " << t;
    }
}

TEST(SimIncremental, DifferentialChurnMatchesReferenceSolver)
{
    struct Input
    {
        uint32_t seed;
        bool ties;
    };
    for (const Input in : {Input{1u, false}, Input{7u, false},
                           Input{42u, false}, Input{1234u, false},
                           Input{99991u, false}, Input{5u, true},
                           Input{77u, true}, Input{2024u, true}}) {
        SCOPED_TRACE("seed " + std::to_string(in.seed) +
                     (in.ties ? " tie-heavy" : ""));
        std::vector<Rate> caps;
        const auto script = makeScript(in.seed, 12, 250, caps, in.ties);
        Churn inc(/*reference=*/false, caps);
        Churn ref(/*reference=*/true, caps);
        ASSERT_FALSE(inc.net().referenceSolver());
        ASSERT_TRUE(ref.net().referenceSolver());
        for (const Op &op : script) {
            inc.apply(op);
            ref.apply(op);
            expectIdentical(inc, ref);
            expectInvariants(inc);
            if (::testing::Test::HasFailure())
                return; // first divergence is the informative one
        }
        // Drain: stalled flows (zero-capacity links) may never
        // finish; run far past the script and compare final state.
        const SimTime horizon = script.back().at + 1e6;
        inc.drain(horizon);
        ref.drain(horizon);
        expectIdentical(inc, ref);
        expectInvariants(inc);
        EXPECT_EQ(inc.sim().eventsExecuted(),
                  ref.sim().eventsExecuted());
    }
}

TEST(SimIncremental, DegenerateStartAndUnknownCancelSkipSolve)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    const ResourceId r = net.addResource("r", 100.0);
    auto &recomputes =
        telemetry::metrics().counter("sim.rate_recomputes");

    const int64_t before = recomputes.value.load();
    bool fired = false;
    net.startFlow({r}, 0.0, FlowTag::kForeground,
                  [&fired] { fired = true; });
    EXPECT_TRUE(fired);
    net.startFlow({}, 1000.0, FlowTag::kForeground, nullptr);
    EXPECT_EQ(net.cancelFlow(424242), 0.0);
    EXPECT_EQ(recomputes.value.load(), before);
    EXPECT_EQ(net.activeFlowCount(), 0u);
    EXPECT_TRUE(sim.idle());
}

TEST(SimIncremental, DirtySetStaysWithinComponent)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    auto &visits = telemetry::metrics().counter(
        "sim.rate_recompute_flow_visits");
    auto &recomputes =
        telemetry::metrics().counter("sim.rate_recomputes");

    // 32 disjoint two-resource components, 4 long flows each: 128
    // live flows total, but churn inside one component must never
    // visit the other 31.
    constexpr int kPairs = 32;
    constexpr int kFlowsPerPair = 4;
    std::vector<ResourceId> up(kPairs), down(kPairs);
    for (int p = 0; p < kPairs; ++p) {
        up[p] = net.addResource("up" + std::to_string(p), 100.0);
        down[p] = net.addResource("down" + std::to_string(p), 100.0);
    }
    FlowId longFlow = kInvalidFlow;
    for (int p = 0; p < kPairs; ++p)
        for (int f = 0; f < kFlowsPerPair; ++f)
            longFlow = net.startFlow({up[p], down[p]}, 1e9,
                                     FlowTag::kRepair, nullptr);
    ASSERT_EQ(net.activeFlowCount(),
              static_cast<std::size_t>(kPairs * kFlowsPerPair));
    EXPECT_EQ(net.flowRate(longFlow), 25.0); // solves the setup

    // Solves are deferred to the clock advance, so every op reads a
    // rate to force its own solve; otherwise the loop would run with
    // no solve at all.
    const int64_t visitsBefore = visits.value.load();
    const int64_t solvesBefore = recomputes.value.load();
    constexpr int kOps = 100;
    for (int i = 0; i < kOps; ++i) {
        FlowId id = net.startFlow({up[0], down[0]}, 1e9,
                                  FlowTag::kForeground, nullptr);
        EXPECT_EQ(net.flowRate(id), 20.0);
        net.cancelFlow(id);
        EXPECT_EQ(net.currentTagRate(up[0], FlowTag::kForeground),
                  0.0);
    }
    EXPECT_EQ(recomputes.value.load() - solvesBefore, 2 * kOps);
    const int64_t delta = visits.value.load() - visitsBefore;
    // Each op re-solves one 5-flow component twice; a global solve
    // would visit all 128 flows per op. Require a hard sublinear
    // bound: well under one-quarter of global-visit cost.
    EXPECT_LE(delta, kOps * 2 * (kFlowsPerPair + 1));
    EXPECT_LT(delta,
              kOps * kPairs * kFlowsPerPair / 4);
}

TEST(SimIncremental, SameInstantChurnCostsOneSolve)
{
    // N starts and cancels at one instant: the incremental network
    // defers them into exactly one solve at the clock advance; the
    // reference network reads a rate after every op, forcing an
    // eager global solve each time. Rates must agree bit-for-bit.
    std::mt19937 rng(2024);
    std::uniform_real_distribution<double> capDist(20.0, 150.0);
    std::vector<Rate> caps;
    for (int i = 0; i < 10; ++i)
        caps.push_back(capDist(rng));
    auto &recomputes =
        telemetry::metrics().counter("sim.rate_recomputes");

    Churn inc(/*reference=*/false, caps);
    Churn ref(/*reference=*/true, caps);
    std::vector<Op> ops;
    for (int i = 0; i < 40; ++i) {
        Op op;
        op.at = 1.0;
        op.kind = (i % 3 == 2) ? Op::kCancel : Op::kStart;
        op.path = {static_cast<ResourceId>(i % 10),
                   static_cast<ResourceId>((i * 7 + 3) % 10)};
        if (op.path[0] == op.path[1])
            op.path.pop_back();
        op.size = 1000.0 + 37.0 * i;
        op.victim = rng();
        ops.push_back(std::move(op));
    }
    // Settle a first batch so the instant's churn re-rates live
    // flows, then hit t=1 with the whole script (no flow can finish
    // before then: the smallest needs over 6 s).
    for (std::size_t i = 0; i < 10; ++i) {
        Op first = ops[i];
        first.at = 0.0;
        first.kind = Op::kStart;
        inc.apply(first);
        ref.apply(first);
    }
    inc.drain(1.0);
    ref.drain(1.0);

    const int64_t before = recomputes.value.load();
    for (const Op &op : ops)
        inc.apply(op);
    EXPECT_EQ(recomputes.value.load(), before)
        << "a same-instant mutation solved eagerly";
    inc.drain(1.0 + 1e-9);
    EXPECT_EQ(recomputes.value.load(), before + 1);

    for (const Op &op : ops) {
        ref.apply(op);
        if (!ref.live().empty())
            ref.net().flowRate(ref.live().back());
    }
    ref.drain(1.0 + 1e-9);
    expectIdentical(inc, ref);
}

/**
 * Slice-pipelined chains: each chain sends `kSlices` slices one after
 * another over a fixed path (slice s+1 starts in slice s's completion
 * callback), under capacity steps. Everything is driven by events
 * scheduled up front, so two instances can be run differently and
 * compared.
 */
class Pipelines
{
  public:
    static constexpr int kChains = 8;
    static constexpr int kSlices = 12;

    explicit Pipelines(uint32_t seed)
    {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> capDist(20.0, 150.0);
        std::uniform_real_distribution<double> sizeDist(30.0, 400.0);
        std::uniform_real_distribution<double> timeDist(0.0, 40.0);
        constexpr int kResources = 10;
        for (int i = 0; i < kResources; ++i)
            net_.addResource("r" + std::to_string(i), capDist(rng));
        for (int c = 0; c < kChains; ++c) {
            std::vector<ResourceId> path;
            while (path.size() < 2 + static_cast<std::size_t>(c % 2)) {
                const auto r =
                    static_cast<ResourceId>(rng() % kResources);
                if (std::find(path.begin(), path.end(), r) ==
                    path.end())
                    path.push_back(r);
            }
            paths_.push_back(std::move(path));
            sizes_.push_back(sizeDist(rng));
        }
        for (int c = 0; c < kChains; ++c)
            startSlice(c, 0);
        for (int i = 0; i < 12; ++i) {
            const auto r = static_cast<ResourceId>(rng() % kResources);
            const Rate cap = capDist(rng);
            sim_.schedule(timeDist(rng),
                          [this, r, cap] { net_.setCapacity(r, cap); });
        }
    }

    /** Adds, at each of `times`, a flow over chain `chain`'s path
     * that is cancelled at the same instant it starts. */
    void addStartCancel(const std::vector<SimTime> &times, int chain)
    {
        for (SimTime t : times)
            sim_.schedule(t, [this, chain] {
                const FlowId id = net_.startFlow(
                    paths_[static_cast<std::size_t>(chain)], 500.0,
                    FlowTag::kForeground, nullptr);
                net_.cancelFlow(id);
            });
    }

    Simulator &sim() { return sim_; }
    FlowNetwork &net() { return net_; }
    /** (instant, chain * kSlices + slice) per finished slice. */
    const std::vector<std::pair<SimTime, int>> &done() const
    {
        return done_;
    }

  private:
    void startSlice(int chain, int slice)
    {
        if (slice == kSlices)
            return;
        const auto c = static_cast<std::size_t>(chain);
        net_.startFlow(paths_[c], sizes_[c], FlowTag::kRepair,
                       [this, chain, slice] {
                           done_.push_back(
                               {sim_.now(), chain * kSlices + slice});
                           startSlice(chain, slice + 1);
                       });
    }

    Simulator sim_;
    FlowNetwork net_{sim_};
    std::vector<std::vector<ResourceId>> paths_;
    std::vector<Bytes> sizes_;
    std::vector<std::pair<SimTime, int>> done_;
};

void
expectSameBytes(FlowNetwork &a, FlowNetwork &b)
{
    ASSERT_EQ(a.resourceCount(), b.resourceCount());
    for (std::size_t r = 0; r < a.resourceCount(); ++r)
        for (int t = 0; t < kNumFlowTags; ++t) {
            const auto rid = static_cast<ResourceId>(r);
            const auto tag = static_cast<FlowTag>(t);
            EXPECT_EQ(a.taggedBytes(rid, tag), b.taggedBytes(rid, tag))
                << "resource " << r << " tag " << t;
        }
}

TEST(SimIncremental, SameInstantStartCancelLeavesNoTrace)
{
    // A flow started and cancelled within one instant changes no
    // rate across that instant, so it must not perturb any other
    // flow: not its completion time, not a tagged byte.
    for (uint32_t seed : {3u, 17u, 4242u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Pipelines plain(seed);
        Pipelines churned(seed);
        std::vector<SimTime> times;
        for (int i = 1; i <= 60; ++i)
            times.push_back(0.37 * i);
        churned.addStartCancel(times, 0);
        churned.addStartCancel(times, 3);
        plain.sim().run();
        churned.sim().run();
        ASSERT_EQ(plain.done().size(),
                  static_cast<std::size_t>(Pipelines::kChains *
                                           Pipelines::kSlices));
        EXPECT_EQ(plain.done(), churned.done());
        expectSameBytes(plain.net(), churned.net());
    }
}

TEST(SimIncremental, SteppedRunMatchesSingleRun)
{
    // Running to T in 0.1 s steps moves the clock through extra
    // instants; the pre-advance solve must make that invisible.
    for (uint32_t seed : {5u, 99u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Pipelines once(seed);
        Pipelines stepped(seed);
        const SimTime horizon = 400.0;
        const std::size_t ran = once.sim().run(horizon);
        std::size_t steppedRan = 0;
        for (int i = 1; i <= 4000; ++i)
            steppedRan += stepped.sim().run(0.1 * i);
        EXPECT_EQ(stepped.sim().now(), once.sim().now());
        EXPECT_EQ(ran, steppedRan);
        EXPECT_EQ(once.sim().eventsExecuted(),
                  stepped.sim().eventsExecuted());
        ASSERT_EQ(once.done().size(),
                  static_cast<std::size_t>(Pipelines::kChains *
                                           Pipelines::kSlices));
        EXPECT_EQ(once.done(), stepped.done());
        expectSameBytes(once.net(), stepped.net());
    }
}

TEST(SimIncremental, OnePreAdvanceHookPerSimulator)
{
    Simulator sim;
    {
        FlowNetwork net(sim);
        EXPECT_DEATH(FlowNetwork second(sim), "pre-advance hook");
    }
    // The destroyed network unregistered its hook: a new one fits.
    FlowNetwork again(sim);
    const ResourceId r = again.addResource("r", 10.0);
    bool done = false;
    again.startFlow({r}, 5.0, FlowTag::kForeground,
                    [&done] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 0.5);
}

TEST(SimIncremental, CapacityChangeOnStalledComponentResumes)
{
    // Mode parity across a stall/resume cycle (rate 0 -> positive).
    for (bool reference : {false, true}) {
        Simulator sim;
        FlowNetwork net(sim);
        net.setReferenceSolver(reference);
        const ResourceId r = net.addResource("r", 0.0);
        bool done = false;
        net.startFlow({r}, 100.0, FlowTag::kForeground,
                      [&done] { done = true; });
        sim.run(10.0);
        EXPECT_FALSE(done);
        EXPECT_EQ(net.flowRate(0), 0.0);
        net.setCapacity(r, 10.0);
        sim.run(25.0);
        EXPECT_TRUE(done) << "reference=" << reference;
        EXPECT_EQ(net.activeFlowCount(), 0u);
    }
}

} // namespace
} // namespace sim
} // namespace chameleon

/**
 * @file
 * Tests for the discrete-event kernel and the max-min fair fluid-flow
 * network: event ordering/cancellation, fair-share allocation,
 * bottleneck shifting, capacity changes mid-flow, cancellation
 * accounting, and per-tag usage bookkeeping.
 */

#include <vector>

#include <gtest/gtest.h>

#include "sim/flow_network.hh"
#include "sim/simulator.hh"
#include "util/types.hh"

namespace chameleon {
namespace sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(3.0, [&] { order.push_back(3); });
    sim.schedule(1.0, [&] { order.push_back(1); });
    sim.schedule(2.0, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeFifo)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(1.0, [&] { order.push_back(1); });
    sim.schedule(1.0, [&] { order.push_back(2); });
    sim.schedule(1.0, [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelledEventDoesNotRun)
{
    Simulator sim;
    bool ran = false;
    auto handle = sim.schedule(1.0, [&] { ran = true; });
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    sim.run();
    EXPECT_FALSE(ran);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5)
            sim.scheduleAfter(1.0, tick);
    };
    sim.schedule(0.0, tick);
    sim.run();
    EXPECT_EQ(count, 5);
    EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, RunUntilStopsEarly)
{
    Simulator sim;
    int count = 0;
    sim.schedule(1.0, [&] { ++count; });
    sim.schedule(5.0, [&] { ++count; });
    sim.run(2.0);
    EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(sim.now(), 2.0);
    sim.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, IdleDetection)
{
    Simulator sim;
    EXPECT_TRUE(sim.idle());
    auto h = sim.schedule(1.0, [] {});
    EXPECT_FALSE(sim.idle());
    h.cancel();
    EXPECT_TRUE(sim.idle());
}

class FlowNetworkTest : public ::testing::Test
{
  protected:
    Simulator sim;
    FlowNetwork net{sim};
};

TEST_F(FlowNetworkTest, SingleFlowUsesFullCapacity)
{
    ResourceId r = net.addResource("link", 100.0);
    SimTime done = -1.0;
    net.startFlow({r}, 1000.0, FlowTag::kRepair,
                  [&] { done = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST_F(FlowNetworkTest, TwoFlowsShareFairly)
{
    ResourceId r = net.addResource("link", 100.0);
    SimTime d1 = -1, d2 = -1;
    net.startFlow({r}, 500.0, FlowTag::kRepair, [&] { d1 = sim.now(); });
    net.startFlow({r}, 500.0, FlowTag::kRepair, [&] { d2 = sim.now(); });
    sim.run();
    // Both at 50 B/s until t=10.
    EXPECT_DOUBLE_EQ(d1, 10.0);
    EXPECT_DOUBLE_EQ(d2, 10.0);
}

TEST_F(FlowNetworkTest, ShortFlowFreesBandwidth)
{
    ResourceId r = net.addResource("link", 100.0);
    SimTime d1 = -1, d2 = -1;
    net.startFlow({r}, 100.0, FlowTag::kRepair, [&] { d1 = sim.now(); });
    net.startFlow({r}, 500.0, FlowTag::kRepair, [&] { d2 = sim.now(); });
    sim.run();
    // Flow1: 50 B/s -> done at t=2 (100 bytes). Flow2: 100 bytes by
    // t=2, then 400 more at 100 B/s -> done at t=6.
    EXPECT_DOUBLE_EQ(d1, 2.0);
    EXPECT_DOUBLE_EQ(d2, 6.0);
}

TEST_F(FlowNetworkTest, MultiResourceBottleneck)
{
    ResourceId fast = net.addResource("fast", 100.0);
    ResourceId slow = net.addResource("slow", 10.0);
    SimTime done = -1;
    net.startFlow({fast, slow}, 100.0, FlowTag::kRepair,
                  [&] { done = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST_F(FlowNetworkTest, MaxMinAllocationIsCorrect)
{
    // Classic example: flows A:{r1}, B:{r1,r2}, C:{r2}.
    // r1 cap 10, r2 cap 4: B is limited by r2 share 2; A gets 8.
    ResourceId r1 = net.addResource("r1", 10.0);
    ResourceId r2 = net.addResource("r2", 4.0);
    FlowId fa = net.startFlow({r1}, 1e9, FlowTag::kRepair, nullptr);
    FlowId fb = net.startFlow({r1, r2}, 1e9, FlowTag::kRepair, nullptr);
    FlowId fc = net.startFlow({r2}, 1e9, FlowTag::kRepair, nullptr);
    EXPECT_DOUBLE_EQ(net.flowRate(fa), 8.0);
    EXPECT_DOUBLE_EQ(net.flowRate(fb), 2.0);
    EXPECT_DOUBLE_EQ(net.flowRate(fc), 2.0);
}

TEST_F(FlowNetworkTest, CapacityChangeRebalances)
{
    ResourceId r = net.addResource("link", 100.0);
    SimTime done = -1;
    net.startFlow({r}, 1000.0, FlowTag::kRepair,
                  [&] { done = sim.now(); });
    // Throttle to 10 B/s at t=5 (500 bytes transferred by then).
    sim.schedule(5.0, [&] { net.setCapacity(r, 10.0); });
    sim.run();
    EXPECT_DOUBLE_EQ(done, 5.0 + 500.0 / 10.0);
}

TEST_F(FlowNetworkTest, ZeroCapacityStallsFlow)
{
    ResourceId r = net.addResource("link", 100.0);
    bool completed = false;
    net.startFlow({r}, 1000.0, FlowTag::kRepair,
                  [&] { completed = true; });
    sim.schedule(1.0, [&] { net.setCapacity(r, 0.0); });
    sim.schedule(50.0, [&] { /* keep clock alive */ });
    sim.run();
    EXPECT_FALSE(completed);
    // Un-stall and confirm completion.
    net.setCapacity(r, 100.0);
    sim.run();
    EXPECT_TRUE(completed);
}

TEST_F(FlowNetworkTest, CancelReturnsRemaining)
{
    ResourceId r = net.addResource("link", 100.0);
    FlowId f = net.startFlow({r}, 1000.0, FlowTag::kRepair, nullptr);
    sim.schedule(3.0, [&] {
        Bytes rem = net.cancelFlow(f);
        EXPECT_DOUBLE_EQ(rem, 700.0);
    });
    sim.run();
    EXPECT_FALSE(net.flowActive(f));
}

TEST_F(FlowNetworkTest, CancelFreesBandwidthForOthers)
{
    ResourceId r = net.addResource("link", 100.0);
    FlowId f1 = net.startFlow({r}, 1e6, FlowTag::kRepair, nullptr);
    SimTime done = -1;
    net.startFlow({r}, 500.0, FlowTag::kRepair, [&] { done = sim.now(); });
    sim.schedule(2.0, [&] { net.cancelFlow(f1); });
    sim.run();
    // 100 bytes by t=2 (50 B/s), then 400 at 100 B/s -> t=6.
    EXPECT_DOUBLE_EQ(done, 6.0);
}

TEST_F(FlowNetworkTest, ZeroSizeFlowCompletesImmediately)
{
    ResourceId r = net.addResource("link", 100.0);
    bool completed = false;
    net.startFlow({r}, 0.0, FlowTag::kRepair, [&] { completed = true; });
    EXPECT_TRUE(completed);
}

TEST_F(FlowNetworkTest, CompletionCallbackCanStartFlow)
{
    ResourceId r = net.addResource("link", 100.0);
    SimTime second_done = -1;
    net.startFlow({r}, 100.0, FlowTag::kRepair, [&] {
        net.startFlow({r}, 200.0, FlowTag::kRepair,
                      [&] { second_done = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(second_done, 1.0 + 2.0);
}

TEST_F(FlowNetworkTest, TaggedByteAccounting)
{
    ResourceId r = net.addResource("link", 100.0);
    net.startFlow({r}, 300.0, FlowTag::kForeground, nullptr);
    net.startFlow({r}, 700.0, FlowTag::kRepair, nullptr);
    sim.run();
    EXPECT_NEAR(net.taggedBytes(r, FlowTag::kForeground), 300.0, 1e-6);
    EXPECT_NEAR(net.taggedBytes(r, FlowTag::kRepair), 700.0, 1e-6);
}

TEST_F(FlowNetworkTest, WindowedUsagePerTag)
{
    // The fixture's simulator already carries `net` (a simulator has
    // one network: it owns the pre-advance hook), so the
    // 1-second-window network gets its own.
    Simulator wsim;
    FlowNetwork wnet(wsim, 1.0); // 1-second windows
    ResourceId r = wnet.addResource("link", 100.0);
    wnet.startFlow({r}, 200.0, FlowTag::kForeground, nullptr);
    wsim.run();
    const auto &usage = wnet.usage(r, FlowTag::kForeground);
    ASSERT_GE(usage.windowCount(), 2u);
    EXPECT_NEAR(usage.windowRate(0), 100.0, 1e-6);
    EXPECT_NEAR(usage.windowRate(1), 100.0, 1e-6);
}

TEST_F(FlowNetworkTest, CurrentTagRate)
{
    ResourceId r = net.addResource("link", 100.0);
    net.startFlow({r}, 1e6, FlowTag::kForeground, nullptr);
    net.startFlow({r}, 1e6, FlowTag::kRepair, nullptr);
    EXPECT_DOUBLE_EQ(net.currentTagRate(r, FlowTag::kForeground), 50.0);
    EXPECT_DOUBLE_EQ(net.currentTagRate(r, FlowTag::kRepair), 50.0);
}

TEST_F(FlowNetworkTest, ManyFlowsConvergeAndComplete)
{
    // Stress: 200 flows across 10 resources in random 2-hop paths.
    std::vector<ResourceId> rs;
    for (int i = 0; i < 10; ++i)
        rs.push_back(net.addResource("r" + std::to_string(i), 50.0));
    int completed = 0;
    for (int i = 0; i < 200; ++i) {
        ResourceId a = rs[static_cast<std::size_t>(i % 10)];
        ResourceId b = rs[static_cast<std::size_t>((i + 3) % 10)];
        net.startFlow({a, b}, 100.0 + i, FlowTag::kRepair,
                      [&] { ++completed; });
    }
    sim.run();
    EXPECT_EQ(completed, 200);
    EXPECT_EQ(net.activeFlowCount(), 0u);
}

TEST_F(FlowNetworkTest, SyncIntegratesMidEvent)
{
    Simulator wsim;
    FlowNetwork wnet(wsim, 1.0);
    ResourceId r = wnet.addResource("link", 100.0);
    wnet.startFlow({r}, 1000.0, FlowTag::kRepair, nullptr);
    wsim.schedule(3.0, [&] {
        wnet.sync();
        EXPECT_NEAR(wnet.taggedBytes(r, FlowTag::kRepair), 300.0, 1e-6);
    });
    wsim.run(3.5);
}

} // namespace
} // namespace sim
} // namespace chameleon

#include "cluster/cluster.hh"

#include <algorithm>

#include "util/logging.hh"

namespace chameleon {
namespace cluster {

Cluster::Cluster(sim::Simulator &sim, const ClusterConfig &config)
    : sim_(sim), config_(config), net_(sim, config.usageWindow)
{
    CHAMELEON_ASSERT(config.numNodes >= 1, "cluster needs nodes");
    CHAMELEON_ASSERT(config.numClients >= 0, "negative client count");
    down_.assign(static_cast<std::size_t>(config.numNodes), false);
    net_.reserveResources(
        static_cast<std::size_t>(3 * config.numNodes +
                                 2 * config.numClients +
                                 2 * std::max(config.racks, 0)));
    for (int i = 0; i < config.numNodes; ++i) {
        const std::string base = "node" + std::to_string(i);
        uplinks_.push_back(net_.addResource(base + ".up",
                                            config.uplinkBw));
        downlinks_.push_back(net_.addResource(base + ".down",
                                              config.downlinkBw));
        disks_.push_back(net_.addResource(base + ".disk",
                                          config.diskBw));
    }
    for (int c = 0; c < config.numClients; ++c) {
        const std::string base = "client" + std::to_string(c);
        clientUplinks_.push_back(net_.addResource(base + ".up",
                                                  config.uplinkBw));
        clientDownlinks_.push_back(net_.addResource(base + ".down",
                                                    config.downlinkBw));
    }
    if (config.racks > 0) {
        CHAMELEON_ASSERT(config.rackOversubscription >= 1.0,
                         "oversubscription must be >= 1");
        for (int r = 0; r < config.racks; ++r) {
            int members = (config.numNodes - r + config.racks - 1) /
                          config.racks;
            Rate agg = static_cast<double>(members) *
                       config.uplinkBw / config.rackOversubscription;
            const std::string base = "rack" + std::to_string(r);
            rackUplinks_.push_back(
                net_.addResource(base + ".up", agg));
            rackDownlinks_.push_back(
                net_.addResource(base + ".down", agg));
        }
    }
}

void
Cluster::markNodeDown(NodeId node)
{
    checkNode(node);
    CHAMELEON_ASSERT(!down_[static_cast<std::size_t>(node)],
                     "node ", node, " already down");
    down_[static_cast<std::size_t>(node)] = true;
}

void
Cluster::markNodeUp(NodeId node)
{
    checkNode(node);
    CHAMELEON_ASSERT(down_[static_cast<std::size_t>(node)],
                     "node ", node, " is not down");
    down_[static_cast<std::size_t>(node)] = false;
}

bool
Cluster::nodeDown(NodeId node) const
{
    checkNode(node);
    return down_[static_cast<std::size_t>(node)];
}

int
Cluster::rackOf(NodeId node) const
{
    checkNode(node);
    if (config_.racks <= 0)
        return -1;
    return node % config_.racks;
}

sim::ResourceId
Cluster::rackUplink(int rack) const
{
    CHAMELEON_ASSERT(rack >= 0 &&
                     rack < static_cast<int>(rackUplinks_.size()),
                     "bad rack ", rack);
    return rackUplinks_[static_cast<std::size_t>(rack)];
}

sim::ResourceId
Cluster::rackDownlink(int rack) const
{
    CHAMELEON_ASSERT(rack >= 0 &&
                     rack < static_cast<int>(rackDownlinks_.size()),
                     "bad rack ", rack);
    return rackDownlinks_[static_cast<std::size_t>(rack)];
}

void
Cluster::checkNode(NodeId node) const
{
    CHAMELEON_ASSERT(node >= 0 && node < config_.numNodes,
                     "bad node id ", node);
}

void
Cluster::checkClient(int client) const
{
    CHAMELEON_ASSERT(client >= 0 && client < config_.numClients,
                     "bad client id ", client);
}

sim::ResourceId
Cluster::uplink(NodeId node) const
{
    checkNode(node);
    return uplinks_[static_cast<std::size_t>(node)];
}

sim::ResourceId
Cluster::downlink(NodeId node) const
{
    checkNode(node);
    return downlinks_[static_cast<std::size_t>(node)];
}

sim::ResourceId
Cluster::disk(NodeId node) const
{
    checkNode(node);
    return disks_[static_cast<std::size_t>(node)];
}

sim::ResourceId
Cluster::clientUplink(int client) const
{
    checkClient(client);
    return clientUplinks_[static_cast<std::size_t>(client)];
}

sim::ResourceId
Cluster::clientDownlink(int client) const
{
    checkClient(client);
    return clientDownlinks_[static_cast<std::size_t>(client)];
}

std::vector<sim::ResourceId>
Cluster::transferPath(NodeId from, NodeId to, bool read_disk,
                      bool write_disk) const
{
    checkNode(from);
    checkNode(to);
    CHAMELEON_ASSERT(from != to, "self-transfer from node ", from);
    std::vector<sim::ResourceId> path;
    if (read_disk)
        path.push_back(disk(from));
    path.push_back(uplink(from));
    int from_rack = rackOf(from);
    int to_rack = rackOf(to);
    if (from_rack >= 0 && from_rack != to_rack) {
        path.push_back(rackUplink(from_rack));
        path.push_back(rackDownlink(to_rack));
    }
    path.push_back(downlink(to));
    if (write_disk)
        path.push_back(disk(to));
    return path;
}

std::vector<sim::ResourceId>
Cluster::clientReadPath(NodeId node, int client) const
{
    std::vector<sim::ResourceId> path = {disk(node), uplink(node)};
    // Clients sit outside the racks: reads leave through the node's
    // rack aggregation uplink.
    int rack = rackOf(node);
    if (rack >= 0)
        path.push_back(rackUplink(rack));
    path.push_back(clientDownlink(client));
    return path;
}

std::vector<sim::ResourceId>
Cluster::clientWritePath(int client, NodeId node) const
{
    std::vector<sim::ResourceId> path = {clientUplink(client)};
    int rack = rackOf(node);
    if (rack >= 0)
        path.push_back(rackDownlink(rack));
    path.push_back(downlink(node));
    path.push_back(disk(node));
    return path;
}

} // namespace cluster
} // namespace chameleon

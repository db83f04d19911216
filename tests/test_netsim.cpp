// Unit tests for the network substrate: physical graph, deterministic
// shortest paths (including epochs derived from a parent), cluster layout,
// session graph and Section 4 validation.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>

#include "netsim/cluster_layout.hpp"
#include "netsim/physical_graph.hpp"
#include "netsim/session_graph.hpp"
#include "netsim/shortest_paths.hpp"
#include "netsim/spf_cache.hpp"
#include "netsim/validate.hpp"
#include "topo/random.hpp"
#include "util/rng.hpp"

namespace ibgp::netsim {
namespace {

// --- PhysicalGraph -----------------------------------------------------------

TEST(PhysicalGraph, AddAndQueryLinks) {
  PhysicalGraph g(3);
  g.add_link(0, 1, 5);
  g.add_link(1, 2, 7);
  EXPECT_EQ(g.link_cost(0, 1), 5);
  EXPECT_EQ(g.link_cost(1, 0), 5);
  EXPECT_EQ(g.link_cost(0, 2), kInfCost);
  EXPECT_TRUE(g.has_link(1, 2));
  EXPECT_EQ(g.link_count(), 2u);
}

TEST(PhysicalGraph, ParallelLinksKeepCheapest) {
  PhysicalGraph g(2);
  g.add_link(0, 1, 9);
  g.add_link(0, 1, 4);
  g.add_link(0, 1, 6);
  EXPECT_EQ(g.link_cost(0, 1), 4);
  EXPECT_EQ(g.link_count(), 1u);
}

TEST(PhysicalGraph, RejectsBadInput) {
  PhysicalGraph g(2);
  EXPECT_THROW(g.add_link(0, 0, 1), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_link(0, 5, 1), std::invalid_argument);  // out of range
  EXPECT_THROW(g.add_link(0, 1, 0), std::invalid_argument);  // non-positive
  EXPECT_THROW(g.add_link(0, 1, -3), std::invalid_argument);
}

TEST(PhysicalGraph, Connectivity) {
  PhysicalGraph g(4);
  g.add_link(0, 1, 1);
  g.add_link(2, 3, 1);
  EXPECT_FALSE(g.connected());
  g.add_link(1, 2, 1);
  EXPECT_TRUE(g.connected());
}

TEST(PhysicalGraph, AddNodeGrows) {
  PhysicalGraph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1u);
  g.add_link(0, v, 2);
  EXPECT_TRUE(g.connected());
}

// --- ShortestPaths -----------------------------------------------------------

TEST(ShortestPaths, SimpleChain) {
  PhysicalGraph g(4);
  g.add_link(0, 1, 1);
  g.add_link(1, 2, 2);
  g.add_link(2, 3, 3);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.cost(0, 3), 6);
  EXPECT_EQ(sp.cost(3, 0), 6);
  EXPECT_EQ(sp.cost(1, 1), 0);
  EXPECT_EQ(sp.next_hop(0, 3), 1u);
  EXPECT_EQ(sp.path(0, 3), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(sp.hop_count(0, 3), 3u);
}

TEST(ShortestPaths, PicksCheaperOfTwoRoutes) {
  PhysicalGraph g(4);
  g.add_link(0, 1, 10);
  g.add_link(1, 3, 10);
  g.add_link(0, 2, 3);
  g.add_link(2, 3, 3);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.cost(0, 3), 6);
  EXPECT_EQ(sp.next_hop(0, 3), 2u);
}

TEST(ShortestPaths, DeterministicTieBreakLowestNeighbor) {
  // Two equal-cost paths 0-1-3 and 0-2-3; the deterministic choice must be
  // via node 1 (lowest next hop id).
  PhysicalGraph g(4);
  g.add_link(0, 1, 5);
  g.add_link(1, 3, 5);
  g.add_link(0, 2, 5);
  g.add_link(2, 3, 5);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.cost(0, 3), 10);
  EXPECT_EQ(sp.next_hop(0, 3), 1u);
  EXPECT_EQ(sp.path(0, 3), (std::vector<NodeId>{0, 1, 3}));
}

TEST(ShortestPaths, UnreachableReported) {
  PhysicalGraph g(3);
  g.add_link(0, 1, 1);
  const ShortestPaths sp(g);
  EXPECT_FALSE(sp.reachable(0, 2));
  EXPECT_EQ(sp.cost(0, 2), kInfCost);
  EXPECT_EQ(sp.next_hop(0, 2), kNoNode);
  EXPECT_TRUE(sp.path(0, 2).empty());
  EXPECT_FALSE(sp.hop_count(0, 2).has_value());
}

TEST(ShortestPaths, PathToSelf) {
  PhysicalGraph g(2);
  g.add_link(0, 1, 1);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.path(1, 1), (std::vector<NodeId>{1}));
  EXPECT_EQ(sp.next_hop(1, 1), kNoNode);
}

TEST(ShortestPaths, HopByHopConsistency) {
  // Following next_hop from any node must realize exactly cost(u,v).
  PhysicalGraph g(6);
  g.add_link(0, 1, 2);
  g.add_link(1, 2, 2);
  g.add_link(0, 3, 1);
  g.add_link(3, 4, 1);
  g.add_link(4, 2, 1);
  g.add_link(1, 4, 5);
  g.add_link(2, 5, 4);
  const ShortestPaths sp(g);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = 0; v < 6; ++v) {
      if (u == v) continue;
      Cost walked = 0;
      NodeId cur = u;
      while (cur != v) {
        const NodeId next = sp.next_hop(cur, v);
        ASSERT_NE(next, kNoNode);
        walked += g.link_cost(cur, next);
        cur = next;
      }
      EXPECT_EQ(walked, sp.cost(u, v)) << u << "->" << v;
    }
  }
}

// --- Derived epochs -----------------------------------------------------------
//
// An epoch derived from a parent must equal a from-scratch build of the same
// costs bit for bit.  The reference is built the way an IGP would see the
// churned network: a fresh graph holding only the up links at their costs.

std::vector<Cost> base_costs(const PhysicalGraph& topology) {
  std::vector<Cost> costs;
  for (const auto& link : topology.links()) costs.push_back(link.cost);
  return costs;
}

PhysicalGraph with_costs(const PhysicalGraph& topology, std::span<const Cost> costs) {
  PhysicalGraph g(topology.node_count());
  const auto links = topology.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (costs[i] != kInfCost) g.add_link(links[i].a, links[i].b, costs[i]);
  }
  return g;
}

// Expects `epoch` to match a from-scratch build on every distance, every next
// hop and the fingerprint.  The reference itself is checked against the
// Bellman equations (d(u,v) <= c(u,x) + d(x,v) for every neighbor x, with
// equality for at least one when v is reachable) and the deterministic rule:
// the next hop is the lowest-numbered neighbor x achieving that equality.
void expect_exact(const ShortestPaths& epoch, const PhysicalGraph& topology,
                  std::span<const Cost> costs, const std::string& where) {
  const PhysicalGraph churned = with_costs(topology, costs);
  const ShortestPaths scratch(churned);
  const auto n = static_cast<NodeId>(topology.node_count());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(epoch.cost(u, v), scratch.cost(u, v)) << where << " d(" << u << "," << v << ")";
      ASSERT_EQ(epoch.next_hop(u, v), scratch.next_hop(u, v))
          << where << " next(" << u << "," << v << ")";
      NodeId rule = kNoNode;
      if (u != v && scratch.reachable(u, v)) {
        for (const auto& adj : churned.neighbors(u)) {
          const Cost via = adj.cost + scratch.cost(adj.neighbor, v);
          ASSERT_LE(scratch.cost(u, v), via) << where << " bellman(" << u << "," << v << ")";
          if (via == scratch.cost(u, v) && adj.neighbor < rule) rule = adj.neighbor;
        }
        ASSERT_NE(rule, kNoNode) << where << " no tight neighbor(" << u << "," << v << ")";
      }
      ASSERT_EQ(scratch.next_hop(u, v), rule) << where << " rule(" << u << "," << v << ")";
    }
  }
  ASSERT_EQ(epoch.fingerprint(), scratch.fingerprint()) << where;
}

// One random churn step on `costs`: a cost change, a link down, or a link up
// (of a link that is down).  New costs are drawn from [1, max_cost].
void churn_step(util::Xoshiro256& rng, std::span<const Cost> configured,
                std::vector<Cost>& costs, Cost max_cost) {
  const std::size_t link = rng.pick_index(costs);
  switch (rng.below(3)) {
    case 0:
      costs[link] = rng.range(1, max_cost);
      break;
    case 1:
      costs[link] = kInfCost;
      break;
    default:
      for (std::size_t i = 0; i < costs.size(); ++i) {
        const std::size_t j = (link + i) % costs.size();
        if (costs[j] == kInfCost) {
          costs[j] = configured[j];
          break;
        }
      }
  }
}

topo::RandomConfig churn_config(Cost max_link_cost) {
  topo::RandomConfig config;
  config.clusters = 5;
  config.min_clients = 1;
  config.max_clients = 4;
  config.exits = 6;
  config.extra_link_prob = 0.15;
  config.max_link_cost = max_link_cost;
  return config;
}

void run_churn_chain(const topo::RandomConfig& config, std::uint64_t seed, Cost max_cost) {
  const auto inst = topo::random_instance(config, seed);
  const PhysicalGraph& topology = inst.physical();
  const auto configured = base_costs(topology);
  auto parent_costs = configured;
  auto parent = std::make_unique<ShortestPaths>(topology);
  util::Xoshiro256 rng(seed);
  for (int step = 0; step < 120; ++step) {
    auto costs = parent_costs;
    churn_step(rng, configured, costs, max_cost);
    auto derived = std::make_unique<ShortestPaths>(topology, costs, parent.get(), parent_costs);
    expect_exact(*derived, topology, costs,
                 "seed " + std::to_string(seed) + " step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
    parent = std::move(derived);
    parent_costs = std::move(costs);
  }
}

TEST(DerivedEpoch, RandomChurnChainsMatchScratch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_churn_chain(churn_config(10), seed, 12);
    if (HasFatalFailure()) return;
  }
}

TEST(DerivedEpoch, UnitCostTiesMatchScratch) {
  // Unit costs make nearly every pair equal-cost multipath; churn moves
  // links between cost 1 and 2, creating and breaking ties at every step.
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    run_churn_chain(churn_config(1), seed, 2);
    if (HasFatalFailure()) return;
  }
}

TEST(DerivedEpoch, MultiLinkKeysFromBaseMatchScratch) {
  const auto inst = topo::random_instance(churn_config(10), 21);
  const PhysicalGraph& topology = inst.physical();
  const auto configured = base_costs(topology);
  const ShortestPaths base(topology);
  util::Xoshiro256 rng(21);
  for (int trial = 0; trial < 60; ++trial) {
    auto costs = configured;
    const auto changes = 2 + rng.below(6);
    for (std::uint64_t c = 0; c < changes; ++c) churn_step(rng, configured, costs, 12);
    const ShortestPaths derived(topology, costs, &base, configured);
    expect_exact(derived, topology, costs, "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

TEST(DerivedEpoch, PartitionsAndRejoinsMatchScratch) {
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    const auto inst = topo::random_instance(churn_config(10), seed);
    const PhysicalGraph& topology = inst.physical();
    const auto configured = base_costs(topology);
    const auto links = topology.links();
    util::Xoshiro256 rng(seed);
    std::vector<bool> side(topology.node_count());
    for (std::size_t v = 0; v < side.size(); ++v) side[v] = rng.chance(0.4);
    std::vector<std::size_t> cut;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (side[links[i].a] != side[links[i].b]) cut.push_back(i);
    }
    ASSERT_FALSE(cut.empty());

    // Whole cut in one key (multi-link partition), then re-join link by link.
    auto parent = std::make_unique<ShortestPaths>(topology);
    auto parent_costs = configured;
    auto costs = configured;
    for (const std::size_t i : cut) costs[i] = kInfCost;
    parent = std::make_unique<ShortestPaths>(topology, costs, parent.get(), parent_costs);
    parent_costs = costs;
    expect_exact(*parent, topology, costs, "seed " + std::to_string(seed) + " partitioned");
    if (HasFatalFailure()) return;
    for (const std::size_t i : cut) {
      costs[i] = configured[i];
      parent = std::make_unique<ShortestPaths>(topology, costs, parent.get(), parent_costs);
      parent_costs = costs;
      expect_exact(*parent, topology, costs, "seed " + std::to_string(seed) + " rejoin");
      if (HasFatalFailure()) return;
    }

    // Cut one link at a time until split, then restore the whole cut at once.
    for (const std::size_t i : cut) {
      costs[i] = kInfCost;
      parent = std::make_unique<ShortestPaths>(topology, costs, parent.get(), parent_costs);
      parent_costs = costs;
      expect_exact(*parent, topology, costs, "seed " + std::to_string(seed) + " split");
      if (HasFatalFailure()) return;
    }
    const ShortestPaths rejoined(topology, configured, parent.get(), parent_costs);
    expect_exact(rejoined, topology, configured, "seed " + std::to_string(seed) + " healed");
    if (HasFatalFailure()) return;
    EXPECT_EQ(rejoined.fingerprint(), ShortestPaths(topology).fingerprint());
  }
}

TEST(DerivedEpoch, SpfCacheDerivesExactlyAfterEvictingTheMru) {
  const auto inst = topo::random_instance(churn_config(10), 41);
  const PhysicalGraph& topology = inst.physical();
  const auto configured = base_costs(topology);
  SpfCache cache(topology);
  const auto base = cache.get(configured);  // first key: the pinned base
  cache.set_capacity(2);
  util::Xoshiro256 rng(41);
  auto costs = configured;
  std::vector<std::vector<Cost>> seen;
  for (int step = 0; step < 40; ++step) {
    churn_step(rng, configured, costs, 12);
    // With room for one epoch beside the base, each miss evicts the MRU
    // epoch it may just have derived from; the next miss still must be exact.
    const auto epoch = cache.get(costs);
    expect_exact(*epoch, topology, costs, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
    EXPECT_LE(cache.size(), 2u);
    seen.push_back(costs);
  }
  EXPECT_GT(cache.stats().evictions, 0u);

  // Revisiting an evicted key derives it again, exactly.
  const auto misses = cache.stats().misses;
  const auto again = cache.get(seen.front());
  expect_exact(*again, topology, seen.front(), "revisit");
  EXPECT_EQ(cache.stats().misses, misses + (seen.front() == costs ? 0 : 1));

  // Reverting to the base costs returns the pinned object itself.
  EXPECT_EQ(cache.get(configured).get(), base.get());
}

// --- ClusterLayout -----------------------------------------------------------

TEST(ClusterLayout, AssignAndQuery) {
  ClusterLayout layout(4);
  layout.assign(0, 0, Role::kReflector);
  layout.assign(1, 0, Role::kClient);
  layout.assign(2, 1, Role::kReflector);
  layout.assign(3, 1, Role::kClient);
  EXPECT_TRUE(layout.complete());
  EXPECT_EQ(layout.cluster_count(), 2u);
  EXPECT_TRUE(layout.is_reflector(0));
  EXPECT_TRUE(layout.is_client(3));
  EXPECT_TRUE(layout.same_cluster(0, 1));
  EXPECT_FALSE(layout.same_cluster(1, 2));
  EXPECT_EQ(layout.reflectors_of(0), (std::vector<NodeId>{0}));
  EXPECT_EQ(layout.clients_of(1), (std::vector<NodeId>{3}));
  EXPECT_EQ(layout.all_reflectors(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(layout.all_clients(), (std::vector<NodeId>{1, 3}));
}

TEST(ClusterLayout, IncompleteDetected) {
  ClusterLayout layout(2);
  layout.assign(0, 0, Role::kReflector);
  EXPECT_FALSE(layout.complete());  // node 1 unassigned
}

TEST(ClusterLayout, ReflectorlessClusterDetected) {
  ClusterLayout layout(2);
  layout.assign(0, 0, Role::kClient);
  layout.assign(1, 0, Role::kClient);
  EXPECT_FALSE(layout.complete());
}

TEST(ClusterLayout, RejectsDoubleAssignAndSparseIds) {
  ClusterLayout layout(3);
  layout.assign(0, 0, Role::kReflector);
  EXPECT_THROW(layout.assign(0, 0, Role::kClient), std::invalid_argument);
  EXPECT_THROW(layout.assign(1, 5, Role::kReflector), std::invalid_argument);
}

TEST(ClusterLayout, FullMeshFactory) {
  const auto layout = ClusterLayout::full_mesh(3);
  EXPECT_TRUE(layout.complete());
  EXPECT_EQ(layout.cluster_count(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_TRUE(layout.is_reflector(v));
}

// --- SessionGraph ------------------------------------------------------------

ClusterLayout two_cluster_layout() {
  ClusterLayout layout(5);
  layout.assign(0, 0, Role::kReflector);
  layout.assign(1, 0, Role::kClient);
  layout.assign(2, 0, Role::kClient);
  layout.assign(3, 1, Role::kReflector);
  layout.assign(4, 1, Role::kClient);
  return layout;
}

TEST(SessionGraph, BuildsMeshAndSpokes) {
  const auto sessions = build_session_graph(two_cluster_layout());
  EXPECT_TRUE(sessions.has_session(0, 3));   // reflector mesh
  EXPECT_TRUE(sessions.has_session(0, 1));   // client spokes
  EXPECT_TRUE(sessions.has_session(0, 2));
  EXPECT_TRUE(sessions.has_session(3, 4));
  EXPECT_FALSE(sessions.has_session(1, 2));  // no client-client by default
  EXPECT_FALSE(sessions.has_session(1, 3));  // never cross-cluster client
  EXPECT_FALSE(sessions.has_session(1, 4));
  EXPECT_EQ(sessions.session_count(), 4u);
}

TEST(SessionGraph, OptionalClientClientSameCluster) {
  const std::vector<std::pair<NodeId, NodeId>> extra{{1, 2}};
  const auto sessions = build_session_graph(two_cluster_layout(), extra);
  EXPECT_TRUE(sessions.has_session(1, 2));
}

TEST(SessionGraph, RejectsCrossClusterClientSession) {
  const std::vector<std::pair<NodeId, NodeId>> extra{{1, 4}};
  EXPECT_THROW(build_session_graph(two_cluster_layout(), extra), std::invalid_argument);
}

TEST(SessionGraph, RejectsClientSessionOnReflector) {
  const std::vector<std::pair<NodeId, NodeId>> extra{{0, 1}};
  EXPECT_THROW(build_session_graph(two_cluster_layout(), extra), std::invalid_argument);
}

TEST(SessionGraph, MultiReflectorClusterMeshed) {
  ClusterLayout layout(3);
  layout.assign(0, 0, Role::kReflector);
  layout.assign(1, 0, Role::kReflector);
  layout.assign(2, 0, Role::kClient);
  const auto sessions = build_session_graph(layout);
  EXPECT_TRUE(sessions.has_session(0, 1));  // same-cluster reflectors meshed
  EXPECT_TRUE(sessions.has_session(2, 0));  // client to BOTH reflectors
  EXPECT_TRUE(sessions.has_session(2, 1));
}

TEST(SessionGraph, PeersSortedAscending) {
  const auto sessions = build_session_graph(two_cluster_layout());
  const auto peers = sessions.peers(0);
  EXPECT_TRUE(std::is_sorted(peers.begin(), peers.end()));
}

// --- validate ----------------------------------------------------------------

TEST(Validate, AcceptsWellFormed) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(5);
  g.add_link(0, 1, 1);
  g.add_link(0, 2, 1);
  g.add_link(0, 3, 1);
  g.add_link(3, 4, 1);
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.warnings.empty());
}

TEST(Validate, DetectsMissingMeshSession) {
  const auto layout = two_cluster_layout();
  SessionGraph sessions(5);  // empty: everything missing
  PhysicalGraph g(5);
  g.add_link(0, 1, 1);
  const auto report = validate(g, layout, sessions);
  EXPECT_FALSE(report.ok());
}

TEST(Validate, WarnsOnDisconnectedPhysical) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(5);  // no links at all
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.warnings.empty());
}

TEST(Validate, WarnsOnTriangleViolation) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(5);
  g.add_link(0, 1, 1);
  g.add_link(1, 2, 1);
  g.add_link(0, 2, 100);  // direct link costlier than the 2-hop path
  g.add_link(0, 3, 1);
  g.add_link(3, 4, 1);
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_TRUE(report.ok());
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("triangle"), std::string::npos);
}

TEST(Validate, DetectsNodeCountMismatch) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(3);
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace ibgp::netsim

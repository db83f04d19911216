// Unit tests for the exit-path registry and route-view construction.

#include <gtest/gtest.h>

#include "bgp/exit_path.hpp"
#include "bgp/exit_table.hpp"
#include "bgp/selection.hpp"
#include "netsim/physical_graph.hpp"
#include "netsim/shortest_paths.hpp"

namespace ibgp::bgp {
namespace {

ExitPath path_at(NodeId node, AsId as, const std::string& name = "") {
  ExitPath path;
  path.name = name;
  path.exit_point = node;
  path.next_as = as;
  return path;
}

TEST(ExitTable, AssignsDenseIdsAndNames) {
  ExitTable table;
  const PathId a = table.add(path_at(0, 1, "alpha"));
  const PathId b = table.add(path_at(1, 2));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table[a].name, "alpha");
  EXPECT_EQ(table[b].name, "p1");  // auto-generated
}

TEST(ExitTable, AtThrowsOutOfRange) {
  ExitTable table;
  EXPECT_THROW((void)table.at(0), std::out_of_range);
  table.add(path_at(0, 1));
  EXPECT_NO_THROW((void)table.at(0));
  EXPECT_THROW((void)table.at(1), std::out_of_range);
}

TEST(ExitTable, ExitsFromFiltersByNode) {
  ExitTable table;
  table.add(path_at(0, 1));
  table.add(path_at(2, 1));
  table.add(path_at(0, 2));
  EXPECT_EQ(table.exits_from(0), (std::vector<PathId>{0, 2}));
  EXPECT_EQ(table.exits_from(1), (std::vector<PathId>{}));
  EXPECT_EQ(table.exits_from(2), (std::vector<PathId>{1}));
}

TEST(ExitTable, FindByName) {
  ExitTable table;
  table.add(path_at(0, 1, "r1"));
  EXPECT_EQ(table.find_by_name("r1"), 0u);
  EXPECT_EQ(table.find_by_name("nope"), kNoPath);
}

TEST(ExitTable, NeighborAsesSortedUnique) {
  ExitTable table;
  table.add(path_at(0, 7));
  table.add(path_at(1, 2));
  table.add(path_at(2, 7));
  EXPECT_EQ(table.neighbor_ases(), (std::vector<AsId>{2, 7}));
}

TEST(ExitPath, ToStringContainsAttributes) {
  ExitPath path = path_at(5, 3, "r9");
  path.med = 42;
  path.local_pref = 77;
  const auto text = to_string(path);
  EXPECT_NE(text.find("r9"), std::string::npos);
  EXPECT_NE(text.find("AS3"), std::string::npos);
  EXPECT_NE(text.find("med=42"), std::string::npos);
  EXPECT_NE(text.find("lp=77"), std::string::npos);
}

TEST(RouteView, MakeRouteViewComputesMetricAndClass) {
  netsim::PhysicalGraph graph(3);
  graph.add_link(0, 1, 4);
  graph.add_link(1, 2, 6);
  const netsim::ShortestPaths igp(graph);

  ExitTable table;
  ExitPath path = path_at(2, 1);
  path.exit_cost = 5;
  path.ebgp_peer = 900;
  const PathId id = table.add(path);

  const auto remote = make_route_view(table, igp, 0, {id, 33});
  ASSERT_TRUE(remote);
  EXPECT_EQ(remote->metric, 4 + 6 + 5);
  EXPECT_FALSE(remote->is_ebgp);
  EXPECT_EQ(remote->learned_from, 33u);

  const auto own = make_route_view(table, igp, 2, {id, 900});
  ASSERT_TRUE(own);
  EXPECT_EQ(own->metric, 5);  // exit cost only
  EXPECT_TRUE(own->is_ebgp);
}

TEST(RouteView, UnreachableGivesNullopt) {
  netsim::PhysicalGraph graph(3);
  graph.add_link(0, 1, 1);  // node 2 isolated
  const netsim::ShortestPaths igp(graph);
  ExitTable table;
  const PathId id = table.add(path_at(2, 1));
  EXPECT_FALSE(make_route_view(table, igp, 0, {id, 1}).has_value());
}

}  // namespace
}  // namespace ibgp::bgp

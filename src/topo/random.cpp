#include "topo/random.hpp"

#include <string>
#include <vector>

#include "netsim/session_graph.hpp"
#include "util/rng.hpp"

namespace ibgp::topo {

core::Instance random_instance(const RandomConfig& config, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);

  netsim::ClusterLayout layout(0);
  std::vector<std::string> names;
  std::vector<NodeId> clients;
  std::vector<NodeId> reflectors;
  std::size_t node_count = 0;

  auto new_node = [&](netsim::ClusterId c, netsim::Role role, const std::string& label) {
    (void)c;
    (void)role;
    names.push_back(label);
    return static_cast<NodeId>(node_count++);
  };

  // First pass: decide the roster so the layout can be sized up front.
  struct Member {
    netsim::ClusterId cluster;
    netsim::Role role;
  };
  std::vector<Member> roster;
  for (netsim::ClusterId c = 0; c < config.clusters; ++c) {
    roster.push_back({c, netsim::Role::kReflector});
    if (rng.chance(config.second_reflector_prob)) {
      roster.push_back({c, netsim::Role::kReflector});
    }
    const auto n_clients = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(config.min_clients),
                  static_cast<std::int64_t>(config.max_clients)));
    for (std::size_t i = 0; i < n_clients; ++i) roster.push_back({c, netsim::Role::kClient});
  }

  layout = netsim::ClusterLayout(roster.size());
  std::vector<std::size_t> rr_per_cluster(config.clusters, 0);
  std::vector<std::size_t> cl_per_cluster(config.clusters, 0);
  for (const Member& member : roster) {
    std::string label;
    if (member.role == netsim::Role::kReflector) {
      label = "RR" + std::to_string(member.cluster);
      if (rr_per_cluster[member.cluster]++ > 0) {
        label += '_' + std::to_string(rr_per_cluster[member.cluster] - 1);
      }
    } else {
      label = 'c' + std::to_string(member.cluster) + "_" +
              std::to_string(cl_per_cluster[member.cluster]++);
    }
    const NodeId v = new_node(member.cluster, member.role, label);
    layout.assign(v, member.cluster, member.role);
    if (member.role == netsim::Role::kReflector) {
      reflectors.push_back(v);
    } else {
      clients.push_back(v);
    }
  }

  // Physical skeleton: chain the reflectors (connected), then spoke every
  // client to one reflector of its cluster, then sprinkle extra links.
  netsim::PhysicalGraph physical(node_count);
  auto rand_cost = [&]() {
    return static_cast<Cost>(rng.range(1, static_cast<std::int64_t>(config.max_link_cost)));
  };
  for (std::size_t i = 1; i < reflectors.size(); ++i) {
    physical.add_link(reflectors[i - 1], reflectors[i], rand_cost());
  }
  for (const NodeId client : clients) {
    const auto cluster_rrs = layout.reflectors_of(layout.cluster_of(client));
    const NodeId rr = cluster_rrs[rng.pick_index(cluster_rrs)];
    physical.add_link(client, rr, rand_cost());
  }
  for (NodeId a = 0; a < node_count; ++a) {
    for (NodeId b = a + 1; b < node_count; ++b) {
      if (!physical.has_link(a, b) && rng.chance(config.extra_link_prob)) {
        physical.add_link(a, b, rand_cost());
      }
    }
  }

  netsim::SessionGraph sessions = netsim::build_session_graph(layout);

  // Exit paths.
  bgp::ExitTable table;
  const std::size_t ases = std::max<std::size_t>(1, config.neighbor_ases);
  for (std::size_t i = 0; i < config.exits; ++i) {
    bgp::ExitPath path;
    path.name = 'r' + std::to_string(i + 1);
    if (config.exits_at_clients_only && !clients.empty()) {
      path.exit_point = clients[rng.pick_index(clients)];
    } else {
      path.exit_point = static_cast<NodeId>(rng.below(node_count));
    }
    path.next_as = static_cast<AsId>(1 + rng.below(ases));
    path.med = static_cast<Med>(rng.range(0, static_cast<std::int64_t>(config.max_med)));
    path.exit_cost =
        static_cast<Cost>(rng.range(0, static_cast<std::int64_t>(config.max_exit_cost)));
    path.local_pref = config.equal_local_pref
                          ? LocalPref{100}
                          : static_cast<LocalPref>(100 + rng.below(2) * 10);
    path.as_path_length = config.equal_as_path_length
                              ? std::uint32_t{3}
                              : static_cast<std::uint32_t>(3 + rng.below(2));
    path.ebgp_peer = static_cast<BgpId>(1000 + i);
    table.add(std::move(path));
  }

  return core::Instance("random-" + std::to_string(seed), std::move(physical),
                        std::move(layout), std::move(sessions), std::move(table),
                        config.policy, {}, std::move(names));
}

}  // namespace ibgp::topo

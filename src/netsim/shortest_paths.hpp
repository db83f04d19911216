#pragma once
// Deterministic all-pairs shortest paths over the physical graph.
//
// Section 4: "The shortest path, SP(u, v), between two nodes in V, is chosen
// (deterministically) from one of the least cost paths."  We realize the
// deterministic choice hop-by-hop: at node u, the selected next hop toward v
// is the lowest-numbered neighbor x minimizing cost(u,x) + dist(x,v).  This
// matches how an IGP forwards packets (each hop makes an independent,
// consistent choice) and is exactly what the forwarding-plane analysis of
// Section 7/8 (routing loops, Fig 14) requires.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netsim/physical_graph.hpp"
#include "util/types.hpp"

namespace ibgp::netsim {

class ShortestPaths {
 public:
  /// Runs Dijkstra from every node; each pass also yields the deterministic
  /// next hops toward its root.  O(n * m log n).  The graph is only used
  /// during construction — the object holds no reference to it afterwards,
  /// so it stays valid across moves/destruction of the source graph.
  explicit ShortestPaths(const PhysicalGraph& graph);

  /// The epoch of `topology` with its link costs replaced by `costs`
  /// (index-aligned with topology.links(), kInfCost = link down).
  ///
  /// Given `parent` — the epoch of the same topology under `parent_costs` —
  /// it starts from a copy of the parent and re-runs Dijkstra only from the
  /// roots whose distances or tight-edge DAG a changed link can touch:
  ///   - a link whose cost rose or which went down, when it was tight from
  ///     the root (d(v,a) + c_old == d(v,b), either direction);
  ///   - a link whose cost fell or which came up, when d(v,a) + c_new <=
  ///     d(v,b) in either direction or exactly one end was unreachable.
  /// For every other root the parent's distances stay a feasible potential
  /// that no shortest path loses, so its row, column and next hops carry
  /// over unchanged.  Without a parent every root is recomputed.  Either
  /// way the result is identical to a from-scratch build, fingerprint
  /// included.  Throws std::invalid_argument on a size mismatch.
  ShortestPaths(const PhysicalGraph& topology, std::span<const Cost> costs,
                const ShortestPaths* parent = nullptr,
                std::span<const Cost> parent_costs = {});

  [[nodiscard]] std::size_t node_count() const { return n_; }

  /// IGP cost of SP(u, v); kInfCost if v is unreachable from u. dist(u,u)=0.
  [[nodiscard]] Cost cost(NodeId u, NodeId v) const { return dist_[index(u, v)]; }

  [[nodiscard]] bool reachable(NodeId u, NodeId v) const {
    return cost(u, v) != kInfCost;
  }

  /// The deterministic next hop from u toward v (u != v, v reachable).
  /// Returns kNoNode when v is unreachable or u == v.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId v) const;

  /// The full selected shortest path u = p_0, p_1, ..., p_k = v
  /// (empty if unreachable).  path(u,u) == {u}.
  [[nodiscard]] std::vector<NodeId> path(NodeId u, NodeId v) const;

  /// Number of hops on the selected path, or nullopt if unreachable.
  [[nodiscard]] std::optional<std::size_t> hop_count(NodeId u, NodeId v) const;

  /// Order-dependent 64-bit digest of the full distance + next-hop
  /// matrices, precomputed at construction.  Two epochs with equal
  /// fingerprints route identically (up to hash collision); trace hashes
  /// use it to pin an engine's IGP-epoch timeline.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  [[nodiscard]] std::size_t index(NodeId u, NodeId v) const {
    return static_cast<std::size_t>(u) * n_ + v;
  }

  std::size_t n_;
  std::vector<Cost> dist_;      // row-major n x n
  std::vector<NodeId> next_;    // row-major n x n; kNoNode when unreachable
  std::uint64_t fingerprint_ = 0;
};

}  // namespace ibgp::netsim

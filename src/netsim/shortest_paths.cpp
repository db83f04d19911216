#include "netsim/shortest_paths.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "netsim/link_state.hpp"
#include "util/hash.hpp"

namespace ibgp::netsim {

namespace {

// Contiguous adjacency of the links that are up under `costs`: the edges of
// node v are adj[begin[v] .. begin[v + 1]).
struct Csr {
  std::vector<std::size_t> begin;
  std::vector<Adjacency> adj;
};

Csr make_csr(std::size_t n, std::span<const Link> links, std::span<const Cost> costs) {
  Csr g;
  g.begin.assign(n + 1, 0);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (costs[i] == kInfCost) continue;
    ++g.begin[links[i].a + 1];
    ++g.begin[links[i].b + 1];
  }
  std::partial_sum(g.begin.begin(), g.begin.end(), g.begin.begin());
  std::vector<std::size_t> fill(g.begin.begin(), g.begin.end() - 1);
  g.adj.resize(g.begin[n]);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (costs[i] == kInfCost) continue;
    g.adj[fill[links[i].a]++] = {links[i].b, costs[i]};
    g.adj[fill[links[i].b]++] = {links[i].a, costs[i]};
  }
  return g;
}

// Binary min-heap of (tentative distance, node) with decrease-key through a
// position index.  Its buffers are sized once and reused for every root.
class NodeHeap {
 public:
  explicit NodeHeap(std::size_t n) : pos_(n, kAbsent) { heap_.reserve(n); }

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Inserts v with distance d, or lowers v's distance to d.
  void push_or_decrease(NodeId v, Cost d) {
    std::uint32_t i = pos_[v];
    if (i == kAbsent) {
      i = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back({d, v});
    }
    sift_up(i, {d, v});
  }

  NodeId pop() {
    const NodeId top = heap_.front().node;
    pos_[top] = kAbsent;
    const Item last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return top;
  }

 private:
  struct Item {
    Cost dist;
    NodeId node;
  };
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  void sift_up(std::uint32_t i, Item item) {
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (heap_[parent].dist <= item.dist) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, item);
  }

  void sift_down(std::uint32_t i, Item item) {
    const auto size = static_cast<std::uint32_t>(heap_.size());
    for (std::uint32_t child = 2 * i + 1; child < size; child = 2 * i + 1) {
      if (child + 1 < size && heap_[child + 1].dist < heap_[child].dist) ++child;
      if (item.dist <= heap_[child].dist) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, item);
  }

  void place(std::uint32_t i, Item item) {
    heap_[i] = item;
    pos_[item.node] = i;
  }

  std::vector<Item> heap_;
  std::vector<std::uint32_t> pos_;
};

// True iff changing one link a—b from `old_cost` to `new_cost` can alter the
// distances or the tight-edge DAG of the root whose distances are `d`.
// Unreachable ends need no special case: kInfCost lies far above any real
// distance and adding one link cost to it cannot overflow, so a link with
// exactly one unreachable end counts as joining (d + new_cost <= kInfCost),
// and one with both ends unreachable touches nothing.
bool touches_root(const Cost* d, const Link& link, Cost old_cost, Cost new_cost) {
  const Cost da = d[link.a];
  const Cost db = d[link.b];
  if (new_cost > old_cost) {  // cost rose or link went down: was it tight?
    return da + old_cost == db || db + old_cost == da;
  }
  // Cost fell or link came up: does it join, shorten or tie a path?
  return da + new_cost <= db || db + new_cost <= da;
}

}  // namespace

ShortestPaths::ShortestPaths(const PhysicalGraph& graph)
    : ShortestPaths(graph, LinkState(graph).effective()) {}

ShortestPaths::ShortestPaths(const PhysicalGraph& topology, std::span<const Cost> costs,
                             const ShortestPaths* parent,
                             std::span<const Cost> parent_costs)
    : n_(topology.node_count()) {
  const auto links = topology.links();
  if (costs.size() != links.size() ||
      (parent != nullptr && (parent->n_ != n_ || parent_costs.size() != links.size()))) {
    throw std::invalid_argument("ShortestPaths: cost vector or parent size mismatch");
  }

  // Roots to (re)compute: all of them without a parent, else only those a
  // changed link touches, judged on the parent's distances.
  std::vector<bool> affected(n_, parent == nullptr);
  if (parent == nullptr) {
    dist_.assign(n_ * n_, kInfCost);
    next_.assign(n_ * n_, kNoNode);
  } else {
    dist_ = parent->dist_;
    next_ = parent->next_;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (costs[i] == parent_costs[i]) continue;
      for (NodeId v = 0; v < n_; ++v) {
        if (!affected[v]) {
          affected[v] = touches_root(parent->dist_.data() + index(v, 0), links[i],
                                     parent_costs[i], costs[i]);
        }
      }
    }
  }

  // Dijkstra from root v computes d(v, .) = d(., v) (costs are symmetric),
  // so it writes row v and column v.  With positive costs every tight
  // predecessor x of u (d(v,x) + c(x,u) == d(v,u)) settles before u and
  // relaxes it, so keeping the lowest such x yields exactly the next hop
  // from u toward v: the lowest-numbered neighbor x with
  // c(u,x) + d(x,v) == d(u,v).
  const Csr graph = make_csr(n_, links, costs);
  NodeHeap heap(n_);
  std::vector<NodeId> pred(n_);
  for (NodeId v = 0; v < n_; ++v) {
    if (!affected[v]) continue;
    Cost* d = dist_.data() + index(v, 0);
    std::fill(d, d + n_, kInfCost);
    std::fill(pred.begin(), pred.end(), kNoNode);
    d[v] = 0;
    heap.push_or_decrease(v, 0);
    while (!heap.empty()) {
      const NodeId x = heap.pop();
      for (std::size_t e = graph.begin[x]; e < graph.begin[x + 1]; ++e) {
        const NodeId u = graph.adj[e].neighbor;
        const Cost nd = d[x] + graph.adj[e].cost;
        if (nd < d[u]) {
          d[u] = nd;
          pred[u] = x;
          heap.push_or_decrease(u, nd);
        } else if (nd == d[u] && x < pred[u]) {
          pred[u] = x;
        }
      }
    }
    for (NodeId u = 0; u < n_; ++u) {
      dist_[index(u, v)] = d[u];
      next_[index(u, v)] = pred[u];
    }
  }

  util::Fingerprint fp;
  fp.add(n_).add_range(dist_).add_range(next_);
  fingerprint_ = fp.value();
}

NodeId ShortestPaths::next_hop(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) throw std::invalid_argument("ShortestPaths: node out of range");
  if (u == v) return kNoNode;
  return next_[index(u, v)];
}

std::vector<NodeId> ShortestPaths::path(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) throw std::invalid_argument("ShortestPaths: node out of range");
  std::vector<NodeId> out;
  if (!reachable(u, v)) return out;
  out.push_back(u);
  NodeId cur = u;
  while (cur != v) {
    cur = next_hop(cur, v);
    // next_hop on a reachable pair always advances strictly toward v
    // (distance decreases), so this loop terminates.
    out.push_back(cur);
  }
  return out;
}

std::optional<std::size_t> ShortestPaths::hop_count(NodeId u, NodeId v) const {
  if (!reachable(u, v)) return std::nullopt;
  return path(u, v).size() - 1;
}

}  // namespace ibgp::netsim

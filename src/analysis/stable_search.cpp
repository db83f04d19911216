#include "analysis/stable_search.hpp"

#include <algorithm>
#include <limits>

#include "core/transfer.hpp"

namespace ibgp::analysis {

namespace {

/// Computes Choose_best(u) for a fully assigned neighborhood.
std::optional<bgp::RouteView> best_given_neighbors(const core::Instance& inst, NodeId u,
                                                   const StableSolution& assignment) {
  constexpr BgpId kUnset = std::numeric_limits<BgpId>::max();
  std::vector<BgpId> learned(inst.exits().size(), kUnset);

  for (const auto& path : inst.exits().all()) {
    if (path.exit_point == u) learned[path.id] = path.ebgp_peer;
  }
  for (const NodeId v : inst.sessions().peers(u)) {
    const PathId b = assignment[v];
    if (b == kNoPath) continue;
    if (!core::transfer_allowed(inst, v, u, b)) continue;
    if (inst.exits()[b].exit_point == u) continue;
    learned[b] = std::min(learned[b], inst.bgp_id(v));
  }

  std::vector<bgp::Candidate> candidates;
  for (PathId p = 0; p < learned.size(); ++p) {
    if (learned[p] != kUnset) candidates.push_back({p, learned[p]});
  }
  return bgp::choose_best(inst.exits(), inst.igp(), u, candidates, inst.policy());
}

bool consistent_at(const core::Instance& inst, NodeId u, const StableSolution& assignment) {
  const auto best = best_given_neighbors(inst, u, assignment);
  const PathId chosen = best ? best->path : kNoPath;
  return chosen == assignment[u];
}

/// dominant_safe[p]: p survives selection rules 1-3 against the entire exit
/// universe — no visible-set composition can ever eliminate it there.
std::vector<bool> compute_dominant_safe(const core::Instance& inst) {
  LocalPref max_lp = 0;
  for (const auto& path : inst.exits().all()) max_lp = std::max(max_lp, path.local_pref);
  std::uint32_t min_len = std::numeric_limits<std::uint32_t>::max();
  for (const auto& path : inst.exits().all()) {
    if (path.local_pref == max_lp) min_len = std::min(min_len, path.as_path_length);
  }
  std::vector<bool> safe(inst.exits().size(), false);
  for (const auto& p : inst.exits().all()) {
    if (p.local_pref != max_lp || p.as_path_length != min_len) continue;
    bool ok = true;
    if (const auto group = bgp::med_group(inst.policy(), p.next_as)) {
      for (const auto& q : inst.exits().all()) {
        if (q.id != p.id && q.local_pref == max_lp && q.as_path_length == min_len &&
            q.med < p.med && bgp::med_group(inst.policy(), q.next_as) == group) {
          ok = false;
          break;
        }
      }
    }
    safe[p.id] = ok;
  }
  return safe;
}

/// Per-node candidate domains with the two sound prunes described in the
/// header.
std::vector<std::vector<PathId>> build_domains(const core::Instance& inst,
                                               const std::vector<bool>& dominant_safe) {
  const std::size_t n = inst.node_count();
  std::vector<std::vector<PathId>> domains(n);

  for (NodeId u = 0; u < n; ++u) {
    const auto own = inst.exits().exits_from(u);
    bool ebgp_dominant = false;
    if (inst.policy().order == bgp::RuleOrder::kPreferEbgpFirst) {
      for (const PathId p : own) {
        if (dominant_safe[p]) {
          ebgp_dominant = true;
          break;
        }
      }
    }
    if (ebgp_dominant) {
      // Rule 4 guarantees best(u) is an own exit in every reachable
      // configuration.
      domains[u] = own;
    } else {
      std::vector<PathId> domain = own;
      for (PathId p = 0; p < inst.exits().size(); ++p) {
        for (const NodeId v : inst.sessions().peers(u)) {
          if (core::transfer_allowed(inst, v, u, p)) {
            domain.push_back(p);
            break;
          }
        }
      }
      std::sort(domain.begin(), domain.end());
      domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
      domains[u] = std::move(domain);
    }
    if (domains[u].empty() || own.empty()) {
      // "No route" is only reachable for nodes without own exits.
      domains[u].push_back(kNoPath);
    }
  }
  return domains;
}

/// True iff visibility of `killer` makes `victim` permanently unselectable
/// via rules 1-3 (LOCAL-PREF, AS-path length, MED within one rule-3 group,
/// grouped exactly as selection groups it: per-AS overrides included).  These
/// eliminations are monotone — more visible routes only strengthen them —
/// so they justify pruning *partial* assignments.
bool dominates_1to3(const core::Instance& inst, PathId killer, PathId victim) {
  const auto& a = inst.exits()[killer];
  const auto& b = inst.exits()[victim];
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.as_path_length != b.as_path_length) return a.as_path_length < b.as_path_length;
  const auto group = bgp::med_group(inst.policy(), a.next_as);
  return group && a.med < b.med && bgp::med_group(inst.policy(), b.next_as) == group;
}

struct SearchState {
  const core::Instance* inst;
  const StableSearchLimits* limits;
  std::vector<bool> dominant_safe;  // per path: survives rules 1-3 vs universe
  std::vector<std::vector<PathId>> domains;
  std::vector<NodeId> order;           // assignment order
  std::vector<std::vector<NodeId>> check_after;  // nodes whose neighborhoods
                                                 // complete at position i
  StableSolution assignment;
  StableSearchResult result;
  bool budget_hit = false;
  std::vector<bool> assigned;

  /// Support condition for one node: under the standard protocol a peer
  /// advertises exactly its best route, so a node whose choice b_w is not
  /// its own exit needs some session peer v with transfer_allowed(v,w,b_w)
  /// and b_v == b_w (or v still unassigned).
  [[nodiscard]] bool supported(NodeId w) const {
    const PathId bw = assignment[w];
    if (bw == kNoPath) return true;
    if (inst->exits()[bw].exit_point == w) return true;  // own exit: self-supported
    for (const NodeId v : inst->sessions().peers(w)) {
      if (!core::transfer_allowed(*inst, v, w, bw)) continue;
      if (!assigned[v] || assignment[v] == bw) return true;
    }
    return false;
  }

  /// Incremental support prune after assigning u: only u itself and the
  /// assigned peers u could have supplied can newly lose support.
  [[nodiscard]] bool support_check(NodeId u) const {
    if (!supported(u)) return false;
    for (const NodeId w : inst->sessions().peers(u)) {
      if (assigned[w] && !supported(w)) return false;
    }
    return true;
  }

  /// Monotone forward check: the fresh assignment b_u must not be
  /// rule-1-3-dominated by anything already visible at u, nor dominate an
  /// already-assigned neighbor's choice it is advertised to.
  [[nodiscard]] bool kill_check(NodeId u, std::size_t depth) const {
    const PathId bu = assignment[u];
    for (std::size_t i = 0; i <= depth; ++i) {
      const NodeId v = order[i];
      const PathId bv = assignment[v];
      if (v == u || bv == kNoPath) continue;
      if (bu != kNoPath && core::transfer_allowed(*inst, v, u, bv) &&
          dominates_1to3(*inst, bv, bu)) {
        return false;  // v's advertisement permanently eliminates b_u at u
      }
      if (bu != kNoPath && core::transfer_allowed(*inst, u, v, bu) &&
          dominates_1to3(*inst, bu, bv)) {
        return false;  // b_u permanently eliminates v's choice at v
      }
    }
    if (bu != kNoPath) {
      // A node's own exits are always visible to it.
      for (const PathId own : inst->exits().exits_from(u)) {
        if (own != bu && dominates_1to3(*inst, own, bu)) return false;
      }
    }
    return true;
  }

  /// True iff, seen from node w, route r permanently outranks route b at
  /// selection rules 4-6 regardless of what else becomes visible:
  /// E-BGP class strictly better, or same class with strictly smaller
  /// metric.  (Equal metrics are left to the exact final check.)
  [[nodiscard]] bool robust_beats(NodeId w, PathId r, PathId b) const {
    const auto& pr = inst->exits()[r];
    const auto& pb = inst->exits()[b];
    const bool r_ebgp = pr.exit_point == w;
    const bool b_ebgp = pb.exit_point == w;
    if (inst->policy().order == bgp::RuleOrder::kPreferEbgpFirst) {
      if (r_ebgp != b_ebgp) return r_ebgp;
    }
    if (!inst->igp().reachable(w, pr.exit_point)) return false;
    if (!inst->igp().reachable(w, pb.exit_point)) return true;
    const Cost mr = inst->igp().cost(w, pr.exit_point) + pr.exit_cost;
    const Cost mb = inst->igp().cost(w, pb.exit_point) + pb.exit_cost;
    if (inst->policy().order == bgp::RuleOrder::kIgpCostFirst && mr == mb &&
        r_ebgp != b_ebgp) {
      return r_ebgp;
    }
    return mr < mb;
  }

  /// True iff any future rule-1-3 eliminator of r also eliminates b, so
  /// "r visible" permanently excludes b at every node where r beats b.
  [[nodiscard]] bool survival_coupled(PathId r, PathId b) const {
    if (dominant_safe[r]) return true;
    const auto& pr = inst->exits()[r];
    const auto& pb = inst->exits()[b];
    if (pr.local_pref < pb.local_pref) return false;
    if (pr.as_path_length > pb.as_path_length) return false;
    // Exempt from rule 3, r can only fall to rules 1-2, which take b too.
    const auto group = bgp::med_group(inst->policy(), pr.next_as);
    if (!group) return true;
    return pr.med <= pb.med && bgp::med_group(inst->policy(), pb.next_as) == group;
  }

  /// One node's superiority condition: w cannot keep choice b_w if some
  /// already-visible route r (from an assigned peer or w's own exits) both
  /// (a) can never be eliminated without eliminating b_w and (b) robustly
  /// outranks b_w.
  [[nodiscard]] bool not_outranked(NodeId w) const {
    const PathId bw = assignment[w];
    if (bw == kNoPath) return true;
    auto beaten_by = [&](PathId r) {
      return r != bw && survival_coupled(r, bw) && robust_beats(w, r, bw) &&
             !dominates_1to3(*inst, bw, r);
    };
    for (const PathId own : inst->exits().exits_from(w)) {
      if (beaten_by(own)) return false;
    }
    for (const NodeId v : inst->sessions().peers(w)) {
      if (!assigned[v] || assignment[v] == kNoPath) continue;
      const PathId bv = assignment[v];
      if (core::transfer_allowed(*inst, v, w, bv) && beaten_by(bv)) return false;
    }
    return true;
  }

  /// Incremental superiority prune after assigning u: new violations can
  /// only involve u as the beaten node or as the supplier of the beater.
  [[nodiscard]] bool superiority_check(NodeId u) const {
    if (!not_outranked(u)) return false;
    const PathId bu = assignment[u];
    if (bu == kNoPath) return true;
    for (const NodeId w : inst->sessions().peers(u)) {
      if (!assigned[w] || assignment[w] == kNoPath) continue;
      const PathId bw = assignment[w];
      if (!core::transfer_allowed(*inst, u, w, bu)) continue;
      if (bu != bw && survival_coupled(bu, bw) && robust_beats(w, bu, bw) &&
          !dominates_1to3(*inst, bw, bu)) {
        return false;
      }
    }
    return true;
  }

  void dfs(std::size_t depth) {
    if (budget_hit || result.solutions.size() >= limits->max_solutions) return;
    if (++result.nodes_explored > limits->max_nodes) {
      budget_hit = true;
      return;
    }
    if (depth == order.size()) {
      result.solutions.push_back(assignment);
      return;
    }
    const NodeId u = order[depth];
    assigned[u] = true;
    for (const PathId p : domains[u]) {
      assignment[u] = p;
      bool ok = kill_check(u, depth) && support_check(u) && superiority_check(u);
      if (ok) {
        for (const NodeId w : check_after[depth]) {
          if (!consistent_at(*inst, w, assignment)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) dfs(depth + 1);
    }
    assignment[u] = kNoPath;
    assigned[u] = false;
  }
};

}  // namespace

StableSearchResult enumerate_stable_standard(const core::Instance& inst,
                                             const StableSearchLimits& limits) {
  const std::size_t n = inst.node_count();
  SearchState state;
  state.inst = &inst;
  state.limits = &limits;
  state.dominant_safe = compute_dominant_safe(inst);
  state.domains = build_domains(inst, state.dominant_safe);
  state.assignment.assign(n, kNoPath);
  state.assigned.assign(n, false);

  // Assignment order: pinned (singleton-domain) nodes first so their
  // advertisements drive the prunes, then everything else in node order —
  // node ids group cluster-mates, so the pairwise kill/superiority/support
  // prunes fire as early as possible.
  state.order.resize(n);
  for (NodeId v = 0; v < n; ++v) state.order[v] = v;
  std::stable_sort(state.order.begin(), state.order.end(), [&](NodeId a, NodeId b) {
    const bool pa = state.domains[a].size() <= 1;
    const bool pb = state.domains[b].size() <= 1;
    if (pa != pb) return pa;
    return a < b;
  });

  // A node's constraint involves itself and all its session peers; it can be
  // checked as soon as the last of them is assigned.
  std::vector<std::size_t> position(n);
  for (std::size_t i = 0; i < n; ++i) position[state.order[i]] = i;
  state.check_after.resize(n);
  for (NodeId w = 0; w < n; ++w) {
    std::size_t last = position[w];
    for (const NodeId v : inst.sessions().peers(w)) last = std::max(last, position[v]);
    state.check_after[last].push_back(w);
  }

  state.dfs(0);
  state.result.exhaustive =
      !state.budget_hit && state.result.solutions.size() < limits.max_solutions;
  return state.result;
}

bool is_stable_standard(const core::Instance& inst, const StableSolution& solution) {
  if (solution.size() != inst.node_count()) return false;
  for (NodeId u = 0; u < inst.node_count(); ++u) {
    if (!consistent_at(inst, u, solution)) return false;
  }
  return true;
}

}  // namespace ibgp::analysis

#pragma once
// Ingress route-maps: per-neighbor import policy at the E-BGP edge.
//
// Real routers assign LOCAL-PREF (and rewrite MEDs, attach communities) with
// a route-map on the import side of each E-BGP neighbor; the values then
// travel unchanged through I-BGP.  We model that faithfully: a RouteMap is
// attached to an *ingress node* (the exit point) and applied once, when the
// instance is finalized, to every exit path entering there.  Clause matching
// is per neighboring AS and/or per community tag, so "per-neighbor
// LOCAL-PREF route-maps" and "community-tagged match/set rules" are both
// expressible.
//
// Because the rewrite happens at the edge, every router still sees the SAME
// attributes for a given path — the node-independence that Lemma 7.4's
// convergence proof for the modified protocol relies on is preserved.  The
// knob perturbs the *policy space* (which the adversarial explorer searches)
// without silently stepping outside the paper's model.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/exit_path.hpp"
#include "util/types.hpp"

namespace ibgp::bgp {

/// One match/set clause.  All present match conditions must hold; the first
/// matching clause of a RouteMap applies its actions and terminates the map
/// (classic first-match-wins route-map semantics).  A clause with no match
/// conditions matches every path.
struct RouteMapClause {
  // --- match conditions ---------------------------------------------------
  /// Match routes through this neighboring AS only.
  std::optional<AsId> match_as{};
  /// Match routes carrying ALL of these community tags (bitmask; 0 = no
  /// community condition).
  std::uint32_t match_communities = 0;

  // --- actions ------------------------------------------------------------
  std::optional<LocalPref> set_local_pref{};
  std::optional<Med> set_med{};
  /// Community tags attached on top of whatever the path already carries.
  std::uint32_t add_communities = 0;

  [[nodiscard]] bool matches(const ExitPath& path) const {
    if (match_as && *match_as != path.next_as) return false;
    return (path.communities & match_communities) == match_communities;
  }

  /// True when the clause performs no rewrite at all.
  [[nodiscard]] bool is_noop() const {
    return !set_local_pref && !set_med && add_communities == 0;
  }

  friend bool operator==(const RouteMapClause&, const RouteMapClause&) = default;
};

/// An ordered clause list; apply() runs the first matching clause.
struct RouteMap {
  std::vector<RouteMapClause> clauses;

  [[nodiscard]] bool empty() const { return clauses.empty(); }

  /// Returns `path` with the first matching clause's actions applied (or
  /// unchanged when nothing matches).  Attributes the selection procedure
  /// never reads (name, exit point, AS, peer) are left untouched.
  [[nodiscard]] ExitPath apply(ExitPath path) const;

  friend bool operator==(const RouteMap&, const RouteMap&) = default;
};

/// One-line rendering for reports ("[as=2 comm=1] -> lp=200 +comm=3").
std::string to_string(const RouteMapClause& clause);

}  // namespace ibgp::bgp

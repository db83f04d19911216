#pragma once
// Advertisement policies: what a router announces to its I-BGP peers
// (before the per-peer Transfer filtering).
//
//  - kStandard: classic I-BGP — the single best route (Section 2).
//  - kWalton:   the Walton et al. proposal (Section 8) — for each neighboring
//               AS, the best route through that AS, provided it matches the
//               overall best route's LOCAL-PREF and AS-path length.
//  - kModified: the paper's protocol (Section 6) — GoodExits =
//               Choose^B(PossibleExits), i.e. every path surviving selection
//               rules 1-3.  The best route is then chosen from GoodExits.

#include <optional>
#include <span>
#include <vector>

#include "bgp/selection.hpp"
#include "core/instance.hpp"
#include "util/types.hpp"

namespace ibgp::core {

enum class ProtocolKind {
  kStandard,
  kWalton,
  kModified,
};

/// Display name ("standard", "walton", "modified").
const char* protocol_name(ProtocolKind kind);

/// Everything a node derives from its current PossibleExits in one step.
struct NodeDecision {
  /// The set the node offers to peers (Transfer still filters per peer);
  /// ascending path ids.
  std::vector<PathId> advertised;
  /// The node's best route, if any candidate is usable.
  std::optional<bgp::RouteView> best;
};

/// Computes best route + advertised set for `node` under `kind`.
///
/// `possible` is PossibleExits(node) with the learnedFrom attribution the
/// engine tracked for each path.  For kModified the best route is chosen
/// from GoodExits, exactly as Section 6 prescribes.
///
/// When `provenance` is non-null it receives the elimination record of the
/// Choose_best invocation that produced `best`.  For kModified that is the
/// call over the GoodExits survivors — rules 1-3 then rarely decide, which
/// is the point of the fix and exactly what the per-rule breakdown should
/// show (see EXPERIMENTS.md E17).
NodeDecision decide(const Instance& inst, ProtocolKind kind, NodeId node,
                    std::span<const bgp::Candidate> possible,
                    bgp::SelectionProvenance* provenance = nullptr);

/// Same decision against an explicit IGP epoch instead of the instance's
/// frozen base igp().  Engines modeling IGP churn (link-cost/link-failure
/// faults) pass their current epoch handle here so selection prices every
/// candidate with the *current* distances.
NodeDecision decide(const Instance& inst, const netsim::ShortestPaths& igp,
                    ProtocolKind kind, NodeId node,
                    std::span<const bgp::Candidate> possible,
                    bgp::SelectionProvenance* provenance = nullptr);

/// The same decision written into `out`, with every selection working in
/// `scratch`: the allocation-free form for a caller that decides over and
/// over (the event engine keeps one `out` and one `scratch`).  `possible`
/// must not live in `scratch`.
void decide(const Instance& inst, const netsim::ShortestPaths& igp, ProtocolKind kind,
            NodeId node, std::span<const bgp::Candidate> possible,
            bgp::SelectionProvenance* provenance, bgp::SelectionScratch& scratch,
            NodeDecision& out);

/// The Walton advertised set in isolation (exposed for tests): best route
/// per neighboring AS among `possible`, filtered to those matching the
/// overall best's LOCAL-PREF and AS-path length.
std::vector<PathId> walton_advertised(const Instance& inst, NodeId node,
                                      std::span<const bgp::Candidate> possible);

/// Walton advertised set against an explicit IGP epoch.
std::vector<PathId> walton_advertised(const Instance& inst,
                                      const netsim::ShortestPaths& igp, NodeId node,
                                      std::span<const bgp::Candidate> possible);

}  // namespace ibgp::core

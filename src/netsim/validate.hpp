#pragma once
// Structural validation of an I-BGP-with-route-reflection substrate against
// the constraints of Section 4.  Returns human-readable violations rather
// than throwing, so tools can report all problems at once.

#include <string>
#include <vector>

#include "netsim/cluster_layout.hpp"
#include "netsim/physical_graph.hpp"
#include "netsim/session_graph.hpp"
#include "netsim/shortest_paths.hpp"

namespace ibgp::netsim {

struct ValidationReport {
  std::vector<std::string> errors;
  std::vector<std::string> warnings;

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Structural checks, errors only; builds no SPF:
///  - layout completeness (every node assigned, every cluster has a reflector)
///  - E_I constraint 1: reflector full mesh present
///  - E_I constraint 2: every client peers with every reflector of its cluster
///  - E_I constraint 3: no client session leaves its cluster
ValidationReport validate_structure(const PhysicalGraph& physical, const ClusterLayout& layout,
                                    const SessionGraph& sessions);

/// Appends the IGP warnings, judged against `igp`, the all-pairs epoch of
/// `physical`'s own link costs:
///  - physical graph disconnected (some routes will be unusable)
///  - otherwise, every physical link costlier than the shortest path between
///    its ends (the paper's NP-hardness construction requires the triangle
///    inequality because I-BGP sessions ride shortest IGP paths)
void add_igp_warnings(const PhysicalGraph& physical, const ShortestPaths& igp,
                      ValidationReport& report);

/// validate_structure(), then — when it found no error — add_igp_warnings()
/// over a ShortestPaths built here.
ValidationReport validate(const PhysicalGraph& physical, const ClusterLayout& layout,
                          const SessionGraph& sessions);

}  // namespace ibgp::netsim

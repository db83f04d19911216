#include "core/policy.hpp"

#include <algorithm>

namespace ibgp::core {

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kStandard: return "standard";
    case ProtocolKind::kWalton: return "walton";
    case ProtocolKind::kModified: return "modified";
  }
  return "?";
}

std::vector<PathId> walton_advertised(const Instance& inst, NodeId node,
                                      std::span<const bgp::Candidate> possible) {
  return walton_advertised(inst, inst.igp(), node, possible);
}

std::vector<PathId> walton_advertised(const Instance& inst,
                                      const netsim::ShortestPaths& igp, NodeId node,
                                      std::span<const bgp::Candidate> possible) {
  const auto& table = inst.exits();
  const auto overall = bgp::choose_best(table, igp, node, possible, inst.policy());
  if (!overall) return {};
  const LocalPref best_lp = table[overall->path].local_pref;
  const std::uint32_t best_len = table[overall->path].as_path_length;

  // Partition candidates by neighboring AS: one stably sorted copy whose
  // runs are the groups, each in input order with its learnedFrom
  // attribution intact for the per-AS selection.
  const auto next_as = [&](const bgp::Candidate& c) { return table[c.path].next_as; };
  std::vector<bgp::Candidate> by_as(possible.begin(), possible.end());
  std::stable_sort(by_as.begin(), by_as.end(),
                   [&](const bgp::Candidate& a, const bgp::Candidate& b) {
                     return next_as(a) < next_as(b);
                   });

  std::vector<PathId> advertised;
  for (auto first = by_as.begin(); first != by_as.end();) {
    const auto last = std::find_if(first, by_as.end(), [&](const bgp::Candidate& c) {
      return next_as(c) != next_as(*first);
    });
    const std::span<const bgp::Candidate> group(first, last);
    first = last;
    const auto group_best = bgp::choose_best(table, igp, node, group, inst.policy());
    if (!group_best) continue;
    // Only announced when it matches the overall best's LOCAL-PREF and
    // AS-path length (Section 8, "Brief Overview of the Walton et al.
    // Solution").
    const auto& path = table[group_best->path];
    if (path.local_pref == best_lp && path.as_path_length == best_len) {
      advertised.push_back(group_best->path);
    }
  }
  std::sort(advertised.begin(), advertised.end());
  advertised.erase(std::unique(advertised.begin(), advertised.end()), advertised.end());
  return advertised;
}

NodeDecision decide(const Instance& inst, ProtocolKind kind, NodeId node,
                    std::span<const bgp::Candidate> possible,
                    bgp::SelectionProvenance* provenance) {
  return decide(inst, inst.igp(), kind, node, possible, provenance);
}

NodeDecision decide(const Instance& inst, const netsim::ShortestPaths& igp,
                    ProtocolKind kind, NodeId node,
                    std::span<const bgp::Candidate> possible,
                    bgp::SelectionProvenance* provenance) {
  bgp::SelectionScratch scratch;
  NodeDecision decision;
  decide(inst, igp, kind, node, possible, provenance, scratch, decision);
  return decision;
}

void decide(const Instance& inst, const netsim::ShortestPaths& igp, ProtocolKind kind,
            NodeId node, std::span<const bgp::Candidate> possible,
            bgp::SelectionProvenance* provenance, bgp::SelectionScratch& scratch,
            NodeDecision& out) {
  const auto& table = inst.exits();
  out.advertised.clear();

  switch (kind) {
    case ProtocolKind::kStandard: {
      out.best = bgp::choose_best(table, igp, node, possible, inst.policy(), provenance,
                                  scratch);
      if (out.best) out.advertised.push_back(out.best->path);
      break;
    }
    case ProtocolKind::kWalton: {
      out.best = bgp::choose_best(table, igp, node, possible, inst.policy(), provenance,
                                  scratch);
      out.advertised = walton_advertised(inst, igp, node, possible);
      break;
    }
    case ProtocolKind::kModified: {
      // GoodExits = Choose^B(PossibleExits): rules 1-3 over bare paths.
      // BestRoute is chosen from GoodExits (Section 6), so the survivors
      // keep their learnedFrom attribution.
      scratch.good.assign(possible.begin(), possible.end());
      bgp::keep_survivors(table, inst.policy(), scratch, scratch.good);
      for (const auto& candidate : scratch.good) out.advertised.push_back(candidate.path);
      std::sort(out.advertised.begin(), out.advertised.end());
      out.advertised.erase(std::unique(out.advertised.begin(), out.advertised.end()),
                           out.advertised.end());
      out.best = bgp::choose_best(table, igp, node, scratch.good, inst.policy(), provenance,
                                  scratch);
      break;
    }
  }
}

}  // namespace ibgp::core

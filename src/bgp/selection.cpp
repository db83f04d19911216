#include "bgp/selection.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>

namespace ibgp::bgp {

std::optional<std::uint64_t> med_group(const SelectionPolicy& policy, AsId as) {
  // The shared group's sentinel lies outside the AsId range, so mixes can
  // never collide with a per-AS group.
  constexpr std::uint64_t kSharedMedGroup = std::uint64_t{1} << 32;
  switch (policy.med_mode_for(as)) {
    case MedMode::kIgnore: return std::nullopt;
    case MedMode::kAlwaysCompare: return kSharedMedGroup;
    case MedMode::kPerNeighborAs: return as;
  }
  return as;
}

namespace {

/// Keeps only the items whose key(item) is best under `better`, in input
/// order, in one pass: a strictly better key restarts the kept prefix.
template <typename Item, typename Key, typename Better>
void keep_best(std::vector<Item>& items, Key key, Better better) {
  if (items.empty()) return;
  auto best = key(items.front());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto k = key(items[i]);
    if (better(best, k)) continue;
    if (better(k, best)) {
      best = k;
      kept = 0;
    }
    if (kept != i) items[kept] = items[i];
    ++kept;
  }
  items.resize(kept);
}

/// Keeps only the items minimizing key(item).
template <typename Item, typename Key>
void keep_min(std::vector<Item>& items, Key key) {
  keep_best(items, key, std::less<>{});
}

/// Keeps only the items maximizing key(item).
template <typename Item, typename Key>
void keep_max(std::vector<Item>& items, Key key) {
  keep_best(items, key, std::greater<>{});
}

/// Rule 3 over a vector of items: computes per-group minimum MEDs with
/// `as_of`/`med_of` accessors, then erases non-minimal members.  Exempt
/// (kIgnore) members never participate and are never erased.  Each item's
/// group is resolved once, into scratch.med_row, and reused by the erase.
template <typename Item, typename AsOf, typename MedOf>
void med_eliminate_range(std::vector<Item>& items, const SelectionPolicy& policy,
                         SelectionScratch& scratch, AsOf as_of, MedOf med_of) {
  if (items.empty()) return;
  // Per-group minimum MEDs in a flat table: a selection sees a handful of
  // groups (at most one per neighbour AS), for which a scan beats a tree.
  constexpr std::uint32_t kExempt = std::numeric_limits<std::uint32_t>::max();
  auto& group_min = scratch.med_min;
  auto& row_of = scratch.med_row;
  group_min.clear();
  row_of.clear();
  for (const auto& item : items) {
    const auto group = med_group(policy, as_of(item));
    if (!group) {
      row_of.push_back(kExempt);
      continue;
    }
    const auto it = std::find_if(group_min.begin(), group_min.end(),
                                 [&](const auto& entry) { return entry.first == *group; });
    row_of.push_back(static_cast<std::uint32_t>(it - group_min.begin()));
    if (it != group_min.end()) {
      it->second = std::min(it->second, med_of(item));
    } else {
      group_min.emplace_back(*group, med_of(item));
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (row_of[i] != kExempt && med_of(items[i]) != group_min[row_of[i]].second) continue;
    if (kept != i) items[kept] = items[i];
    ++kept;
  }
  items.resize(kept);
}

/// Rule 4: when any E-BGP route survives, I-BGP routes are out.
void keep_ebgp(std::vector<RouteView>& views) {
  const bool any_ebgp =
      std::any_of(views.begin(), views.end(), [](const RouteView& v) { return v.is_ebgp; });
  if (any_ebgp) {
    std::erase_if(views, [](const RouteView& v) { return !v.is_ebgp; });
  }
}

std::vector<PathId> ids_of(const std::vector<RouteView>& views) {
  std::vector<PathId> ids;
  ids.reserve(views.size());
  for (const auto& view : views) ids.push_back(view.path);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Rules 1-3 in place over items naming a path through `path_of`, keeping
/// the survivors in input order.
template <typename Item, typename PathOf>
void keep_rules_1to3(const ExitTable& table, const SelectionPolicy& policy,
                     SelectionScratch& scratch, std::vector<Item>& items, PathOf path_of) {
  const auto attrs = [&](const Item& item) -> const ExitPath& { return table[path_of(item)]; };

  // Rule 1: highest LOCAL-PREF.
  keep_max(items, [&](const Item& item) { return attrs(item).local_pref; });

  // Rule 2: shortest AS-path.
  keep_min(items, [&](const Item& item) { return attrs(item).as_path_length; });

  // Rule 3: MED elimination under the (possibly mixed) regime.
  med_eliminate_range(
      items, policy, scratch, [&](const Item& item) { return attrs(item).next_as; },
      [&](const Item& item) { return attrs(item).med; });
}

}  // namespace

std::vector<PathId> choose_survivors(const ExitTable& table, std::span<const PathId> paths,
                                     const SelectionPolicy& policy) {
  SelectionScratch scratch;
  std::vector<PathId> alive(paths.begin(), paths.end());
  keep_rules_1to3(table, policy, scratch, alive, [](PathId id) { return id; });
  std::sort(alive.begin(), alive.end());
  alive.erase(std::unique(alive.begin(), alive.end()), alive.end());
  return alive;
}

void keep_survivors(const ExitTable& table, const SelectionPolicy& policy,
                    SelectionScratch& scratch, std::vector<Candidate>& candidates) {
  keep_rules_1to3(table, policy, scratch, candidates,
                  [](const Candidate& candidate) { return candidate.path; });
}

std::vector<PathId> choose_survivors(const ExitTable& table, std::span<const PathId> paths,
                                     MedMode med_mode) {
  SelectionPolicy policy;
  policy.med = med_mode;
  return choose_survivors(table, paths, policy);
}

std::optional<RouteView> make_route_view(const ExitTable& table,
                                         const netsim::ShortestPaths& igp, NodeId u,
                                         const Candidate& candidate) {
  const ExitPath& path = table[candidate.path];
  if (!igp.reachable(u, path.exit_point)) return std::nullopt;
  RouteView view;
  view.path = candidate.path;
  view.metric = igp.cost(u, path.exit_point) + path.exit_cost;
  view.learned_from = candidate.learned_from;
  view.is_ebgp = (path.exit_point == u);
  return view;
}

namespace {

/// Fills `views` with the candidates whose exit point u can reach.
void usable_views(const ExitTable& table, const netsim::ShortestPaths& igp, NodeId u,
                  std::span<const Candidate> candidates, std::vector<RouteView>& views) {
  views.clear();
  for (const auto& candidate : candidates) {
    if (auto view = make_route_view(table, igp, u, candidate)) views.push_back(*view);
  }
}

// The rule cascade, specialized at compile time on whether a provenance
// record is attached.  choose_best runs on every reconsideration of every
// node of every cell of a sweep; when no sink is attached (Walton's per-AS
// sub-selections, fixed-point search, stable-configuration enumeration) the
// kProvenance=false instantiation carries zero counting code instead of a
// provenance branch per rule.
template <bool kProvenance>
std::optional<RouteView> finish(const ExitTable& table, const SelectionPolicy& policy,
                                SelectionScratch& scratch, SelectionExplanation* explanation,
                                SelectionProvenance* provenance) {
  std::vector<RouteView>& views = scratch.views;
  auto record = [&](const char* stage) {
    if (explanation != nullptr) explanation->stages.emplace_back(stage, ids_of(views));
  };
  if constexpr (kProvenance) provenance->usable = views.size();
  // Charges `before - views.size()` eliminations to `rule`; the last rule
  // that narrows the set is the decisive one.
  auto charge = [&]([[maybe_unused]] SelectionRule rule, [[maybe_unused]] std::size_t before) {
    if constexpr (kProvenance) {
      if (views.size() >= before) return;
      provenance->eliminated[rule_index(rule)] +=
          static_cast<std::uint32_t>(before - views.size());
      provenance->decisive = rule;
    }
  };
  record("input (usable)");

  // Rule 1.
  std::size_t before = views.size();
  keep_max(views, [&](const RouteView& v) { return table[v.path].local_pref; });
  charge(SelectionRule::kLocalPref, before);
  record("rule 1: max LOCAL-PREF");

  // Rule 2.
  before = views.size();
  keep_min(views, [&](const RouteView& v) { return table[v.path].as_path_length; });
  charge(SelectionRule::kAsPathLength, before);
  record("rule 2: min AS-path length");

  // Rule 3.
  before = views.size();
  med_eliminate_range(
      views, policy, scratch, [&](const RouteView& v) { return table[v.path].next_as; },
      [&](const RouteView& v) { return table[v.path].med; });
  charge(SelectionRule::kMed, before);
  record("rule 3: per-AS MED elimination");

  // Rules 4-6 (rules 4 and 5 swap under the RFC ordering; footnote 4).
  if (policy.order == RuleOrder::kPreferEbgpFirst) {
    before = views.size();
    keep_ebgp(views);
    charge(SelectionRule::kEbgpOverIbgp, before);
    before = views.size();
    keep_min(views, [](const RouteView& v) { return v.metric; });
    charge(SelectionRule::kIgpCost, before);
  } else {
    before = views.size();
    keep_min(views, [](const RouteView& v) { return v.metric; });
    charge(SelectionRule::kIgpCost, before);
    before = views.size();
    keep_ebgp(views);
    charge(SelectionRule::kEbgpOverIbgp, before);
  }
  before = views.size();
  keep_min(views, [](const RouteView& v) { return v.learned_from; });
  charge(SelectionRule::kBgpIdTieBreak, before);
  record("rules 4-6: E-BGP/IGP-cost/BGP-id");

  if (views.empty()) return std::nullopt;
  // learned_from is usually unique by now; break pathological duplicate
  // announcements by path id for full determinism.
  const auto best =
      std::min_element(views.begin(), views.end(), [](const RouteView& a, const RouteView& b) {
        return a.path < b.path;
      });
  if constexpr (kProvenance) {
    if (views.size() > 1) {
      provenance->eliminated[rule_index(SelectionRule::kPathIdTieBreak)] +=
          static_cast<std::uint32_t>(views.size() - 1);
      provenance->decisive = SelectionRule::kPathIdTieBreak;
    }
    provenance->selected = true;
  }
  return *best;
}

}  // namespace

std::string_view selection_rule_name(SelectionRule rule) {
  switch (rule) {
    case SelectionRule::kSoleCandidate: return "sole-candidate";
    case SelectionRule::kLocalPref: return "local-pref";
    case SelectionRule::kAsPathLength: return "as-path-length";
    case SelectionRule::kMed: return "med";
    case SelectionRule::kEbgpOverIbgp: return "ebgp-over-ibgp";
    case SelectionRule::kIgpCost: return "igp-cost";
    case SelectionRule::kBgpIdTieBreak: return "bgp-id-tie-break";
    case SelectionRule::kPathIdTieBreak: return "path-id-tie-break";
  }
  return "?";
}

std::optional<RouteView> choose_best(const ExitTable& table, const netsim::ShortestPaths& igp,
                                     NodeId u, std::span<const Candidate> candidates,
                                     const SelectionPolicy& policy,
                                     SelectionProvenance* provenance,
                                     SelectionScratch& scratch) {
  usable_views(table, igp, u, candidates, scratch.views);
  if (provenance != nullptr) {
    *provenance = SelectionProvenance{};
    provenance->candidates = candidates.size();
    provenance->unreachable = candidates.size() - scratch.views.size();
    return finish<true>(table, policy, scratch, nullptr, provenance);
  }
  return finish<false>(table, policy, scratch, nullptr, nullptr);
}

std::optional<RouteView> choose_best(const ExitTable& table, const netsim::ShortestPaths& igp,
                                     NodeId u, std::span<const Candidate> candidates,
                                     const SelectionPolicy& policy,
                                     SelectionProvenance* provenance) {
  SelectionScratch scratch;
  return choose_best(table, igp, u, candidates, policy, provenance, scratch);
}

SelectionExplanation explain_selection(const ExitTable& table,
                                       const netsim::ShortestPaths& igp, NodeId u,
                                       std::span<const Candidate> candidates,
                                       const SelectionPolicy& policy) {
  SelectionExplanation explanation;
  SelectionScratch scratch;
  usable_views(table, igp, u, candidates, scratch.views);
  explanation.best = finish<false>(table, policy, scratch, &explanation, nullptr);
  return explanation;
}

}  // namespace ibgp::bgp

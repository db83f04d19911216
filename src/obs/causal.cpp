#include "obs/causal.hpp"

#include <algorithm>

namespace ibgp::obs {

void CausalGraph::add(const TraceRecord& record) {
  const std::string_view ev = record.str("ev");
  const std::int64_t lid = record.num("lid", -1);
  if (lid >= 0) lids_.emplace(lid, 1);

  if (ev == "update" || ev == "mrai-flush") {
    if (lid < 0) return;  // v1-era line without lineage: nothing to link
    UpdateRec rec;
    rec.pid = record.num("pid", -1);
    rec.from = record.num("from", -1);
    rec.to = record.num("to", -1);
    rec.path = record.num("path", -1);
    rec.announce = record.num("announce", 1) != 0;
    rec.flush = ev == "mrai-flush";
    updates_[lid] = rec;
    return;
  }
  if (ev == "decision") {
    DecisionRec rec;
    rec.node = record.num("node", -1);
    rec.rule = std::string(record.str("rule"));
    rec.flip = record.num("flip", 0) != 0;
    if (lid >= 0) decisions_[lid] = rec;
    if (rec.flip && lid >= 0 && rec.node >= 0) flips_[rec.node].push_back(lid);
    return;
  }
  if (ev == "node") {
    node_names_[record.num("id", -1)] = std::string(record.str("name"));
    return;
  }
  if (ev == "path") {
    path_names_[record.num("id", -1)] = std::string(record.str("name"));
    return;
  }
  // All other events ("ebgp-announce", "eor", "fault", future additions)
  // only contribute their lid to the live-parent domain, recorded above.
}

void CausalGraph::add_line(std::string_view line) {
  const auto record = parse_trace_line(line);
  if (!record) return;  // header/blank/malformed: skip, never error
  add(*record);
}

std::vector<std::int64_t> CausalGraph::oscillating_nodes(std::size_t min_flips) const {
  std::vector<std::int64_t> out;
  for (const auto& [node, lids] : flips_) {
    if (lids.size() >= min_flips) out.push_back(node);
  }
  return out;
}

std::optional<BlameChain> CausalGraph::blame(std::int64_t node,
                                             std::size_t max_walk) const {
  const auto flip_it = flips_.find(node);
  if (flip_it == flips_.end() || flip_it->second.empty()) return std::nullopt;

  // Walk backward from the most recent flip; newest hop first.
  std::vector<CausalHop> hops;
  std::int64_t cur = flip_it->second.back();
  for (std::size_t walked = 0; walked < max_walk && cur >= 0; ++walked) {
    const auto it = updates_.find(cur);
    if (it == updates_.end()) break;  // injection root or untraced ancestor
    const UpdateRec& rec = it->second;
    if (rec.flush) {
      cur = rec.pid;  // relay: pass through without emitting a hop
      continue;
    }
    CausalHop hop;
    hop.lid = cur;
    hop.pid = rec.pid;
    hop.from = rec.from;
    hop.to = rec.to;
    hop.path = rec.path;
    hop.announce = rec.announce;
    const auto dit = decisions_.find(cur);
    if (dit != decisions_.end()) hop.rule = dit->second.rule;
    hops.push_back(std::move(hop));
    cur = rec.pid;
  }
  if (hops.empty()) return std::nullopt;

  // Smallest period over the newest hops, demanding agreement across two
  // full laps (or as much as the chain holds): the oscillation is steady at
  // the recent end and transient near the injection roots, so the check
  // window anchors at index 0 (newest).
  for (std::size_t period = 1; period * 2 <= hops.size(); ++period) {
    const std::size_t window = std::min(hops.size() - period, 2 * period);
    bool ok = true;
    for (std::size_t i = 0; i < window; ++i) {
      if (!hops[i].same_signature(hops[i + period])) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    BlameChain chain;
    chain.node = node;
    chain.period = period;
    chain.chain_length = hops.size();
    chain.cycle.assign(hops.begin(), hops.begin() + static_cast<std::ptrdiff_t>(period));
    std::reverse(chain.cycle.begin(), chain.cycle.end());  // oldest first
    return chain;
  }
  return std::nullopt;
}

std::string CausalGraph::node_name(std::int64_t id) const {
  const auto it = node_names_.find(id);
  return it != node_names_.end() ? it->second : '#' + std::to_string(id);
}

std::string CausalGraph::path_name(std::int64_t id) const {
  const auto it = path_names_.find(id);
  return it != path_names_.end() ? it->second : '#' + std::to_string(id);
}

std::string CausalGraph::format_hop(const CausalHop& hop) const {
  std::string out = node_name(hop.from);
  out += " -> ";
  out += node_name(hop.to);
  out += hop.announce ? " announce " : " withdraw ";
  out += path_name(hop.path);
  if (!hop.rule.empty()) {
    out += " [rule ";
    out += hop.rule;
    out += "]";
  }
  return out;
}

}  // namespace ibgp::obs

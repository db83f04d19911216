#include "confed/layout.hpp"

#include <algorithm>
#include <stdexcept>

namespace ibgp::confed {

ConfedInstance::ConfedInstance(std::string name, netsim::PhysicalGraph physical,
                               std::vector<SubAsId> sub_as_of,
                               std::vector<std::pair<NodeId, NodeId>> borders,
                               bgp::ExitTable exits, bgp::SelectionPolicy policy,
                               std::vector<std::string> node_names)
    : name_(std::move(name)),
      physical_(std::move(physical)),
      sub_as_of_(std::move(sub_as_of)),
      borders_(std::move(borders)),
      exits_(std::move(exits)),
      policy_(policy),
      node_names_(std::move(node_names)),
      igp_(physical_) {
  const std::size_t n = physical_.node_count();
  if (sub_as_of_.size() != n) {
    throw std::invalid_argument("ConfedInstance: sub_as_of size mismatch");
  }
  for (const SubAsId s : sub_as_of_) {
    sub_as_count_ = std::max<std::size_t>(sub_as_count_, s + 1);
  }
  for (auto& [u, v] : borders_) {
    if (u >= n || v >= n) throw std::invalid_argument("ConfedInstance: border node range");
    if (sub_as_of_[u] == sub_as_of_[v]) {
      throw std::invalid_argument("ConfedInstance: border session inside one sub-AS");
    }
    if (u > v) std::swap(u, v);
  }
  for (const auto& path : exits_.all()) {
    if (path.exit_point >= n) {
      throw std::invalid_argument("ConfedInstance: exit path node out of range");
    }
  }
  if (node_names_.empty()) {
    node_names_.reserve(n);
    for (NodeId v = 0; v < n; ++v) node_names_.push_back('n' + std::to_string(v));
  } else if (node_names_.size() != n) {
    throw std::invalid_argument("ConfedInstance: node_names size mismatch");
  }

  // Peer lists: intra-sub-AS full mesh plus the border sessions.
  peers_.assign(n, {});
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && sub_as_of_[u] == sub_as_of_[v]) peers_[u].push_back(v);
    }
  }
  for (const auto& [u, v] : borders_) {
    peers_[u].push_back(v);
    peers_[v].push_back(u);
  }
  for (auto& list : peers_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

bool ConfedInstance::is_border_session(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  return std::find(borders_.begin(), borders_.end(), std::make_pair(u, v)) !=
         borders_.end();
}

NodeId ConfedInstance::find_node(std::string_view label) const {
  for (NodeId v = 0; v < node_names_.size(); ++v) {
    if (node_names_[v] == label) return v;
  }
  return kNoNode;
}

}  // namespace ibgp::confed

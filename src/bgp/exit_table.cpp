#include "bgp/exit_table.hpp"

#include <algorithm>

namespace ibgp::bgp {

PathId ExitTable::add(ExitPath path) {
  const auto id = static_cast<PathId>(paths_.size());
  path.id = id;
  if (path.name.empty()) path.name = 'p' + std::to_string(id);
  paths_.push_back(std::move(path));
  return id;
}

std::vector<PathId> ExitTable::exits_from(NodeId v) const {
  std::vector<PathId> out;
  for (const auto& path : paths_) {
    if (path.exit_point == v) out.push_back(path.id);
  }
  return out;
}

PathId ExitTable::find_by_name(std::string_view name) const {
  for (const auto& path : paths_) {
    if (path.name == name) return path.id;
  }
  return kNoPath;
}

std::vector<AsId> ExitTable::neighbor_ases() const {
  std::vector<AsId> out;
  for (const auto& path : paths_) out.push_back(path.next_as);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ibgp::bgp

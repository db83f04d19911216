#include "bgp/exit_path.hpp"

#include <sstream>

namespace ibgp::bgp {

std::string to_string(const ExitPath& path) {
  std::ostringstream oss;
  oss << (path.name.empty() ? ('p' + std::to_string(path.id)) : path.name) << "[exit="
      << path.exit_point << " AS" << path.next_as << " lp=" << path.local_pref
      << " len=" << path.as_path_length << " med=" << path.med << " ec=" << path.exit_cost;
  if (path.communities != 0) {
    oss << " comm=";
    bool first = true;
    for (std::uint32_t tag = 0; tag < 32; ++tag) {
      if (!path.has_community(tag)) continue;
      if (!first) oss << ',';
      oss << tag;
      first = false;
    }
  }
  oss << "]";
  return oss.str();
}

}  // namespace ibgp::bgp

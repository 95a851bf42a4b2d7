#pragma once
// How many private fiber stacks this host process has mapped, read from
// /proc/self/maps: the fiber-stack tests of test_sim and test_cluster
// count them the same way.

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "tibsim/sim/execution_context.hpp"

namespace tibsim::testmaps {

/// The lines of /proc/self/maps shaped like a private fiber stack:
/// anonymous, read-write, exactly one stack long, and directly above a
/// one-page PROT_NONE line, its guard page. A slab of pooled stacks is far
/// longer. Other lines may come and go with the allocator: a sanitizer
/// quarantines freed memory, so a later world's objects land in fresh
/// mappings, and one of those can be one stack long.
inline std::size_t privateStackMappings() {
  std::ifstream maps("/proc/self/maps");
  std::size_t stacks = 0;
  unsigned long long guardEnd = 0;  // end of the last one-page ---p line
  for (std::string line; std::getline(maps, line);) {
    std::istringstream fields(line);
    std::string range, perms, offset, device, inode, path;
    fields >> range >> perms >> offset >> device >> inode >> path;
    const std::size_t dash = range.find('-');
    const auto begin = std::stoull(range.substr(0, dash), nullptr, 16);
    const auto end = std::stoull(range.substr(dash + 1), nullptr, 16);
    if (perms == "rw-p" && path.empty() && begin == guardEnd &&
        end - begin == sim::ExecutionContext::defaultStackBytes())
      ++stacks;
    const bool guard =
        perms == "---p" && path.empty() && end - begin == sim::pageBytes();
    guardEnd = guard ? end : 0;
  }
  return stacks;
}

}  // namespace tibsim::testmaps

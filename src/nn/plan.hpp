#pragma once

#include <cstdint>

namespace lightnas::nn::plan {

// Only for perfbench/ (counts stay 0); delete at the next benchmark change.
struct PlanStats {
  std::uint64_t hits = 0;
  std::uint64_t compiles = 0;
  std::uint64_t arena_bytes = 0;
};

}  // namespace lightnas::nn::plan

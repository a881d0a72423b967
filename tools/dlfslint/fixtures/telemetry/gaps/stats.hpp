// telemetry_check fixture (gaps case): ghost_reads is declared but the
// paired impl.cpp never reads it — the PR-8 bug shape. The nested
// PrefetchStats shows the same gap one level down: units_issued is read,
// units_replanned is not.
#pragma once

#include <cstdint>

namespace fixture {

struct PrefetchStats {
  std::uint64_t units_issued = 0;
  std::uint64_t units_replanned = 0;
};

struct InstanceStats {
  std::uint64_t samples_delivered = 0;
  std::uint64_t ghost_reads = 0;
  PrefetchStats prefetch{};
};

}  // namespace fixture

// Multi-application co-management (the paper's Section VI discussion:
// "Since multiple applications use different memory spaces inherently,
// Nexus# can manage them at the same time").
//
// Runs several traces concurrently through ONE task manager instance and a
// shared worker pool: each application has its own master thread walking
// its own submission stream (with per-app taskwait/taskwait_on semantics),
// while task ids are densified globally and each app's 48-bit address space
// is placed at a disjoint offset — exactly the property the paper appeals
// to for isolation inside the shared task graphs. It is a thin adapter over
// the single-trace driver (detail::Driver, one master port per app), so the
// co-run honours the host NoC and every observer in RuntimeConfig.
#pragma once

#include <cstdint>
#include <vector>

#include "nexus/runtime/manager.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/task/trace.hpp"

namespace nexus {

struct MultiAppResult {
  Tick makespan = 0;                     ///< all applications drained
  std::vector<Tick> app_completion;      ///< per-app final task completion
  std::uint64_t total_tasks = 0;
  double utilization = 0.0;
};

/// Run `traces` concurrently on `manager` with `config.workers` cores.
/// Address spaces are made disjoint by offsetting each app's addresses
/// (app index in the high 48-bit address nibbles); task ids are offset to a
/// dense global range. Deterministic. Rejects `config.open_loop` (it paces
/// one trace; apps are closed-loop masters).
MultiAppResult run_multi_app(const std::vector<const Trace*>& traces,
                             TaskManagerModel& manager, const RuntimeConfig& config);

}  // namespace nexus

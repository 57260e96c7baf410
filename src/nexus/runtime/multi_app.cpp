#include "nexus/runtime/multi_app.hpp"

#include <string>

#include "nexus/telemetry/registry.hpp"

namespace nexus {

MultiAppResult run_multi_app(const std::vector<const Trace*>& traces,
                             TaskManagerModel& manager, const RuntimeConfig& config) {
  NEXUS_ASSERT_MSG(config.open_loop == nullptr,
                   "run_multi_app: RuntimeConfig::open_loop paces one trace; "
                   "apps are closed-loop masters");
  // One master port per app. Degenerate inputs are well-defined: an empty
  // trace list or a zero-task application simply contributes nothing (its
  // completion time is 0).
  std::vector<detail::Driver::Stream> streams(traces.size());
  for (std::uint32_t a = 0; a < traces.size(); ++a) {
    streams[a].trace = traces[a];
    streams[a].port = a;
    streams[a].offset = static_cast<Addr>(a) << 44;
  }
  detail::Driver driver(std::move(streams), manager, config,
                        {.master_tail = false});
  const RunResult run = driver.run();

  MultiAppResult r;
  r.makespan = run.makespan;
  r.total_tasks = run.tasks;
  r.utilization = run.utilization;
  for (const detail::Driver::Stream& s : driver.streams())
    r.app_completion.push_back(s.last);
  if (config.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *config.metrics;
    const auto apps = static_cast<std::uint32_t>(traces.size());
    reg.gauge("runtime/apps").set(apps);
    for (std::uint32_t a = 0; a < apps; ++a)
      reg.gauge(telemetry::path_join(
                    telemetry::indexed_path("runtime/app", a, apps),
                    "completion_ps"))
          .set(r.app_completion[a]);
  }
  return r;
}

}  // namespace nexus

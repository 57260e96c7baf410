#include "nexus/runtime/tenancy.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/registry.hpp"

namespace nexus {

TenantRunResult run_tenants(const std::vector<TenantStream>& streams,
                            TaskManagerModel& manager,
                            const RuntimeConfig& config) {
  NEXUS_ASSERT_MSG(config.open_loop == nullptr,
                   "run_tenants: RuntimeConfig::open_loop paces one trace; "
                   "tenant streams carry their own release times");
  NEXUS_ASSERT_MSG(streams.size() <= 256,
                   "tenant address windows support up to 256 tenants");
  // All tenants share one submission port; tenant t's addresses sit in a
  // disjoint 40-bit window and its descriptors carry tenant = t.
  std::vector<detail::Driver::Stream> ds(streams.size());
  for (std::uint32_t t = 0; t < streams.size(); ++t) {
    const TenantStream& s = streams[t];
    NEXUS_ASSERT_MSG(s.trace != nullptr, "tenant stream needs a trace");
    NEXUS_ASSERT_MSG(s.release.size() == s.trace->num_tasks(),
                     "one release time per tenant task");
    for (std::size_t i = 0; i + 1 < s.release.size(); ++i)
      NEXUS_ASSERT_MSG(s.release[i] <= s.release[i + 1],
                       "tenant release times must be non-decreasing");
    for (std::size_t i = 0; i < s.trace->num_events(); ++i)
      NEXUS_ASSERT_MSG(s.trace->events()[i].op == TraceOp::kSubmit &&
                           s.trace->events()[i].task == i,
                       "tenant streams submit tasks in release order "
                       "(no taskwaits)");
    ds[t].trace = s.trace;
    ds[t].release = s.release.data();
    ds[t].offset = static_cast<Addr>(t) << 40;
    ds[t].tenant = static_cast<std::uint16_t>(t);
  }
  detail::Driver driver(std::move(ds), manager, config,
                        {.arrival_events = true, .master_tail = false});
  const RunResult run = driver.run();

  TenantRunResult r;
  r.makespan = run.makespan;
  r.total_tasks = run.tasks;
  for (const detail::Driver::Stream& s : driver.streams()) {
    TenantLatency lat;
    lat.tasks = s.raw.size();
    lat.nack_holds = s.nack_holds;
    lat.raw = s.raw;
    if (!lat.raw.empty()) {
      std::uint64_t sum = 0;
      for (const Tick v : lat.raw) {
        sum += static_cast<std::uint64_t>(v);
        lat.max_ps = std::max(lat.max_ps, v);
      }
      lat.mean_ps = static_cast<double>(sum) /
                    static_cast<double>(lat.raw.size());
      std::vector<Tick> sorted = lat.raw;
      std::sort(sorted.begin(), sorted.end());
      const std::size_t n = sorted.size();
      const std::size_t idx = static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(n))) - 1;
      lat.p99_ps = static_cast<double>(sorted[std::min(idx, n - 1)]);
    }
    r.tenants.push_back(std::move(lat));
  }

  if (config.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *config.metrics;
    reg.gauge("tenancy/tenants")
        .set(static_cast<std::int64_t>(r.tenants.size()));
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      const TenantLatency& lat = r.tenants[t];
      const std::string stem = telemetry::indexed_path(
          "tenancy/tenant", static_cast<std::uint32_t>(t),
          static_cast<std::uint32_t>(r.tenants.size()));
      reg.gauge(telemetry::path_join(stem, "tasks"))
          .set(static_cast<std::int64_t>(lat.tasks));
      reg.gauge(telemetry::path_join(stem, "mean_ps"))
          .set(std::llround(lat.mean_ps));
      reg.gauge(telemetry::path_join(stem, "p99_ps"))
          .set(std::llround(lat.p99_ps));
      reg.gauge(telemetry::path_join(stem, "nack_holds"))
          .set(static_cast<std::int64_t>(lat.nack_holds));
    }
  }
  return r;
}

}  // namespace nexus

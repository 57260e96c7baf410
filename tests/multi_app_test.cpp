// Multi-application co-management tests: isolation of address spaces and
// barriers, shared-manager contention, and legality of combined schedules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/multi_app.hpp"
#include "nexus/runtime/tenancy.hpp"
#include "nexus/telemetry/critical_path.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"
#include "nexus/telemetry/trace.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

Trace chain_trace(int n, Tick dur) {
  Trace tr("chain");
  for (int i = 0; i < n; ++i) {
    ParamList p;
    p.push_back({0x1000, Dir::kInOut});
    tr.submit(0, dur, p);
  }
  tr.taskwait();
  return tr;
}

Trace independent_trace(int n, Tick dur) {
  Trace tr("indep");
  for (int i = 0; i < n; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, dur, p);
  }
  tr.taskwait();
  return tr;
}

/// FNV-1a over the executed schedule (task, worker, start, end per entry):
/// one number that moves if any entry moves.
std::uint64_t schedule_hash(const std::vector<ScheduleEntry>& sched) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const ScheduleEntry& e : sched) {
    mix(e.task);
    mix(e.worker);
    mix(static_cast<std::uint64_t>(e.start));
    mix(static_cast<std::uint64_t>(e.end));
  }
  return h;
}

/// An app that waits on its own producers mid-stream (taskwait_on), then
/// drains with a full barrier.
Trace waiting_trace() {
  Trace tr("waiter");
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 8; ++i) {
      ParamList p;
      p.push_back({0x2000 + 0x40 * static_cast<Addr>(i), Dir::kInOut});
      if (i > 0) p.push_back({0x2000 + 0x40 * static_cast<Addr>(i - 1), Dir::kIn});
      tr.submit(0, us(2 + i % 3), p);
    }
    tr.taskwait_on(0x2000 + 0x40 * 7);
  }
  tr.taskwait();
  return tr;
}

struct Golden {
  Tick makespan;
  std::vector<Tick> app_completion;
  std::uint64_t schedule;
};

void expect_golden(const std::vector<const Trace*>& apps, TaskManagerModel& mgr,
                   std::uint32_t workers, const Golden& want) {
  std::vector<ScheduleEntry> sched;
  RuntimeConfig rc;
  rc.workers = workers;
  rc.schedule_out = &sched;
  const MultiAppResult r = run_multi_app(apps, mgr, rc);
  EXPECT_EQ(r.makespan, want.makespan);
  EXPECT_EQ(r.app_completion, want.app_completion);
  EXPECT_EQ(schedule_hash(sched), want.schedule);
}

TEST(MultiApp, GoldenAgainstParent) {
  // Pinned co-run results: any change to how the driver interleaves the
  // apps' submissions, barriers and dispatches moves one of these.
  const Trace h264 = workloads::make_h264dec(workloads::h264_config(8));
  const Trace waiter = waiting_trace();
  NexusSharpConfig sharp;
  sharp.num_task_graphs = 6;
  sharp.freq_mhz = 100.0;
  {
    SCOPED_TRACE("nexus# 6TG, taskwait_on per app");
    NexusSharp mgr(sharp);
    expect_golden({&h264, &waiter}, mgr, 16,
                  {71474392522, {71474392522, 150780000}, 7471741854634486574ULL});
  }
  {
    SCOPED_TRACE("nexus++, taskwait_on falls back to a full barrier");
    NexusPP mgr;
    expect_golden({&h264, &waiter}, mgr, 16,
                  {125051361023, {125051361023, 196340000}, 9062942198829039690ULL});
  }
  {
    SCOPED_TRACE("nexus# 2TG, contended pool");
    const Trace a = independent_trace(30, us(5));
    const Trace b = independent_trace(30, us(5));
    NexusSharpConfig cfg = sharp;
    cfg.num_task_graphs = 2;
    cfg.pool_capacity = 4;
    NexusSharp mgr(cfg);
    expect_golden({&a, &b, &waiter}, mgr, 4,
                  {226730000, {42300000, 81340000, 226730000}, 934528362986939760ULL});
  }
}

TEST(MultiApp, SingleAppMatchesDriver) {
  const Trace tr = workloads::make_gaussian({.n = 80});
  IdealManager m1;
  IdealManager m2;
  const RunResult single = run_trace(tr, m1, RuntimeConfig{.workers = 8});
  const MultiAppResult multi = run_multi_app({&tr}, m2, RuntimeConfig{.workers = 8});
  EXPECT_EQ(multi.makespan, single.makespan);
  EXPECT_EQ(multi.total_tasks, single.tasks);
}

TEST(MultiApp, AddressSpacesAreIsolated) {
  // Two apps whose traces use the SAME raw addresses: a serial chain each.
  // Co-run with enough workers, the chains must overlap (no false
  // dependencies across apps), so the makespan equals one chain.
  const Trace a = chain_trace(10, us(10));
  const Trace b = chain_trace(10, us(10));
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.makespan, us(100));
  EXPECT_EQ(r.app_completion.size(), 2u);
}

TEST(MultiApp, BarriersAreScopedPerApp) {
  // App A: one long task, then taskwait, then a second long task.
  // App B: many short independent tasks. B must finish long before A's
  // barrier-delimited second phase would allow if barriers were global.
  Trace a("a");
  {
    ParamList p;
    p.push_back({0x10, Dir::kOut});
    a.submit(0, us(100), p);
    a.taskwait();
    ParamList q;
    q.push_back({0x20, Dir::kOut});
    a.submit(0, us(100), q);
    a.taskwait();
  }
  const Trace b = independent_trace(8, us(10));
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.app_completion[0], us(200));
  EXPECT_LE(r.app_completion[1], us(40));  // not held by A's taskwait
}

TEST(MultiApp, TaskwaitOnScopedPerApp) {
  // Both apps taskwait_on the same RAW address; placement must keep them
  // waiting on their OWN producer.
  Trace a("a");
  {
    ParamList p;
    p.push_back({0x10, Dir::kOut});
    a.submit(0, us(50), p);
    a.taskwait_on(0x10);
    ParamList q;
    q.push_back({0x20, Dir::kOut});
    a.submit(0, us(1), q);
    a.taskwait();
  }
  Trace b("b");
  {
    ParamList p;
    p.push_back({0x10, Dir::kOut});
    b.submit(0, us(5), p);
    b.taskwait_on(0x10);
    ParamList q;
    q.push_back({0x20, Dir::kOut});
    b.submit(0, us(1), q);
    b.taskwait();
  }
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  // B's wait releases at 5us; its second task ends ~6us. A's at ~51us.
  EXPECT_LE(r.app_completion[1], us(7));
  EXPECT_GE(r.app_completion[0], us(51));
}

TEST(MultiApp, SharedNexusSharpDrains) {
  // Two real workloads through one Nexus# instance: both complete, the
  // gather state drains, and co-running beats back-to-back serial runs.
  const Trace a = workloads::make_h264dec(workloads::h264_config(8));
  const Trace b = workloads::make_gaussian({.n = 250});
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 6;
  cfg.freq_mhz = 100.0;
  NexusSharp co(cfg);
  const MultiAppResult r = run_multi_app({&a, &b}, co, RuntimeConfig{.workers = 32});
  EXPECT_EQ(r.total_tasks, a.num_tasks() + b.num_tasks());
  EXPECT_EQ(co.stats().sim_tasks_live, 0u);

  NexusSharp s1(cfg);
  NexusSharp s2(cfg);
  const Tick serial =
      run_trace(a, s1, RuntimeConfig{.workers = 32}).makespan +
      run_trace(b, s2, RuntimeConfig{.workers = 32}).makespan;
  EXPECT_LT(r.makespan, serial);
}

TEST(MultiApp, PoolContentionStillDrains) {
  // A tiny shared pool forces both masters to block and hand slots back
  // and forth; liveness must hold.
  const Trace a = independent_trace(30, us(5));
  const Trace b = independent_trace(30, us(5));
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 2;
  cfg.freq_mhz = 100.0;
  cfg.pool_capacity = 4;
  NexusSharp mgr(cfg);
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.total_tasks, 60u);
  EXPECT_GT(r.makespan, 0);
}

TEST(MultiApp, EmptyTraceListIsWellDefined) {
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.total_tasks, 0u);
  EXPECT_EQ(r.makespan, 0);
  EXPECT_TRUE(r.app_completion.empty());
}

TEST(MultiApp, ZeroTaskAppContributesNothing) {
  // An app whose trace has no tasks (only a barrier) completes at 0 and
  // must not wedge the other app.
  Trace empty("empty");
  empty.taskwait();
  const Trace b = independent_trace(6, us(10));
  IdealManager mgr;
  const MultiAppResult r =
      run_multi_app({&empty, &b}, mgr, RuntimeConfig{.workers = 2});
  EXPECT_EQ(r.total_tasks, 6u);
  ASSERT_EQ(r.app_completion.size(), 2u);
  EXPECT_EQ(r.app_completion[0], 0);
  EXPECT_GT(r.app_completion[1], 0);
}

TEST(MultiApp, EndGaugesReconcileWithUtilization) {
  // The metrics binding added for parity with the single-app driver: per
  // core, busy + idle == makespan, and the busy sum reproduces the
  // report's utilization exactly.
  const Trace a = workloads::make_gaussian({.n = 60});
  const Trace b = independent_trace(20, us(5));
  IdealManager mgr;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 4;
  rc.metrics = &reg;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("runtime/makespan_ps")->gauge, r.makespan);
  EXPECT_EQ(snap.find("runtime/apps")->gauge, 2);
  std::int64_t busy_sum = 0;
  for (std::uint32_t w = 0; w < 4; ++w) {
    const std::string core = "runtime/core" + std::to_string(w);
    const auto* busy = snap.find(core + "/busy_ps");
    const auto* idle = snap.find(core + "/idle_ps");
    ASSERT_NE(busy, nullptr);
    ASSERT_NE(idle, nullptr);
    EXPECT_EQ(busy->gauge + idle->gauge, r.makespan);
    busy_sum += busy->gauge;
  }
  EXPECT_NEAR(r.utilization,
              static_cast<double>(busy_sum) /
                  (static_cast<double>(r.makespan) * 4.0),
              1e-12);
  // Per-app completion gauges exist (single-digit family: no padding).
  EXPECT_EQ(snap.find("runtime/app0/completion_ps")->gauge,
            r.app_completion[0]);
  EXPECT_EQ(snap.find("runtime/app1/completion_ps")->gauge,
            r.app_completion[1]);
}

TEST(MultiApp, Deterministic) {
  const Trace a = workloads::make_gaussian({.n = 60});
  const Trace b = independent_trace(50, us(3));
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  NexusSharp m1(cfg);
  NexusSharp m2(cfg);
  const MultiAppResult r1 = run_multi_app({&a, &b}, m1, RuntimeConfig{.workers = 8});
  const MultiAppResult r2 = run_multi_app({&a, &b}, m2, RuntimeConfig{.workers = 8});
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.app_completion, r2.app_completion);
}

NexusSharpConfig sharp4() {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  return cfg;
}

TEST(MultiApp, TracedRunConservesSpansAndCriticalPath) {
  const Trace a = workloads::make_gaussian({.n = 40});
  const Trace b = waiting_trace();
  NexusSharp mgr(sharp4());
  telemetry::TraceRecorder rec;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.trace = &rec;
  rc.metrics = &reg;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, rc);
  const telemetry::TraceData td = rec.freeze();
  ASSERT_EQ(td.tasks.size(), r.total_tasks);
  EXPECT_EQ(td.makespan, r.makespan);

  // Sojourns rebuilt from the span chains equal the driver's histogram.
  std::uint64_t sum = 0;
  for (const telemetry::TaskSpan& s : td.tasks) {
    ASSERT_TRUE(s.complete()) << "task " << s.task;
    const telemetry::TaskPhases p = telemetry::phases_of(s);
    EXPECT_EQ(p.ingest + p.dep_wait + p.writeback + p.queue_wait +
                  p.dispatch + p.execute,
              s.sojourn());
    sum += static_cast<std::uint64_t>(s.sojourn());
  }
  const telemetry::Snapshot snap = reg.snapshot();
  const telemetry::MetricValue* soj = snap.find("runtime/sojourn_ps");
  ASSERT_NE(soj, nullptr);
  EXPECT_EQ(soj->hist.count, r.total_tasks);
  EXPECT_EQ(soj->hist.sum, sum);

  // The critical path tiles [0, makespan] exactly.
  const telemetry::CriticalPathReport cp = telemetry::critical_path(td);
  telemetry::TraceTick total = 0;
  for (const telemetry::PathSegment& seg : cp.segments) total += seg.dur();
  EXPECT_EQ(total, r.makespan);
}

TEST(MultiApp, ObserversAttachAndDetachedRunIsBitIdentical) {
  const Trace a = workloads::make_gaussian({.n = 40});
  const Trace b = waiting_trace();
  std::vector<ScheduleEntry> detached_sched;
  std::vector<ScheduleEntry> attached_sched;
  NexusSharp m1(sharp4());
  RuntimeConfig plain;
  plain.workers = 8;
  plain.schedule_out = &detached_sched;
  const MultiAppResult detached = run_multi_app({&a, &b}, m1, plain);

  telemetry::MetricRegistry reg;
  telemetry::TimelineConfig tcfg;
  tcfg.interval_ps = 10'000'000;
  telemetry::TimelineRecorder timeline(reg, tcfg);
  telemetry::Profiler prof;
  RuntimeConfig observed = plain;
  observed.schedule_out = &attached_sched;
  observed.metrics = &reg;
  observed.timeline = &timeline;
  observed.profiler = &prof;
  NexusSharp m2(sharp4());
  const MultiAppResult attached = run_multi_app({&a, &b}, m2, observed);

  EXPECT_EQ(attached.makespan, detached.makespan);
  EXPECT_EQ(attached.app_completion, detached.app_completion);
  EXPECT_EQ(schedule_hash(attached_sched), schedule_hash(detached_sched));

  const telemetry::Timeline tl = timeline.freeze();
  EXPECT_GT(tl.t.size(), 1u);
  EXPECT_NE(tl.find("runtime/dispatches"), nullptr);
  const telemetry::ProfileData pd = prof.freeze();
  EXPECT_GT(pd.nodes[0].total_ns, 0u);
  EXPECT_NE(pd.find("handle;driver"), nullptr);
}

TEST(AdapterDeathTest, RejectFieldsTheyCannotHonour) {
  // Every RuntimeConfig field is honoured or rejected at entry, never
  // dropped. open_loop paces one trace's submissions: a co-run of apps (or
  // of tenants, which carry their own release times) cannot use it.
  const Trace tr = independent_trace(4, us(1));
  OpenLoopSubmission arrivals;
  arrivals.release.assign(tr.num_tasks(), 0);
  RuntimeConfig open_loop;
  open_loop.open_loop = &arrivals;
  IdealManager mgr;
  EXPECT_DEATH(run_multi_app({&tr}, mgr, open_loop), "run_multi_app: .*open_loop");
  const TenantStream stream{&tr, std::vector<Tick>(tr.num_tasks(), 0)};
  EXPECT_DEATH(run_tenants({stream}, mgr, open_loop), "run_tenants: .*open_loop");
  // A timeline samples a registry; without one there is nothing to sample.
  telemetry::MetricRegistry reg;
  telemetry::TimelineRecorder timeline(reg);
  RuntimeConfig no_metrics;
  no_metrics.timeline = &timeline;
  EXPECT_DEATH(run_trace(tr, mgr, no_metrics), "timeline requires");
}

}  // namespace
}  // namespace nexus

// Multi-tenant Nexus# tests: clustered arbiter hierarchy correctness,
// flat-mode bit-identity, per-tenant quota NACK isolation and liveness,
// WRR starvation regression, fairness-harness arithmetic, and the
// determinism contracts of the tenant driver.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "nexus/harness/fairness.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/schedule_validator.hpp"
#include "nexus/runtime/tenancy.hpp"
#include "nexus/sim/event_queue.hpp"
#include "nexus/telemetry/critical_path.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"
#include "nexus/telemetry/trace.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

NexusSharpConfig sharp_cfg(std::uint32_t clusters) {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  cfg.arbiter_clusters = clusters;
  return cfg;
}

/// Owns the per-tenant serving workloads a run_tenants call references.
struct TenantSet {
  std::vector<workloads::ArrivalSchedule> scheds;
  std::vector<Trace> traces;
  std::vector<TenantStream> streams;
};

TenantSet make_tenants(const std::vector<double>& rates_hz,
                       std::uint64_t tasks_each, std::uint64_t seed = 0x7E4A) {
  TenantSet set;
  set.scheds.reserve(rates_hz.size());
  set.traces.reserve(rates_hz.size());
  for (std::size_t t = 0; t < rates_hz.size(); ++t) {
    workloads::ArrivalConfig c;
    c.rate_hz = rates_hz[t];
    c.tasks = tasks_each;
    c.clients = 1;
    c.seed = seed + t;
    c.chain_fraction = 0.0;
    set.scheds.push_back(workloads::generate_arrivals(c));
    set.traces.push_back(workloads::make_serving_trace(set.scheds.back()));
  }
  for (std::size_t t = 0; t < rates_hz.size(); ++t)
    set.streams.push_back({&set.traces[t], set.scheds[t].submission.release});
  return set;
}

// --- clustered arbiter hierarchy -----------------------------------------

TEST(Clustered, DrainsAndScheduleIsValid) {
  const Trace tr = workloads::make_gaussian({.n = 150});
  NexusSharp mgr(sharp_cfg(2));
  std::vector<ScheduleEntry> sched;
  RuntimeConfig rc;
  rc.workers = 16;
  rc.schedule_out = &sched;
  const RunResult r = run_trace(tr, mgr, rc);
  EXPECT_EQ(r.tasks, tr.num_tasks());
  EXPECT_EQ(mgr.stats().sim_tasks_live, 0u);
  EXPECT_TRUE(mgr.clustered());
  std::string err;
  EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
}

TEST(Clustered, FourClustersValidToo) {
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  NexusSharp mgr(sharp_cfg(4));
  std::vector<ScheduleEntry> sched;
  RuntimeConfig rc;
  rc.workers = 16;
  rc.schedule_out = &sched;
  const RunResult r = run_trace(tr, mgr, rc);
  EXPECT_EQ(r.tasks, tr.num_tasks());
  EXPECT_EQ(mgr.stats().sim_tasks_live, 0u);
  std::string err;
  EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
}

TEST(Clustered, ZeroAndOneClusterAreFlatBitIdentical) {
  // arbiter_clusters 0 and 1 must both take the legacy single-arbiter
  // pipeline: not just equal makespans, the entire schedule bit-identical.
  const Trace tr = workloads::make_gaussian({.n = 120});
  std::vector<ScheduleEntry> s0;
  std::vector<ScheduleEntry> s1;
  {
    NexusSharp mgr(sharp_cfg(0));
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = &s0;
    run_trace(tr, mgr, rc);
    EXPECT_FALSE(mgr.clustered());
  }
  {
    NexusSharp mgr(sharp_cfg(1));
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = &s1;
    run_trace(tr, mgr, rc);
    EXPECT_FALSE(mgr.clustered());
  }
  ASSERT_EQ(s0.size(), s1.size());
  for (std::size_t i = 0; i < s0.size(); ++i) {
    EXPECT_EQ(s0[i].task, s1[i].task);
    EXPECT_EQ(s0[i].worker, s1[i].worker);
    EXPECT_EQ(s0[i].start, s1[i].start);
    EXPECT_EQ(s0[i].end, s1[i].end);
  }
}

TEST(Clustered, Deterministic) {
  const Trace tr = workloads::make_gaussian({.n = 100});
  std::vector<ScheduleEntry> a;
  std::vector<ScheduleEntry> b;
  for (std::vector<ScheduleEntry>* out : {&a, &b}) {
    NexusSharp mgr(sharp_cfg(2));
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = out;
    run_trace(tr, mgr, rc);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].start, b[i].start);
  }
}

TEST(Clustered, SingleClusterParticipationDrains) {
  // Single-param tasks: each touches exactly one task graph, so exactly one
  // cluster participates and the root must not wait on the idle cluster.
  Trace tr("oneparam");
  for (int i = 0; i < 40; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, us(5), p);
  }
  tr.taskwait();
  NexusSharp mgr(sharp_cfg(4));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 8});
  EXPECT_EQ(r.tasks, 40u);
  EXPECT_EQ(mgr.stats().sim_tasks_live, 0u);
}

// --- admission control / quotas -------------------------------------------

TEST(Tenancy, QuotaNackIsolatesHeavyTenant) {
  // Heavy tenant 0 offered 50x the light tenant's rate, pool quota far
  // below its burst depth: the heavy stream must be NACK-held while the
  // light one keeps flowing, and everything still drains.
  TenantSet set = make_tenants({5e6, 1e5}, 300);
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.pool_capacity = 64;
  cfg.tenancy.tenants = 2;
  cfg.tenancy.quota.pool = 8;
  NexusSharp mgr(cfg);
  const TenantRunResult r =
      run_tenants(set.streams, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.total_tasks, 600u);
  EXPECT_EQ(r.tenants[0].tasks, 300u);
  EXPECT_EQ(r.tenants[1].tasks, 300u);
  EXPECT_GT(r.tenants[0].nack_holds, 0u);
  EXPECT_GT(mgr.stats().nacks, 0u);
  EXPECT_EQ(mgr.stats().sim_tasks_live, 0u);
}

TEST(Tenancy, TinyQuotaStaysLive) {
  // quota.pool = 1 serializes the tenant completely; the NACK/resume
  // retry loop must still drain every task.
  TenantSet set = make_tenants({2e6}, 120);
  NexusSharpConfig cfg = sharp_cfg(0);  // flat mode polices quotas too
  cfg.tenancy.tenants = 1;
  cfg.tenancy.quota.pool = 1;
  NexusSharp mgr(cfg);
  const TenantRunResult r =
      run_tenants(set.streams, mgr, RuntimeConfig{.workers = 2});
  EXPECT_EQ(r.total_tasks, 120u);
  EXPECT_GT(r.tenants[0].nack_holds, 0u);
  EXPECT_EQ(mgr.stats().sim_tasks_live, 0u);
}

TEST(Tenancy, DisabledTenancyNeverNacks) {
  TenantSet set = make_tenants({2e6, 2e6}, 150);
  NexusSharp mgr(sharp_cfg(2));
  const TenantRunResult r =
      run_tenants(set.streams, mgr, RuntimeConfig{.workers = 8});
  EXPECT_EQ(r.total_tasks, 300u);
  EXPECT_EQ(r.tenants[0].nack_holds + r.tenants[1].nack_holds, 0u);
  EXPECT_EQ(mgr.stats().nacks, 0u);
}

// --- determinism ----------------------------------------------------------

TEST(Tenancy, QueueKindBitIdentity) {
  // The co-run's every per-task latency must be identical under the heap
  // and calendar event queues (the repo-wide determinism contract).
  TenantSet set = make_tenants({1e6, 4e6, 5e5}, 150);
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.tenancy.tenants = 3;
  cfg.tenancy.quota.pool = 16;
  cfg.tenancy.weights = {1, 4, 1};

  const QueueKind saved = default_queue_kind();
  std::vector<TenantRunResult> results;
  for (const QueueKind k : {QueueKind::kBinaryHeap, QueueKind::kCalendar}) {
    set_default_queue_kind(k);
    NexusSharp mgr(cfg);
    results.push_back(
        run_tenants(set.streams, mgr, RuntimeConfig{.workers = 8}));
  }
  set_default_queue_kind(saved);

  EXPECT_EQ(results[0].makespan, results[1].makespan);
  ASSERT_EQ(results[0].tenants.size(), results[1].tenants.size());
  for (std::size_t t = 0; t < results[0].tenants.size(); ++t) {
    EXPECT_EQ(results[0].tenants[t].raw, results[1].tenants[t].raw)
        << "tenant " << t;
    EXPECT_EQ(results[0].tenants[t].nack_holds,
              results[1].tenants[t].nack_holds);
  }
}

// --- goldens ----------------------------------------------------------------

/// FNV-1a over a latency vector, in order.
std::uint64_t latency_hash(const std::vector<Tick>& raw) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Tick v : raw) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct TenantGolden {
  Tick makespan;
  std::vector<std::uint64_t> raw;  ///< latency_hash per tenant
  std::vector<std::uint64_t> nack_holds;
};

void expect_golden(const TenantRunResult& r, const TenantGolden& want) {
  EXPECT_EQ(r.makespan, want.makespan);
  std::vector<std::uint64_t> raw;
  std::vector<std::uint64_t> holds;
  for (const TenantLatency& t : r.tenants) {
    raw.push_back(latency_hash(t.raw));
    holds.push_back(t.nack_holds);
  }
  EXPECT_EQ(raw, want.raw);
  EXPECT_EQ(holds, want.nack_holds);
}

TEST(Tenancy, GoldenAgainstParent) {
  // Pinned co-run results for the two ablation_tenancy policies on the
  // heavy-vs-light fixture, plus the all-arrivals-at-0 "blast" probe the
  // bench sizes its rates with. Any change to the port's arrival order,
  // NACK holds or same-tick ordering moves one of these.
  TenantSet set = make_tenants({8e6, 2e5, 2e5, 2e5}, 250);
  NexusSharpConfig base = sharp_cfg(2);
  base.pool_capacity = 48;
  {
    SCOPED_TRACE("fifo");
    NexusSharpConfig fifo = base;
    fifo.tenancy.tenants = 4;
    fifo.tenancy.weighted = false;
    NexusSharp mgr(fifo);
    expect_golden(run_tenants(set.streams, mgr, RuntimeConfig{.workers = 4}),
                  {1343242905,
                   {7492919359490863000ULL, 3550021599004543395ULL,
                    9539024291196460860ULL, 14988161079772422136ULL},
                   {0, 0, 0, 0}});
  }
  {
    SCOPED_TRACE("quotas + wrr");
    NexusSharpConfig qos = base;
    qos.tenancy.tenants = 4;
    qos.tenancy.quota.pool = 12;
    qos.tenancy.weighted = true;
    qos.tenancy.weights = {4, 1, 1, 1};
    NexusSharp mgr(qos);
    expect_golden(run_tenants(set.streams, mgr, RuntimeConfig{.workers = 4}),
                  {1343242905,
                   {1584073400334980747ULL, 16208788479847027714ULL,
                    11575418432928380928ULL, 4529133653892053496ULL},
                   {275, 0, 0, 0}});
  }
  {
    SCOPED_TRACE("blast");
    workloads::ArrivalConfig c;
    c.kernel = "gaussian-250";
    c.tasks = 400;
    c.clients = 1;
    c.chain_fraction = 0.0;
    const workloads::ArrivalSchedule sched = workloads::generate_arrivals(c);
    const Trace probe = workloads::make_serving_trace(sched);
    const TenantStream blast{&probe, std::vector<Tick>(probe.num_tasks(), 0)};
    NexusSharpConfig cfg = base;
    NexusSharp mgr(cfg);
    expect_golden(run_tenants({blast}, mgr, RuntimeConfig{.workers = 8}),
                  {131575000, {13929711041572232400ULL}, {0}});
  }
}

// --- QoS / starvation regression ------------------------------------------

TEST(Tenancy, WrrAndQuotasProtectLightTenants) {
  // One heavy bursty tenant against three light tenants on a small pool.
  // Unpoliced (no quotas, FIFO root), the heavy burst monopolizes the pool
  // and the light tenants' mean latency inflates; with per-tenant quotas +
  // WRR the light tenants must stay close to their unpoliced-from-light
  // baseline. Regression gate: QoS light mean < unpoliced light mean.
  TenantSet set = make_tenants({8e6, 2e5, 2e5, 2e5}, 250);

  auto light_mean = [](const TenantRunResult& r) {
    double sum = 0.0;
    for (std::size_t t = 1; t < r.tenants.size(); ++t)
      sum += r.tenants[t].mean_ps;
    return sum / static_cast<double>(r.tenants.size() - 1);
  };

  NexusSharpConfig base = sharp_cfg(2);
  base.pool_capacity = 48;

  NexusSharpConfig fifo = base;
  fifo.tenancy.tenants = 4;
  fifo.tenancy.weighted = false;  // no quotas, FIFO root: the baseline
  NexusSharp m_fifo(fifo);
  const TenantRunResult r_fifo =
      run_tenants(set.streams, m_fifo, RuntimeConfig{.workers = 4});

  NexusSharpConfig qos = base;
  qos.tenancy.tenants = 4;
  qos.tenancy.quota.pool = 12;
  qos.tenancy.weighted = true;
  qos.tenancy.weights = {1, 1, 1, 1};
  NexusSharp m_qos(qos);
  const TenantRunResult r_qos =
      run_tenants(set.streams, m_qos, RuntimeConfig{.workers = 4});

  EXPECT_EQ(r_fifo.total_tasks, 1000u);
  EXPECT_EQ(r_qos.total_tasks, 1000u);
  EXPECT_LT(light_mean(r_qos), light_mean(r_fifo));
}

// --- fairness harness ------------------------------------------------------

TEST(Fairness, JainIndexMath) {
  EXPECT_DOUBLE_EQ(harness::jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(harness::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(harness::jain_index({}), 0.0);
  EXPECT_DOUBLE_EQ(harness::jain_index({0.0, 0.0}), 0.0);
  const double j = harness::jain_index({2.0, 1.0});
  EXPECT_GT(j, 0.5);
  EXPECT_LT(j, 1.0);
}

TEST(Fairness, ReportAndGaugesAreConsistent) {
  TenantSet set = make_tenants({2e6, 1e6}, 120);
  harness::ManagerSpec spec = harness::ManagerSpec::nexussharp(4, 100.0);
  spec.sharp.arbiter_clusters = 2;
  spec.sharp.tenancy.tenants = 2;
  spec.sharp.tenancy.quota.pool = 16;

  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.metrics = &reg;
  const harness::FairnessReport rep =
      harness::run_fairness(set.streams, spec, 8, rc);

  ASSERT_EQ(rep.tenants.size(), 2u);
  for (const harness::TenantFairness& f : rep.tenants) {
    EXPECT_GT(f.solo_mean_ps, 0.0);
    EXPECT_GE(f.slowdown, 1.0);  // contention can only hurt
  }
  EXPECT_GT(rep.jain, 0.0);
  EXPECT_LE(rep.jain, 1.0 + 1e-9);
  EXPECT_GE(rep.slowdown_ratio, 1.0);

  const telemetry::Snapshot snap = reg.snapshot();
  const telemetry::MetricValue* jain = snap.find("fairness/jain_x1e6");
  ASSERT_NE(jain, nullptr);
  EXPECT_EQ(jain->gauge, std::llround(rep.jain * 1e6));
  EXPECT_NE(snap.find("fairness/tenant0/slowdown_x1e3"), nullptr);
  EXPECT_NE(snap.find("runtime/offered"), nullptr);
}

TEST(Fairness, SoloBaselinesStayOutOfCallerSchedule) {
  // The caller's schedule_out describes the co-run only: solo baselines
  // number their tasks locally and must not append to it.
  TenantSet set = make_tenants({2e6, 1e6, 5e5}, 40);
  harness::ManagerSpec spec = harness::ManagerSpec::nexussharp(4, 100.0);
  spec.sharp.tenancy.tenants = 3;
  std::vector<ScheduleEntry> sched;
  RuntimeConfig rc;
  rc.schedule_out = &sched;
  const harness::FairnessReport rep =
      harness::run_fairness(set.streams, spec, 4, rc);
  ASSERT_EQ(sched.size(), rep.corun.total_tasks);
  std::vector<bool> seen(sched.size(), false);
  for (const ScheduleEntry& e : sched) {
    ASSERT_LT(e.task, sched.size());
    EXPECT_FALSE(seen[e.task]) << "task " << e.task << " listed twice";
    seen[e.task] = true;
  }
}

// --- one driver: host NoC, traces and observers apply to tenancy runs -------

NexusSharpConfig qos_cfg() {
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.pool_capacity = 48;
  cfg.tenancy.tenants = 3;
  cfg.tenancy.quota.pool = 12;
  cfg.tenancy.weights = {2, 1, 1};
  return cfg;
}

TEST(Tenancy, HostMeshNocMovesTheMakespan) {
  // Dispatches and finish notifications cross the host NoC in a tenancy
  // run too, so a mesh between manager and cores changes the outcome.
  TenantSet set = make_tenants({4e6, 1e6, 1e6}, 120);
  NexusSharp ideal_mgr(qos_cfg());
  const TenantRunResult ideal =
      run_tenants(set.streams, ideal_mgr, RuntimeConfig{.workers = 8});
  NexusSharp mesh_mgr(qos_cfg());
  RuntimeConfig rc;
  rc.workers = 8;
  rc.noc.kind = noc::TopologyKind::kMesh;
  const TenantRunResult mesh = run_tenants(set.streams, mesh_mgr, rc);
  EXPECT_EQ(mesh.total_tasks, ideal.total_tasks);
  EXPECT_NE(mesh.makespan, ideal.makespan);
  EXPECT_EQ(mesh_mgr.stats().sim_tasks_live, 0u);
}

TEST(Tenancy, TracedRunConservesSpansAndCriticalPath) {
  TenantSet set = make_tenants({4e6, 1e6, 1e6}, 120);
  NexusSharp mgr(qos_cfg());
  telemetry::TraceRecorder rec;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.trace = &rec;
  rc.metrics = &reg;
  const TenantRunResult r = run_tenants(set.streams, mgr, rc);
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

TEST(Tenancy, ObserversAttachAndDetachedRunIsBitIdentical) {
  TenantSet set = make_tenants({4e6, 1e6, 1e6}, 120);
  std::vector<ScheduleEntry> detached_sched;
  std::vector<ScheduleEntry> attached_sched;
  NexusSharp m1(qos_cfg());
  RuntimeConfig plain;
  plain.workers = 8;
  plain.schedule_out = &detached_sched;
  const TenantRunResult detached = run_tenants(set.streams, m1, plain);

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
  NexusSharp m2(qos_cfg());
  const TenantRunResult attached = run_tenants(set.streams, m2, observed);

  EXPECT_EQ(attached.makespan, detached.makespan);
  for (std::size_t t = 0; t < detached.tenants.size(); ++t) {
    EXPECT_EQ(attached.tenants[t].raw, detached.tenants[t].raw) << t;
    EXPECT_EQ(attached.tenants[t].nack_holds, detached.tenants[t].nack_holds);
  }
  ASSERT_EQ(attached_sched.size(), detached_sched.size());
  for (std::size_t i = 0; i < detached_sched.size(); ++i) {
    EXPECT_EQ(attached_sched[i].task, detached_sched[i].task) << i;
    EXPECT_EQ(attached_sched[i].worker, detached_sched[i].worker) << i;
    EXPECT_EQ(attached_sched[i].start, detached_sched[i].start) << i;
  }

  const telemetry::Timeline tl = timeline.freeze();
  EXPECT_GT(tl.t.size(), 1u);
  EXPECT_NE(tl.find("runtime/dispatches"), nullptr);
  const telemetry::ProfileData pd = prof.freeze();
  EXPECT_GT(pd.nodes[0].total_ns, 0u);
  EXPECT_NE(pd.find("handle;driver"), nullptr);
}

TEST(Tenancy, TenantTelemetryPathsAreZeroPadded) {
  // 12 tenants: per-tenant paths must carry two-digit indices so snapshot
  // path order equals numeric tenant order.
  std::vector<double> rates(12, 5e5);
  TenantSet set = make_tenants(rates, 20);
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.tenancy.tenants = 12;
  NexusSharp mgr(cfg);
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.metrics = &reg;
  run_tenants(set.streams, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_NE(snap.find("tenancy/tenant07/tasks"), nullptr);
  EXPECT_NE(snap.find("tenancy/tenant11/tasks"), nullptr);
  EXPECT_EQ(snap.find("tenancy/tenant7/tasks"), nullptr);
}

}  // namespace
}  // namespace nexus

// Harness tests: sweep mechanics, baseline definition, manager factories.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "nexus/harness/experiment.hpp"
#include "nexus/harness/serving.hpp"
#include "nexus/telemetry/snapshot.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::harness {
namespace {

TEST(Harness, PaperCoreAxes) {
  EXPECT_EQ(paper_cores_256().size(), 9u);
  EXPECT_EQ(paper_cores_256().front(), 1u);
  EXPECT_EQ(paper_cores_256().back(), 256u);
  EXPECT_EQ(paper_cores_64().back(), 64u);
  EXPECT_EQ(nanos_cores_32().back(), 32u);
}

TEST(Harness, BaselineIsSingleCoreIdeal) {
  const Trace tr = workloads::make_gaussian({.n = 50});
  // With one worker and no overhead, the makespan is the serial time.
  EXPECT_EQ(ideal_baseline(tr), tr.total_work());
}

TEST(Harness, IdealSweepSpeedupsAreSane) {
  const Trace tr = workloads::make_cray();
  const Tick base = ideal_baseline(tr);
  const Series s = sweep(tr, ManagerSpec::ideal(), {1, 2, 4}, base);
  ASSERT_EQ(s.points.size(), 3u);
  EXPECT_NEAR(s.points[0].speedup, 1.0, 1e-9);
  EXPECT_GT(s.points[1].speedup, 1.8);
  EXPECT_LE(s.points[1].speedup, 2.0 + 1e-9);
  EXPECT_GT(s.points[2].speedup, 3.5);
  EXPECT_EQ(s.max_speedup(), s.points[2].speedup);
}

TEST(Harness, ParallelMapKeepsInputOrder) {
  std::atomic<int> calls{0};
  const std::vector<std::size_t> out = parallel_map(
      100,
      [&](std::size_t i) {
        ++calls;
        return i * i;
      },
      4);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  EXPECT_EQ(calls.load(), 100);  // every index exactly once
  EXPECT_TRUE(parallel_map(0, [](std::size_t i) { return i; }).empty());
}

TEST(Harness, ParallelMapWithOneWorkerRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const std::vector<int> out = parallel_map(
      5,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return static_cast<int>(i) + 1;
      },
      1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Harness, ParallelMapRethrowsAfterJoining) {
  std::atomic<int> calls{0};
  EXPECT_THROW(parallel_map(
                   16,
                   [&](std::size_t i) {
                     ++calls;
                     if (i == 3) throw std::runtime_error("point 3 failed");
                     return i;
                   },
                   4),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 16);  // the other points still ran
}

TEST(Harness, SweepWithSharedScheduleLogRunsPointsOneAtATime) {
  // A caller-owned sink makes the sweep serial: the log holds each point's
  // schedule whole, in point order.
  const Trace tr = workloads::make_gaussian({.n = 30});
  const Tick base = ideal_baseline(tr);
  std::vector<ScheduleEntry> log;
  RuntimeConfig rc;
  rc.schedule_out = &log;
  const Series s = sweep(tr, ManagerSpec::nexussharp(2), {1, 4}, base, rc);
  ASSERT_EQ(s.points.size(), 2u);
  ASSERT_EQ(log.size(), 2 * tr.num_tasks());
  for (std::size_t i = 0; i < tr.num_tasks(); ++i) EXPECT_EQ(log[i].worker, 0u);
}

TEST(Harness, SpeedupAtFindsLargestCoveredPoint) {
  Series s;
  s.label = "x";
  const auto point = [](std::uint32_t cores, double speedup) {
    SweepPoint p;
    p.cores = cores;
    p.speedup = speedup;
    return p;
  };
  s.points = {point(1, 1.0), point(8, 5.0), point(32, 9.0)};
  EXPECT_DOUBLE_EQ(s.speedup_at(32), 9.0);
  EXPECT_DOUBLE_EQ(s.speedup_at(16), 5.0);
  EXPECT_DOUBLE_EQ(s.speedup_at(256), 9.0);
}

TEST(Harness, SharpSpecUsesTableIFrequency) {
  const ManagerSpec s6 = ManagerSpec::nexussharp(6);
  EXPECT_DOUBLE_EQ(s6.sharp.freq_mhz, 55.56);
  EXPECT_EQ(s6.sharp.num_task_graphs, 6u);
  const ManagerSpec fixed = ManagerSpec::nexussharp(6, 100.0);
  EXPECT_DOUBLE_EQ(fixed.sharp.freq_mhz, 100.0);
}

TEST(Harness, TopologyAndPlacementLabelsJoinBothAxes) {
  ManagerSpec spec = ManagerSpec::nexussharp(6);
  RuntimeConfig rc;
  EXPECT_EQ(topology_label(spec, rc), "ideal");
  EXPECT_EQ(placement_label(spec, rc), "default");

  spec.sharp.noc.kind = noc::TopologyKind::kTorus;
  EXPECT_EQ(topology_label(spec, rc), "torus");

  spec.sharp.noc.placement = {0, 1, 2, 3, 4, 5, 6, 7};
  spec.sharp.noc.placement_name = "optimized";
  EXPECT_EQ(placement_label(spec, rc), "optimized");

  // Host-side-only placement keeps its own label; mixed axes combine.
  ManagerSpec plain = ManagerSpec::nexussharp(6);
  rc.noc.placement_name = "opt-host";
  EXPECT_EQ(placement_label(plain, rc), "host-opt-host");
  EXPECT_EQ(placement_label(spec, rc), "optimized+host-opt-host");

  // The record serializer emits both optional fields only when non-default.
  const std::string rec = metrics_report_json(
      "b", "w", "m", 8, 1000, 1.0, nullptr, nullptr, "torus", "optimized");
  EXPECT_NE(rec.find("\"topology\":\"torus\""), std::string::npos);
  EXPECT_NE(rec.find("\"placement\":\"optimized\""), std::string::npos);
  const std::string plain_rec =
      metrics_report_json("b", "w", "m", 8, 1000, 1.0, nullptr);
  EXPECT_EQ(plain_rec.find("\"topology\""), std::string::npos);
  EXPECT_EQ(plain_rec.find("\"placement\""), std::string::npos);
}

TEST(Harness, ManagersOrderOnFineGrainedWork) {
  // The paper's qualitative result in one assertion: on fine-grained
  // wavefront work with many cores, ideal >= nexus# >= nexus++ and all
  // managers beat Nanos.
  const Trace tr = workloads::make_h264dec(workloads::h264_config(4));
  const Tick base = ideal_baseline(tr);
  const std::vector<std::uint32_t> cores{32};
  const double ideal =
      sweep(tr, ManagerSpec::ideal(), cores, base).max_speedup();
  const double sharp =
      sweep(tr, ManagerSpec::nexussharp(6), cores, base).max_speedup();
  const double npp =
      sweep(tr, ManagerSpec::nexuspp_default(), cores, base).max_speedup();
  const double nanos =
      sweep(tr, ManagerSpec::nanos_default(), cores, base).max_speedup();
  EXPECT_GE(ideal, sharp);
  EXPECT_GE(sharp, npp);
  EXPECT_GT(sharp, nanos);
}

// ---------------------------------------------------------------------------
// Serving harness: run_serving field reconciliation and knee-search
// bracketing on a small open-loop configuration.
// ---------------------------------------------------------------------------

workloads::ArrivalConfig serving_config() {
  workloads::ArrivalConfig cfg;
  cfg.tasks = 300;
  cfg.clients = 4;
  cfg.kernel = "h264dec-8x8-10f";
  return cfg;
}

TEST(Serving, RunServingFillsAConsistentPoint) {
  const workloads::ArrivalConfig cfg = serving_config();
  const ServingPoint p =
      run_serving(cfg, /*rate_hz=*/20000.0, ManagerSpec::nexussharp(4), 16,
                  {}, nullptr, {{"serving/knee_hz", 12345}});
  EXPECT_EQ(p.tasks, cfg.tasks);
  EXPECT_GT(p.horizon, 0);
  // The run cannot finish before the last arrival.
  EXPECT_GE(p.makespan, p.horizon);
  // Realized offered rate tracks the requested one (same seed, 300 draws).
  EXPECT_NEAR(p.offered_hz, 20000.0, 0.2 * 20000.0);
  EXPECT_GT(p.accepted_hz, 0.0);
  EXPECT_LE(p.accepted_hz, p.offered_hz + 1.0);
  // Quantiles were extracted and are ordered.
  EXPECT_GT(p.p50_ps, 0.0);
  EXPECT_LE(p.p50_ps, p.p95_ps);
  EXPECT_LE(p.p95_ps, p.p99_ps);
  EXPECT_LE(p.p99_ps, p.p999_ps);
  // The context gauges landed in the same snapshot as the measurements.
  ASSERT_NE(p.report.metrics, nullptr);
  EXPECT_EQ(p.report.metrics->gauge_at("serving/rate_hz"), 20000);
  EXPECT_EQ(p.report.metrics->gauge_at("serving/knee_hz"), 12345);
  EXPECT_EQ(p.report.metrics->counter_at("runtime/offered"), cfg.tasks);
  EXPECT_EQ(p.report.metrics->counter_at("runtime/accepted"), cfg.tasks);
}

TEST(Serving, FindKneeBracketsTheSaturationRate) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  search.p99_budget_ps = ms(8.0);
  search.lo_hz = 5000.0;
  search.bisect_iters = 5;
  const KneeResult r =
      find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  ASSERT_TRUE(r.bracketed);
  EXPECT_EQ(r.outcome, KneeOutcome::kBracketed);
  EXPECT_STREQ(to_string(r.outcome), "bracketed");
  ASSERT_GT(r.knee_hz, 0.0);
  EXPECT_GE(r.knee_hz, search.lo_hz);
  EXPECT_GT(r.probes, 2u);
  // The knee point itself meets the budget...
  EXPECT_LE(r.knee.p99_ps, static_cast<double>(search.p99_budget_ps));
  EXPECT_EQ(r.knee.rate_hz, r.knee_hz);
  // ...and a rate well past it violates the budget (saturation is real).
  const ServingPoint beyond =
      run_serving(cfg, 4.0 * r.knee_hz, ManagerSpec::nexussharp(4), 16);
  EXPECT_GT(beyond.p99_ps, static_cast<double>(search.p99_budget_ps));
}

TEST(Serving, KneeSearchIsDeterministic) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  search.p99_budget_ps = ms(8.0);
  search.lo_hz = 5000.0;
  search.bisect_iters = 4;
  const KneeResult a = find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  const KneeResult b = find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  EXPECT_EQ(a.knee_hz, b.knee_hz);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.knee.makespan, b.knee.makespan);
  EXPECT_EQ(a.knee.p99_ps, b.knee.p99_ps);
}

TEST(Serving, UnattainableBudgetReportsUnbracketed) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  // A budget below any task's execution time fails even unloaded.
  search.p99_budget_ps = 1;
  search.lo_hz = 1000.0;
  const KneeResult r =
      find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  EXPECT_FALSE(r.bracketed);
  EXPECT_EQ(r.outcome, KneeOutcome::kUnattainable);
  EXPECT_EQ(r.knee_hz, 0.0);
  EXPECT_EQ(r.probes, 1u);
  // The violating lo_hz point is kept for diagnosis: how far off was the
  // budget at the lightest load probed.
  EXPECT_EQ(r.knee.rate_hz, search.lo_hz);
  EXPECT_GT(r.knee.p99_ps, static_cast<double>(search.p99_budget_ps));
}

TEST(Serving, GenerousBudgetReportsLowerBoundNotKnee) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  // A budget nothing can violate within two doublings: the search must say
  // "lower bound", not claim a bracketed knee.
  search.p99_budget_ps = static_cast<Tick>(ms(8.0)) * 1000000;
  search.lo_hz = 1000.0;
  search.max_doublings = 2;
  const KneeResult r =
      find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  EXPECT_FALSE(r.bracketed);
  EXPECT_EQ(r.outcome, KneeOutcome::kLowerBound);
  EXPECT_STREQ(to_string(r.outcome), "lower-bound");
  // Every probed rate passed; the best one is lo * 2^max_doublings.
  EXPECT_DOUBLE_EQ(r.knee_hz, 4000.0);
  EXPECT_EQ(r.probes, 3u);
}

TEST(Serving, CallerBracketTopStillPassingIsLowerBound) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  search.p99_budget_ps = static_cast<Tick>(ms(8.0)) * 1000000;
  search.lo_hz = 1000.0;
  search.hi_hz = 2000.0;  // caller's bracket top — also passes
  const KneeResult r =
      find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  EXPECT_EQ(r.outcome, KneeOutcome::kLowerBound);
  EXPECT_DOUBLE_EQ(r.knee_hz, 2000.0);
}

}  // namespace
}  // namespace nexus::harness

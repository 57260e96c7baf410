// Validates that the synthetic workload generators reproduce the published
// structure of the paper's benchmarks: Table II (Starbench + sparselu),
// Table III (Gaussian elimination) and the dependency patterns of Section V-A.
#include <gtest/gtest.h>

#include <latch>
#include <set>
#include <thread>
#include <string>
#include <vector>

#include "nexus/depgraph/dependency_tracker.hpp"
#include "nexus/task/trace_stats.hpp"
#include "nexus/workloads/duration_model.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::workloads {
namespace {

std::uint64_t trace_fingerprint(const Trace& tr) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const auto& t : tr.tasks()) {
    mix(static_cast<std::uint64_t>(t.duration));
    for (const auto& p : t.params) mix(p.addr * 3 + static_cast<std::uint64_t>(p.dir));
  }
  for (const auto& e : tr.events()) mix(static_cast<std::uint64_t>(e.op) + e.addr);
  return h;
}

// ---------- duration model ----------

TEST(DurationModel, ScaleHitsExactTotal) {
  Xoshiro256 rng(1);
  const auto w = lognormal_weights(1000, 0.5, rng);
  const auto d = scale_to_total(w, ms(123));
  Tick sum = 0;
  for (const Tick t : d) {
    EXPECT_GT(t, 0);
    sum += t;
  }
  EXPECT_EQ(sum, ms(123));
}

TEST(DurationModel, SingleElement) {
  const auto d = scale_to_total({3.7}, us(42));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], us(42));
}

// ---------- Table II: c-ray ----------

TEST(Cray, TableIIRow) {
  const Trace tr = make_cray();
  const TraceStats s = compute_stats(tr);
  EXPECT_EQ(s.num_tasks, 1200u);
  EXPECT_EQ(s.total_work, ms(7381));
  EXPECT_NEAR(s.avg_task_us(), 6151.0, 1.0);
  EXPECT_EQ(s.min_params, 1u);
  EXPECT_EQ(s.max_params, 1u);
  EXPECT_TRUE(tr.validate());
}

TEST(Cray, AllTasksIndependent) {
  const Trace tr = make_cray();
  DependencyTracker dt;
  for (const auto& t : tr.tasks()) EXPECT_EQ(dt.submit(t), 0u);
}

// ---------- Table II: rot-cc ----------

TEST(Rotcc, TableIIRow) {
  const Trace tr = make_rotcc();
  const TraceStats s = compute_stats(tr);
  EXPECT_EQ(s.num_tasks, 16262u);
  EXPECT_EQ(s.total_work, ms(8150));
  EXPECT_NEAR(s.avg_task_us(), 501.0, 1.0);
  EXPECT_EQ(s.min_params, 1u);
  EXPECT_EQ(s.max_params, 1u);
  EXPECT_TRUE(tr.validate());
}

TEST(Rotcc, PairwiseChains) {
  const Trace tr = make_rotcc();
  DependencyTracker dt;
  // Even tasks (rotate) are independent; odd tasks (colour-convert) depend
  // exactly on their pair's rotate.
  for (const auto& t : tr.tasks()) {
    const std::size_t deps = dt.submit(t);
    EXPECT_EQ(deps, t.id % 2 == 0 ? 0u : 1u) << "task " << t.id;
  }
}

// ---------- Table II: sparselu ----------

TEST(SparseLu, TableIIRowExactCount) {
  const Trace tr = make_sparselu();
  const TraceStats s = compute_stats(tr);
  EXPECT_EQ(s.num_tasks, 54814u);  // exact by construction search
  EXPECT_EQ(s.total_work, ms(38128));
  EXPECT_NEAR(s.avg_task_us(), 696.0, 1.0);
  EXPECT_EQ(s.min_params, 1u);
  EXPECT_EQ(s.max_params, 3u);
  EXPECT_TRUE(tr.validate());
}

TEST(SparseLu, FirstStepStructure) {
  // Task 0 is lu0 of the (0,0) diagonal block and must be the only
  // immediately-ready task at the head of the factorization.
  const Trace tr = make_sparselu();
  DependencyTracker dt;
  EXPECT_EQ(dt.submit(tr.task(0)), 0u);
  EXPECT_EQ(tr.task(0).params.size(), 1u);
  EXPECT_EQ(tr.task(0).params[0].dir, Dir::kInOut);
  // The first fwd/bdiv wave reads the diagonal block lu0 wrote.
  const std::size_t deps1 = dt.submit(tr.task(1));
  EXPECT_EQ(deps1, 1u);
}

TEST(SparseLu, StructuralMaskMatchesKnownCounts) {
  // Regression anchor for the canonical structural-sparsity pattern.
  EXPECT_EQ(sparselu_task_count(50, sparselu_structural_mask(50)), 11725u);
  EXPECT_EQ(sparselu_task_count(84, sparselu_structural_mask(84)), 53018u);
}

TEST(SparseLu, ConcurrentGenerationMatchesSerial) {
  // Two threads generate the same not-yet-memoized configuration at once:
  // both miss the mask memo and insert into it. Under ThreadSanitizer an
  // unguarded memo reports the race; here both traces must also equal a
  // serial generation.
  SparseLuConfig cfg;
  cfg.nb = 30;
  cfg.target_tasks = sparselu_task_count(30, sparselu_structural_mask(30)) + 40;
  std::vector<Trace> out(2);
  std::latch start(2);
  {
    std::jthread a([&] {
      start.arrive_and_wait();
      out[0] = make_sparselu(cfg);
    });
    std::jthread b([&] {
      start.arrive_and_wait();
      out[1] = make_sparselu(cfg);
    });
  }
  const Trace serial = make_sparselu(cfg);
  EXPECT_EQ(out[0].num_tasks(), serial.num_tasks());
  EXPECT_EQ(trace_fingerprint(out[0]), trace_fingerprint(serial));
  EXPECT_EQ(trace_fingerprint(out[1]), trace_fingerprint(serial));
}

// ---------- Table II: streamcluster ----------

TEST(Streamcluster, TableIIRow) {
  const Trace tr = make_streamcluster();
  const TraceStats s = compute_stats(tr);
  EXPECT_EQ(s.num_tasks, 652776u);
  EXPECT_EQ(s.total_work, ms(237908));
  EXPECT_NEAR(s.avg_task_us(), 364.0, 1.0);
  EXPECT_EQ(s.min_params, 1u);
  EXPECT_EQ(s.max_params, 3u);
  EXPECT_EQ(s.num_taskwaits, 1632u);  // one per fork-join phase
  EXPECT_TRUE(tr.validate());
}

TEST(Streamcluster, ForkJoinPhaseStructure) {
  StreamclusterConfig cfg;
  cfg.total_tasks = 2000;
  cfg.phases = 5;
  cfg.total_work = ms(10);
  const Trace tr = make_streamcluster(cfg);
  // Phases of ~400: between consecutive taskwaits there must be one
  // recenter task followed by worker tasks only.
  std::size_t phase_tasks = 0;
  std::size_t phases_seen = 0;
  bool expect_recenter = true;
  for (const auto& ev : tr.events()) {
    if (ev.op == TraceOp::kSubmit) {
      const auto& t = tr.task(ev.task);
      if (expect_recenter) {
        EXPECT_EQ(t.params.size(), 1u);  // recenter writes only centers
        EXPECT_EQ(t.params[0].dir, Dir::kOut);
        expect_recenter = false;
      }
      ++phase_tasks;
    } else if (ev.op == TraceOp::kTaskwait) {
      EXPECT_GE(phase_tasks, 2u);
      phase_tasks = 0;
      expect_recenter = true;
      ++phases_seen;
    }
  }
  EXPECT_EQ(phases_seen, 5u);
}

// ---------- Table II: h264dec (all four granularities) ----------

// No padding bytes: gtest prints the parameter's raw bytes into the test
// name, so padding would leak stack garbage into the name and make it differ
// from one build (or test listing) to the next.
struct H264Row {
  std::int64_t group;
  std::uint64_t tasks;
  double total_ms;
  double avg_us;
};

class H264TableII : public ::testing::TestWithParam<H264Row> {};

TEST_P(H264TableII, MatchesTableII) {
  const auto row = GetParam();
  const Trace tr = make_h264dec(h264_config(static_cast<int>(row.group)));
  const TraceStats s = compute_stats(tr);
  EXPECT_EQ(s.num_tasks, row.tasks);  // exact by construction
  EXPECT_NEAR(s.total_work_ms(), row.total_ms, 0.001);
  EXPECT_NEAR(s.avg_task_us(), row.avg_us, 0.5);
  EXPECT_EQ(s.min_params, 2u);
  EXPECT_EQ(s.max_params, 6u);
  // Buffer-recycle synchronization: one taskwait_on per frame after the
  // first two (the pragma Nexus++ cannot accelerate).
  EXPECT_EQ(s.num_taskwait_ons, 8u);
  EXPECT_TRUE(tr.validate());
}

INSTANTIATE_TEST_SUITE_P(Granularities, H264TableII,
                         ::testing::Values(H264Row{1, 139961, 640.0, 4.6},
                                           H264Row{2, 35921, 550.0, 15.3},
                                           H264Row{4, 9333, 519.0, 55.6},
                                           H264Row{8, 2686, 510.0, 189.9}),
                         [](const ::testing::TestParamInfo<H264Row>& pi) {
                           return std::to_string(pi.param.group) + "x" +
                                  std::to_string(pi.param.group);
                         });

TEST(H264, WavefrontGatedByEntropy) {
  // The frame's top-left decode reads the slice header written by the
  // entropy task; everything else chains off it through the wavefront.
  const Trace tr = make_h264dec(h264_config(8));
  DependencyTracker dt;
  std::size_t immediately_ready = 0;
  for (const auto& t : tr.tasks()) {
    if (dt.submit(t) == 0) ++immediately_ready;
    if (t.id > 200) break;  // first frame is enough
  }
  // Only the first entropy task may be immediately ready.
  EXPECT_EQ(immediately_ready, 1u);
}

TEST(H264, EntropyChainIsSerial) {
  const H264Config cfg = h264_config(8);
  const Trace tr = make_h264dec(cfg);
  // Entropy tasks are the only fn==1 tasks; each inouts the CABAC state, so
  // consecutive ones conflict.
  std::vector<TaskId> entropy;
  for (const auto& t : tr.tasks())
    if (t.fn == 1) entropy.push_back(t.id);
  ASSERT_EQ(entropy.size(), 10u);
  const Addr state = tr.task(entropy[0]).params[0].addr;
  for (const TaskId id : entropy) EXPECT_EQ(tr.task(id).params[0].addr, state);
}

// ---------- Table III: gaussian ----------

TEST(Gaussian, AnalyticFormulasMatchTableIII) {
  EXPECT_EQ(gaussian_task_count(250), 31374u);
  EXPECT_EQ(gaussian_task_count(500), 125249u);
  EXPECT_EQ(gaussian_task_count(1000), 500499u);
  EXPECT_EQ(gaussian_task_count(3000), 4501499u);
  // Average FLOPs per task (Table III: 167 / 334 / 667 / 2012).
  EXPECT_NEAR(static_cast<double>(gaussian_total_flops(250)) / 31374.0, 167.0, 0.5);
  EXPECT_NEAR(static_cast<double>(gaussian_total_flops(500)) / 125249.0, 334.0, 0.5);
  EXPECT_NEAR(static_cast<double>(gaussian_total_flops(1000)) / 500499.0, 667.0, 0.5);
  // n=3000: the paper reports 2012; the closed form gives 2000.3 (0.6% off),
  // see EXPERIMENTS.md.
  EXPECT_NEAR(static_cast<double>(gaussian_total_flops(3000)) / 4501499.0, 2000.3, 0.5);
}

TEST(Gaussian, TraceMatchesAnalyticCounts) {
  const Trace tr = make_gaussian({.n = 250});
  EXPECT_EQ(tr.num_tasks(), 31374u);
  const TraceStats s = compute_stats(tr);
  EXPECT_NEAR(s.avg_task_us(), 0.084, 0.001);  // Table III: 0.084 us
  EXPECT_EQ(s.max_params, 2u);
  EXPECT_TRUE(tr.validate());
}

TEST(Gaussian, FanoutMatchesPaperDescription) {
  // "Running the application on a 250x250 matrix starts by having one ready
  // task (T1), and 249 dependent tasks" (Section VI).
  const Trace tr = make_gaussian({.n = 250});
  DependencyTracker dt;
  std::size_t ready = 0;
  std::size_t blocked = 0;
  for (TaskId id = 0; id < 250; ++id) {  // pivot + 249 eliminations
    if (dt.submit(tr.task(id)) == 0)
      ++ready;
    else
      ++blocked;
  }
  EXPECT_EQ(ready, 1u);
  EXPECT_EQ(blocked, 249u);
}

TEST(Gaussian, StepDurationsShrink) {
  const Trace tr = make_gaussian({.n = 100});
  // First task (step 1) costs (n-i+1)=100 flops; last task (step 99) costs 2.
  const auto last = static_cast<TaskId>(tr.num_tasks() - 1);
  EXPECT_GT(tr.task(0).duration, tr.task(last).duration);
}

// ---------- registry / determinism ----------

TEST(Registry, NamesRoundTrip) {
  for (const auto& name : workload_names()) {
    EXPECT_TRUE(is_workload(name));
  }
  EXPECT_FALSE(is_workload("nonexistent"));
}

TEST(Registry, GeneratorsAreDeterministic) {
  // Same config -> bit-identical trace. Checked on the two cheapest
  // generators plus one seeded one; all generators share the same RNG
  // plumbing.
  EXPECT_EQ(trace_fingerprint(make_cray()), trace_fingerprint(make_cray()));
  EXPECT_EQ(trace_fingerprint(make_gaussian({.n = 100})),
            trace_fingerprint(make_gaussian({.n = 100})));
  EXPECT_EQ(trace_fingerprint(make_h264dec(h264_config(8))),
            trace_fingerprint(make_h264dec(h264_config(8))));
}

TEST(Registry, SeedChangesDurationsNotStructure) {
  CrayConfig a;
  CrayConfig b;
  b.seed = 0xDEADBEEF;
  const Trace ta = make_cray(a);
  const Trace tb = make_cray(b);
  EXPECT_NE(trace_fingerprint(ta), trace_fingerprint(tb));
  ASSERT_EQ(ta.num_tasks(), tb.num_tasks());
  EXPECT_EQ(ta.total_work(), tb.total_work());  // total still pinned
  for (TaskId i = 0; i < ta.num_tasks(); ++i)
    EXPECT_TRUE(ta.task(i).params == tb.task(i).params);
}

}  // namespace
}  // namespace nexus::workloads

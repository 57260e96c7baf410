// Statistical and replay tests for the open-loop arrival generators:
// empirical mean rate within tolerance of the configured λ for every
// process kind, interarrival CV ≈ 1 for Poisson and materially > 1 for the
// bursty MMPP, diurnal arrivals concentrating in the rate curve's peak
// half, exact generator→JSON→reload replay equality (schedule, trace, and
// open-loop run), and release gating of the open-loop run. Tolerances are
// sized for the fixed seeds below — the
// generators are deterministic, so these are exact regression checks, not
// flaky statistical gates.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

using workloads::ArrivalConfig;
using workloads::ArrivalProcess;
using workloads::ArrivalSchedule;

/// Interarrival gaps (including the origin->first gap, which the same
/// renewal process produced).
std::vector<double> gaps_of(const ArrivalSchedule& s) {
  std::vector<double> gaps;
  Tick prev = 0;
  for (const Tick t : s.submission.release) {
    gaps.push_back(static_cast<double>(t - prev));
    prev = t;
  }
  return gaps;
}

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Coefficient of variation: stddev / mean.
double cv_of(const std::vector<double>& xs) {
  const double m = mean_of(xs);
  double var = 0.0;
  for (const double x : xs) var += (x - m) * (x - m);
  var /= static_cast<double>(xs.size());
  return std::sqrt(var) / m;
}

ArrivalConfig stats_config(ArrivalProcess p) {
  ArrivalConfig cfg;
  cfg.process = p;
  cfg.rate_hz = 2e6;
  cfg.tasks = 20000;
  // Shrink the burst cycle so 20k arrivals span ~250 modulation cycles —
  // enough for the empirical mean to converge on the configured rate.
  cfg.burst_cycle_ps = us(40);
  return cfg;
}

TEST(ArrivalStats, PoissonMeanRateAndUnitCV) {
  const ArrivalSchedule s =
      workloads::generate_arrivals(stats_config(ArrivalProcess::kPoisson));
  const std::vector<double> gaps = gaps_of(s);
  const double mean_ps = mean_of(gaps);
  const double expect_ps = 1e12 / 2e6;
  EXPECT_NEAR(mean_ps, expect_ps, 0.03 * expect_ps);
  // Exponential interarrivals: CV = 1.
  EXPECT_GT(cv_of(gaps), 0.95);
  EXPECT_LT(cv_of(gaps), 1.05);
  // Sorted, starting at or after t=0.
  for (const double g : gaps) EXPECT_GE(g, 0.0);
}

TEST(ArrivalStats, BurstyKeepsMeanRateButOverdisperses) {
  const ArrivalSchedule s =
      workloads::generate_arrivals(stats_config(ArrivalProcess::kBursty));
  const std::vector<double> gaps = gaps_of(s);
  const double mean_ps = mean_of(gaps);
  const double expect_ps = 1e12 / 2e6;
  // The long-run rate matches λ (the on-rate is λ/on_fraction exactly so
  // the duty cycle cancels), but burst-count noise converges slower than
  // Poisson — hence the wider band.
  EXPECT_NEAR(mean_ps, expect_ps, 0.15 * expect_ps);
  // On-off modulation overdisperses: most gaps are 5x shorter than the
  // Poisson mean, a few carry whole off-periods. CV must clear 1 by a
  // margin no homogeneous process would.
  EXPECT_GT(cv_of(gaps), 1.3);
}

TEST(ArrivalStats, DiurnalArrivalsFollowTheRateCurve) {
  const ArrivalConfig cfg = stats_config(ArrivalProcess::kDiurnal);
  const ArrivalSchedule s = workloads::generate_arrivals(cfg);
  EXPECT_NEAR(mean_of(gaps_of(s)), 1e12 / 2e6, 0.05 * (1e12 / 2e6));
  // Fold arrivals by the curve period: the sin>0 half must hold the bulk.
  // With depth 0.8 the halves integrate to (1 ± 2*0.8/π) x the mean rate,
  // a ~3:1 ratio; require at least 2:1 so the check has slack.
  const auto period = static_cast<double>(cfg.period_ps);
  std::uint64_t peak = 0;
  std::uint64_t trough = 0;
  for (const Tick t : s.submission.release) {
    const double phase = std::fmod(static_cast<double>(t), period) / period;
    (phase < 0.5 ? peak : trough) += 1;
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(ArrivalStats, ClientMarksCoverAllClients) {
  ArrivalConfig cfg;
  cfg.tasks = 2000;
  cfg.clients = 16;
  const ArrivalSchedule s = workloads::generate_arrivals(cfg);
  std::set<std::uint32_t> seen;
  for (const std::uint32_t c : s.submission.client) {
    EXPECT_LT(c, cfg.clients);
    seen.insert(c);
  }
  EXPECT_EQ(seen.size(), cfg.clients);
}

TEST(ArrivalStats, GeneratorIsAPureFunctionOfItsConfig) {
  const ArrivalConfig cfg = stats_config(ArrivalProcess::kBursty);
  EXPECT_EQ(workloads::generate_arrivals(cfg),
            workloads::generate_arrivals(cfg));
  ArrivalConfig other = cfg;
  other.seed ^= 1;
  EXPECT_FALSE(workloads::generate_arrivals(other) ==
               workloads::generate_arrivals(cfg));
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const TaskDescriptor& x = a.task(static_cast<TaskId>(i));
    const TaskDescriptor& y = b.task(static_cast<TaskId>(i));
    EXPECT_EQ(x.fn, y.fn) << "task " << i;
    EXPECT_EQ(x.duration, y.duration) << "task " << i;
    ASSERT_EQ(x.num_params(), y.num_params()) << "task " << i;
    for (std::size_t p = 0; p < x.num_params(); ++p)
      EXPECT_TRUE(x.params[p] == y.params[p]) << "task " << i << " param " << p;
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].op, b.events()[i].op) << "event " << i;
    EXPECT_EQ(a.events()[i].task, b.events()[i].task) << "event " << i;
  }
}

TEST(ArrivalReplay, JsonRoundTripIsExact) {
  for (const ArrivalProcess p :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kDiurnal}) {
    ArrivalConfig cfg;
    cfg.process = p;
    cfg.tasks = 500;
    cfg.clients = 8;
    const ArrivalSchedule s = workloads::generate_arrivals(cfg);
    const std::string doc = workloads::arrivals_json(s);
    ArrivalSchedule reloaded;
    std::string err;
    ASSERT_TRUE(workloads::parse_arrivals(doc, &reloaded, &err)) << err;
    // Bit-exact replay: config, release times and client marks all survive.
    EXPECT_TRUE(s == reloaded) << workloads::to_string(p);
    // And the schedule alone rebuilds the identical serving trace.
    expect_traces_equal(workloads::make_serving_trace(s),
                        workloads::make_serving_trace(reloaded));
    // Serializing the reload reproduces the document byte for byte.
    EXPECT_EQ(doc, workloads::arrivals_json(reloaded));
  }
}

TEST(ArrivalReplay, ServingTraceValidatesAndChains) {
  ArrivalConfig cfg;
  cfg.tasks = 400;
  cfg.clients = 4;
  cfg.chain_fraction = 0.5;
  const ArrivalSchedule s = workloads::generate_arrivals(cfg);
  const Trace tr = workloads::make_serving_trace(s);
  ASSERT_EQ(tr.num_tasks(), cfg.tasks);
  std::string err;
  EXPECT_TRUE(tr.validate(&err)) << err;
  // Task id i is arrival i (the open-loop driver indexes release[] by id).
  ASSERT_EQ(tr.events().size(), cfg.tasks);
  for (std::size_t i = 0; i < tr.events().size(); ++i) {
    EXPECT_EQ(tr.events()[i].op, TraceOp::kSubmit);
    EXPECT_EQ(tr.events()[i].task, static_cast<TaskId>(i));
  }
  // With chain_fraction 0.5 a healthy share of tasks depends on its
  // client's predecessor (an input param pointing at an earlier output).
  std::size_t chained = 0;
  for (std::size_t i = 0; i < tr.num_tasks(); ++i) {
    const TaskDescriptor& t = tr.task(static_cast<TaskId>(i));
    bool has_in = false;
    for (const Param& p : t.params) has_in |= p.dir == Dir::kIn;
    chained += has_in ? 1 : 0;
  }
  EXPECT_GT(chained, cfg.tasks / 4);
}

TEST(ArrivalReplay, ParseRejectsMalformedDocuments) {
  ArrivalConfig cfg;
  cfg.tasks = 10;
  const std::string good = workloads::arrivals_json(
      workloads::generate_arrivals(cfg));
  ArrivalSchedule out;
  std::string err;
  EXPECT_FALSE(workloads::parse_arrivals("{\"kind\":\"other\"}", &out, &err));
  EXPECT_FALSE(workloads::parse_arrivals("not json", &out, &err));
  // Unknown process name.
  std::string doc = good;
  const auto at = doc.find("\"poisson\"");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, 9, "\"weekly\"");
  EXPECT_FALSE(workloads::parse_arrivals(doc, &out, &err));
  // Client mark out of range.
  doc = good;
  const auto cl = doc.find("\"clients\":16");
  ASSERT_NE(cl, std::string::npos);
  doc.replace(cl, 12, "\"clients\":1");
  EXPECT_FALSE(workloads::parse_arrivals(doc, &out, &err)) << err;
}

/// Open-loop run fingerprint: makespan plus the full executed schedule.
struct RunFingerprint {
  Tick makespan = 0;
  std::vector<ScheduleEntry> schedule;
};

RunFingerprint run_open_loop(const ArrivalSchedule& s) {
  const Trace tr = workloads::make_serving_trace(s);
  IdealManager mgr;
  RunFingerprint fp;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.open_loop = &s.submission;
  rc.schedule_out = &fp.schedule;
  fp.makespan = run_trace(tr, mgr, rc).makespan;
  return fp;
}

TEST(ArrivalReplay, OpenLoopRunNeverStartsBeforeRelease) {
  ArrivalConfig cfg;
  cfg.tasks = 300;
  cfg.clients = 4;
  cfg.process = ArrivalProcess::kBursty;
  const ArrivalSchedule s = workloads::generate_arrivals(cfg);
  const RunFingerprint fp = run_open_loop(s);

  // The open loop really paced the run: no task started before its release.
  ASSERT_EQ(fp.schedule.size(), cfg.tasks);
  std::vector<Tick> start_of(cfg.tasks, -1);
  for (const ScheduleEntry& e : fp.schedule) start_of[e.task] = e.start;
  for (std::size_t i = 0; i < cfg.tasks; ++i)
    EXPECT_GE(start_of[i], s.submission.release[i]) << "task " << i;
}

}  // namespace
}  // namespace nexus

// Telemetry subsystem tests: counter/gauge/histogram semantics (pow2 bucket
// edges including 0 and uint64 max), registry path rules and collisions,
// JSON/CSV golden output, snapshot determinism across identical runs, and
// the per-core busy/idle ledger the runtime writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "nexus/harness/experiment.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/sim/latency_fifo.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/writers.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricRegistry;
using telemetry::Snapshot;

// ---------- primitives ----------

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(-7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(Histogram, Pow2BucketEdges) {
  // Bucket 0 is exact zeros; bucket i covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of((std::uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64u);
  static_assert(Histogram::kBuckets == 65);

  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(2), 2u);
  EXPECT_EQ(Histogram::bucket_floor(3), 4u);
  EXPECT_EQ(Histogram::bucket_floor(64), std::uint64_t{1} << 63);
}

TEST(Histogram, RecordsCountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(0);
  h.record(3);
  h.record(9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(2), 1u);  // 3 in [2,4)
  EXPECT_EQ(h.bucket(4), 1u);  // 9 in [8,16)
}

TEST(Histogram, FullRangeIncludingMax) {
  Histogram h;
  h.record(UINT64_MAX);
  h.record(0);
  EXPECT_EQ(h.bucket(64), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(Histogram, QuantilesEmptyHistogramIsZero) {
  const Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p95(), 0.0);
  EXPECT_DOUBLE_EQ(h.p999(), 0.0);
}

TEST(Histogram, QuantilesSingleValueReportExactly) {
  // All mass in one bucket: min/max clipping collapses the interpolation
  // range to the recorded value, whatever q asks for.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(100);
  EXPECT_DOUBLE_EQ(h.p50(), 100.0);
  EXPECT_DOUBLE_EQ(h.p95(), 100.0);
  EXPECT_DOUBLE_EQ(h.p99(), 100.0);
  EXPECT_DOUBLE_EQ(h.p999(), 100.0);
}

TEST(Histogram, QuantilesAllZerosStayZero) {
  // Bucket 0 holds exact zeros; no interpolation may invent mass above it.
  Histogram h;
  for (int i = 0; i < 5; ++i) h.record(0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p999(), 0.0);
}

TEST(Histogram, QuantilesInterpolateWithinBucketAndOrder) {
  Histogram h;
  // 100 samples spread over [16, 32) — one bucket; quantiles interpolate
  // linearly between the clipped edges and stay monotone in q.
  for (std::uint64_t v = 16; v < 32; ++v)
    for (int i = 0; i < 100 / 16 + 1; ++i) h.record(v);
  const double p50 = h.p50();
  const double p95 = h.p95();
  const double p99 = h.p99();
  EXPECT_GE(p50, 16.0);
  EXPECT_LE(p99, 31.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.p999());
}

TEST(Histogram, QuantilesMaxBucketClipsToRecordedMax) {
  // Samples in the open-topped final bucket [2^63, 2^64): the bucket's
  // nominal upper edge exceeds any representable sample, so the recorded
  // max must cap the interpolation.
  Histogram h;
  h.record(std::uint64_t{1} << 63);
  h.record(UINT64_MAX);
  EXPECT_GE(h.p50(), static_cast<double>(std::uint64_t{1} << 63));
  EXPECT_LE(h.p999(), static_cast<double>(UINT64_MAX));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), static_cast<double>(UINT64_MAX));
}

TEST(Histogram, QuantilesTwoBucketSplit) {
  // 3 zeros + 1 large value: p50 must sit in the zero bucket, p95
  // interpolates inside the top bucket's clipped range [512, 1000].
  Histogram h;
  h.record(0);
  h.record(0);
  h.record(0);
  h.record(1000);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_GT(h.p95(), 512.0);
  EXPECT_LE(h.p95(), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

// ---------- registry ----------

TEST(MetricRegistryTest, SamePathSameKindReturnsSameObject) {
  MetricRegistry reg;
  Counter& a = reg.counter("hw/pool/inserts");
  Counter& b = reg.counter("hw/pool/inserts");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, AddressesStayStableAsRegistryGrows) {
  MetricRegistry reg;
  Counter& first = reg.counter("m0");
  for (int i = 1; i < 200; ++i)
    reg.counter(std::string("m").append(std::to_string(i))).inc();
  first.inc(7);
  EXPECT_EQ(reg.counter("m0").value(), 7u);
  EXPECT_EQ(reg.size(), 200u);
}

TEST(MetricRegistryDeathTest, PathCollisionAcrossKindsAborts) {
  MetricRegistry reg;
  reg.counter("x/y");
  EXPECT_DEATH(reg.gauge("x/y"), "different kind");
  EXPECT_DEATH(reg.histogram("x/y"), "different kind");
}

TEST(MetricRegistryDeathTest, RejectsMalformedPaths) {
  MetricRegistry reg;
  EXPECT_DEATH(reg.counter(""), "non-empty");
  EXPECT_DEATH(reg.counter("/x"), "start or end");
  EXPECT_DEATH(reg.counter("x/"), "start or end");
}

TEST(MetricRegistryTest, PathJoin) {
  EXPECT_EQ(telemetry::path_join("a", "b"), "a/b");
  EXPECT_EQ(telemetry::path_join("", "b"), "b");
  EXPECT_EQ(telemetry::path_join("a", ""), "a");
}

TEST(MetricRegistryTest, SnapshotIsSortedAndSelfContained) {
  MetricRegistry reg;
  reg.counter("z").inc(1);
  reg.gauge("a").set(-3);
  reg.histogram("m").record(5);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.values.size(), 3u);
  EXPECT_EQ(snap.values[0].path, "a");
  EXPECT_EQ(snap.values[1].path, "m");
  EXPECT_EQ(snap.values[2].path, "z");
  EXPECT_EQ(snap.counter_at("z"), 1u);
  EXPECT_EQ(snap.gauge_at("a"), -3);
  ASSERT_NE(snap.find("m"), nullptr);
  EXPECT_EQ(snap.find("m")->hist.sum, 5u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

// ---------- writers ----------

TEST(JsonWriterTest, BuildsNestedDocumentsWithEscaping) {
  telemetry::JsonWriter w;
  w.begin_object()
      .key("a\"b")
      .value("x\ny")
      .key("arr")
      .begin_array()
      .value(1)
      .value(true)
      .value(2.5)
      .end_array()
      .kv("n", std::int64_t{-4})
      .end_object();
  EXPECT_EQ(w.str(), "{\"a\\\"b\":\"x\\ny\",\"arr\":[1,true,2.5],\"n\":-4}");
}

TEST(CsvWriterTest, EscapesCellsWithSeparators) {
  telemetry::CsvWriter w({"a", "b"});
  w.row({"plain", "has,comma"});
  w.row({"has\"quote", "x"});
  EXPECT_EQ(w.str(), "a,b\nplain,\"has,comma\"\n\"has\"\"quote\",x\n");
}

TEST(SnapshotExport, JsonGolden) {
  MetricRegistry reg;
  reg.counter("a/count").inc(3);
  reg.gauge("a/gauge").set(-7);
  Histogram& h = reg.histogram("b/hist");
  h.record(0);
  h.record(1);
  h.record(5);
  EXPECT_EQ(telemetry::snapshot_json(reg.snapshot()),
            "{\"a/count\":3,\"a/gauge\":-7,\"b/hist\":{\"count\":3,\"sum\":6,"
            "\"min\":0,\"max\":5,\"mean\":2,\"p50\":1.5,\"p95\":4.85,"
            "\"p99\":4.97,\"p999\":4.997,\"buckets\":{\"0\":1,\"1\":1,"
            "\"4\":1}}}");
}

TEST(SnapshotExport, CsvGolden) {
  MetricRegistry reg;
  reg.counter("a/count").inc(3);
  reg.gauge("a/gauge").set(-7);
  Histogram& h = reg.histogram("b/hist");
  h.record(0);
  h.record(1);
  h.record(5);
  EXPECT_EQ(telemetry::snapshot_csv(reg.snapshot()),
            "path,kind,value,count,sum,min,max,mean\n"
            "a/count,counter,3,,,,,\n"
            "a/gauge,gauge,-7,,,,,\n"
            "b/hist,histogram,,3,6,0,5,2\n");
}

TEST(SnapshotExport, TreeRendersHierarchy) {
  MetricRegistry reg;
  reg.counter("top/left/c").inc(1);
  reg.counter("top/right").inc(2);
  const std::string tree = telemetry::format_tree(reg.snapshot());
  EXPECT_NE(tree.find("top\n"), std::string::npos);
  EXPECT_NE(tree.find("  left\n"), std::string::npos);
  EXPECT_NE(tree.find("    c"), std::string::npos);
  EXPECT_NE(tree.find("  right"), std::string::npos);
}

TEST(MetricsReportJson, MatchesBenchSchema) {
  MetricRegistry reg;
  reg.counter("m").inc(9);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(harness::metrics_report_json("table2", "c-ray", "nexus#", 32,
                                         1234, 1.5, &snap),
            "{\"schema\":4,\"bench\":\"table2\",\"workload\":\"c-ray\","
            "\"manager\":\"nexus#\",\"cores\":32,\"makespan\":1234,"
            "\"speedup\":1.5,\"metrics\":{\"m\":9}}");
  EXPECT_EQ(harness::metrics_report_json("b", "w", "m", 1, 0, 0.0, nullptr),
            "{\"schema\":4,\"bench\":\"b\",\"workload\":\"w\",\"manager\":"
            "\"m\",\"cores\":1,\"makespan\":0,\"speedup\":0,\"metrics\":{}}");
}

TEST(MetricsReportJson, AppendsTimelineWhenGiven) {
  telemetry::Timeline tl;
  tl.interval = 10;
  tl.t = {0, 10, 20};
  tl.series.push_back({"m", telemetry::MetricKind::kCounter, {0, 4, 9}});
  const std::string doc =
      harness::metrics_report_json("b", "w", "m", 1, 20, 1.0, nullptr, &tl);
  EXPECT_NE(doc.find("\"timeline\":{\"interval_ps\":10,\"points\":3,"
                     "\"encoding\":\"delta\",\"t\":[0,10,10],\"series\":"
                     "{\"m\":{\"kind\":\"counter\",\"v\":[0,4,5]}}}"),
            std::string::npos)
      << doc;
}

// ---------- sim-layer hooks ----------

TEST(LatencyFifoTelemetry, RecordsDepthOnPushAndPop) {
  Histogram depth;
  LatencyFifo<int> f(4, ns(30));
  f.bind_depth_telemetry(&depth);
  f.push(0, 1);
  f.push(0, 2);
  (void)f.pop();
  f.push(ns(100), 3);
  // Depths seen: push->1, push->2, pop->1, push->2. Recording the drain
  // side too is what lets the histogram show a queue emptying, not only
  // filling.
  EXPECT_EQ(depth.count(), 4u);
  EXPECT_EQ(depth.max(), 2u);
  EXPECT_EQ(depth.sum(), 6u);
  (void)f.pop();
  (void)f.pop();
  EXPECT_EQ(depth.count(), 6u);
  EXPECT_EQ(depth.sum(), 7u);  // drain records depths 1 then 0
}

// ---------- whole-stack integration ----------

Trace small_gaussian() { return workloads::make_gaussian({.n = 60}); }

TEST(TelemetryIntegration, SnapshotDeterministicAcrossIdenticalRuns) {
  const Trace tr = small_gaussian();
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    MetricRegistry reg;
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 4;
    cfg.freq_mhz = 100.0;
    NexusSharp mgr(cfg);
    RuntimeConfig rc;
    rc.workers = 8;
    rc.metrics = &reg;
    (void)run_trace(tr, mgr, rc);
    json[i] = telemetry::snapshot_json(reg.snapshot());
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_GT(json[0].size(), 100u);
}

TEST(TelemetryIntegration, RuntimeLedgerReconciles) {
  // Acceptance contract: sum over cores of (busy + idle) == cores * makespan,
  // and the DES event counter agrees with the kernel's own count.
  const Trace tr = small_gaussian();
  MetricRegistry reg;
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  NexusSharp mgr(cfg);
  RuntimeConfig rc;
  rc.workers = 8;
  rc.metrics = &reg;
  const RunResult r = run_trace(tr, mgr, rc);
  const Snapshot snap = reg.snapshot();

  EXPECT_EQ(snap.gauge_at("runtime/makespan_ps"), r.makespan);
  EXPECT_EQ(snap.gauge_at("runtime/cores"), 8);
  std::int64_t busy_plus_idle = 0;
  for (int w = 0; w < 8; ++w) {
    const std::string core = "runtime/core" + std::to_string(w);
    const std::int64_t busy = snap.gauge_at(core + "/busy_ps");
    const std::int64_t idle = snap.gauge_at(core + "/idle_ps");
    EXPECT_EQ(busy + idle, r.makespan) << "core " << w;
    busy_plus_idle += busy + idle;
  }
  EXPECT_EQ(busy_plus_idle, 8 * r.makespan);
  EXPECT_EQ(snap.counter_at("sim/events"), r.events);
  EXPECT_EQ(snap.counter_at("nexus#/tasks_in"), r.tasks);
  EXPECT_EQ(snap.counter_at("nexus#/finishes"), r.tasks);
}

TEST(TelemetryIntegration, RoutingBalanceCoversEveryGraph) {
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  MetricRegistry reg;
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 6;
  cfg.freq_mhz = 100.0;
  NexusSharp mgr(cfg);
  RuntimeConfig rc;
  rc.workers = 8;
  rc.metrics = &reg;
  (void)run_trace(tr, mgr, rc);
  const Snapshot snap = reg.snapshot();
  std::uint64_t routed = 0;
  for (int g = 0; g < 6; ++g) {
    const std::uint64_t n =
        snap.counter_at("nexus#/tg" + std::to_string(g) + "/routed");
    EXPECT_GT(n, 0u) << "graph " << g << " never routed to";
    routed += n;
  }
  // Every parameter is routed once on submission and once on finish.
  std::uint64_t total_params = 0;
  for (const auto& t : tr.tasks()) total_params += t.num_params();
  EXPECT_EQ(routed, 2 * total_params);
}

TEST(TelemetryIntegration, SweepAttachesSnapshotsOnRequest) {
  const Trace tr = small_gaussian();
  const auto spec = harness::ManagerSpec::nexussharp(2, 100.0);
  const Tick baseline = harness::ideal_baseline(tr);
  const harness::Series plain =
      harness::sweep(tr, spec, {1, 4}, baseline);
  for (const auto& p : plain.points) EXPECT_EQ(p.metrics, nullptr);
  const harness::Series metered =
      harness::sweep(tr, spec, {1, 4}, baseline, {}, /*collect_metrics=*/true);
  ASSERT_EQ(metered.points.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(metered.points[i].makespan, plain.points[i].makespan)
        << "telemetry must not change simulated time";
    ASSERT_NE(metered.points[i].metrics, nullptr);
    EXPECT_GT(metered.points[i].metrics->counter_at("nexus#/tasks_in"), 0u);
  }
}

}  // namespace
}  // namespace nexus

// Experiment harness: core-count sweeps of a trace against a task manager,
// speedup series, and paper-style table output — the machinery every
// bench/figure binary shares.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/nanos_model.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/task/trace.hpp"
#include "nexus/telemetry/snapshot.hpp"
#include "nexus/telemetry/timeline.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::harness {

/// The paper's core-count axes.
std::vector<std::uint32_t> paper_cores_256();  ///< 1,2,4,...,256 (Figs. 7/8)
std::vector<std::uint32_t> paper_cores_64();   ///< 1,2,4,...,64 (Fig. 9)
std::vector<std::uint32_t> nanos_cores_32();   ///< 1,...,32 (the test machine)

/// Which dependency-resolution back-end a sweep uses.
struct ManagerSpec {
  enum class Kind { kIdeal, kNanos, kNexusPP, kNexusSharp } kind = Kind::kIdeal;
  std::string label = "ideal";
  NanosConfig nanos{};
  NexusPPConfig npp{};
  NexusSharpConfig sharp{};
  ArbiterPolicy arbiter_policy = ArbiterPolicy::kReadyFirst;

  static ManagerSpec ideal();
  static ManagerSpec nanos_default();
  static ManagerSpec nexuspp_default();
  /// Nexus# at a TG count, clocked per Table I's test frequency (or at
  /// `mhz_override` > 0, e.g. the Fig. 7(a) fixed-100MHz runs).
  static ManagerSpec nexussharp(std::uint32_t tgs, double mhz_override = 0.0);
};

struct SweepPoint {
  std::uint32_t cores = 0;
  Tick makespan = 0;
  double speedup = 0.0;  ///< vs the ideal single-core baseline
  /// Interconnect topology the run used ("ideal" unless a NoC was swept).
  std::string topology = "ideal";
  /// Tile placement the run used ("default" unless one was installed).
  std::string placement = "default";
  /// Telemetry snapshot of this point's run; null unless the sweep was
  /// asked to collect metrics.
  std::shared_ptr<const telemetry::Snapshot> metrics;
  /// Sampled sim-time timeline; null unless a TimelineConfig was given.
  std::shared_ptr<const telemetry::Timeline> timeline;
};

struct Series {
  std::string label;
  std::vector<SweepPoint> points;

  [[nodiscard]] double max_speedup() const;
  /// Speedup at the largest cores <= n (0 if none).
  [[nodiscard]] double speedup_at(std::uint32_t n) const;
};

/// The paper's speedup baseline: "single core execution time of the ideal
/// curve" — the no-overhead makespan on one worker.
Tick ideal_baseline(const Trace& trace);

/// One makespan measurement (fresh manager instance per call).
Tick run_once(const Trace& trace, const ManagerSpec& spec, std::uint32_t cores,
              const RuntimeConfig& base = {});

/// A full run record: the result plus (optionally) a metric snapshot and a
/// sampled timeline.
struct RunReport {
  RunResult result;
  std::string topology = "ideal";  ///< see topology_label()
  std::string placement = "default";  ///< see placement_label()
  std::shared_ptr<const telemetry::Snapshot> metrics;  ///< null unless collected
  std::shared_ptr<const telemetry::Timeline> timeline;  ///< null unless sampled
  /// Frozen lifecycle-span trace; null unless `collect_trace` was set.
  std::shared_ptr<const telemetry::TraceData> trace;
};

/// The BENCH-record topology label of a run: the manager-side NoC kind when
/// one is configured, else the host-side (RuntimeConfig) kind, else "ideal".
std::string topology_label(const ManagerSpec& spec, const RuntimeConfig& base);

/// The BENCH-record placement label of a run (NocConfig::placement_name,
/// combined across the manager and host NoCs like topology_label). Rows
/// with different tile layouts must not collide in the perfdiff join.
std::string placement_label(const ManagerSpec& spec, const RuntimeConfig& base);

/// One measurement with full result + telemetry (fresh manager and registry
/// per call; the ideal manager runs through the DES so runtime metrics
/// exist for it too). A non-null `timeline` config attaches a
/// TimelineRecorder for the run (implies metric collection) and freezes the
/// sampled series into the report. With `collect_trace` a TraceRecorder is
/// attached for the run and its frozen span graph lands in RunReport::trace
/// (ready for chrome_trace_json / critical_path). A non-null `registry`
/// makes the run record into the caller's registry instead of a fresh local
/// one — the serving harness uses this to preset context gauges (offered
/// rate, knee) that land in the same snapshot as the run's metrics.
/// Build a fresh manager instance for `spec` (the factory run_once_report
/// uses internally). For harnesses that need to own the manager across a
/// run — e.g. to read back its stats or drive several masters against it.
std::unique_ptr<TaskManagerModel> make_manager(const ManagerSpec& spec);

RunReport run_once_report(const Trace& trace, const ManagerSpec& spec,
                          std::uint32_t cores, const RuntimeConfig& base = {},
                          bool collect_metrics = true,
                          const telemetry::TimelineConfig* timeline = nullptr,
                          bool collect_trace = false,
                          telemetry::MetricRegistry* registry = nullptr);

/// Run `spec` once with a TraceRecorder attached and write the span graph
/// as a Chrome trace-event JSON to `path` (see telemetry/trace_export.hpp;
/// the critical-path attribution rides along under otherData). Prints a
/// one-line summary on success or an error to stderr on IO failure — the
/// shared implementation of the bench binaries' --trace flag.
bool write_chrome_trace(const Trace& trace, const ManagerSpec& spec,
                        std::uint32_t cores, const RuntimeConfig& base,
                        const std::string& path);

/// Evaluate fn(0), ..., fn(n-1) on up to `workers` threads (0 means
/// min(n, std::thread::hardware_concurrency())) and return the results in
/// input order. The calling thread is one of the workers, so with one
/// worker every call runs inline on it, in index order. `fn` must be safe
/// to call concurrently; which thread runs which index is unspecified, so
/// results must depend on the index alone. The result type must be
/// default-constructible (the output vector is sized up front). If calls
/// throw, the first exception is rethrown once every worker has joined.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t workers = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  // vector<bool> packs bits, so neighbouring writes would race.
  static_assert(!std::is_same_v<R, bool>, "parallel_map cannot return bool");
  std::vector<R> out(n);
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, n);
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        out[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
    work();
  }  // the jthreads join here
  if (error) std::rethrow_exception(error);
  return out;
}

/// Sweep a core-count axis. `base.workers` is overwritten per point; with
/// `collect_metrics` every point carries a telemetry snapshot, and a
/// non-null `timeline` config additionally attaches a per-point timeline.
/// The points are independent runs and go through parallel_map. A sweep
/// whose `base`/`spec` name a caller-owned sink every run writes into (a
/// profiler, metric registry, timeline recorder, span trace or schedule
/// log) runs them one at a time on the calling thread: those sinks are
/// single-threaded, and a profile should describe one thread's cost.
Series sweep(const Trace& trace, const ManagerSpec& spec,
             const std::vector<std::uint32_t>& cores, Tick baseline,
             const RuntimeConfig& base = {}, bool collect_metrics = false,
             const telemetry::TimelineConfig* timeline = nullptr);

/// The timeline configuration shared by the bench binaries' --timeline
/// mode: the load-bearing queue/conflict/throughput paths at 100 us initial
/// resolution, capped at 192 rows (auto-coarsening keeps long runs covered).
telemetry::TimelineConfig bench_timeline_config();

/// One machine-readable per-run record for the BENCH_*.json trajectory:
/// {"schema": 4, "bench", "workload", "manager", "cores", "makespan",
///  "speedup", "metrics": {...}} — makespan in integer picoseconds, metrics
/// the flat snapshot object ({} when `metrics` is null). A non-null
/// `timeline` appends a "timeline" object (see append_timeline for its
/// schema). A `topology` other than "ideal" appends the optional
/// "topology" field, and a `placement` other than "default" the optional
/// "placement" field (absent means ideal/default, so older records stay
/// joinable). The "schema" field versions the record format for
/// nexus-perfdiff; bump it on breaking changes.
std::string metrics_report_json(std::string_view bench, std::string_view workload,
                                std::string_view manager, std::uint32_t cores,
                                Tick makespan, double speedup,
                                const telemetry::Snapshot* metrics,
                                const telemetry::Timeline* timeline = nullptr,
                                std::string_view topology = "ideal",
                                std::string_view placement = "default");

/// Accumulates metrics_report_json records into one BENCH_*.json array
/// document — the shared bookkeeping of every bench binary's --json mode.
class BenchRecordWriter {
 public:
  /// Append one record (a complete JSON object from metrics_report_json).
  void append(std::string_view record_json);

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Close the array and write it to `path` (truncating); also prints the
  /// standard "wrote N record(s)" line on success or an error to stderr on
  /// IO failure. Call once.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::string doc_ = "[";
  std::size_t count_ = 0;
};

/// Print a figure-style table: one row per core count, one column per
/// series, plus (optionally) CSV to stdout.
void print_series(const std::string& title, const std::vector<std::uint32_t>& cores,
                  const std::vector<Series>& series, bool csv = false);

}  // namespace nexus::harness

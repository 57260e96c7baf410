// Reproduces Table II: per-benchmark task counts, total work, average task
// size and parameter ranges, from the synthetic trace generators, printed
// next to the paper's values.
//
// With --json=<path> the binary additionally *runs* each selected workload
// against Nexus# (6 TGs at the Table I test frequency) with a telemetry
// registry attached and writes a JSON array of records
//   {bench, workload, manager, cores, makespan, speedup, metrics{...}}
// — the machine-readable seed for the BENCH_table2.json perf trajectory.
//
// With --trace=<path> it instead writes a Chrome trace (ui.perfetto.dev) of
// one run — sparselu (or the first --workloads entry) under Nexus# 6 TGs.
#include <cstdio>
#include <string>
#include <vector>

#include "nexus/common/flags.hpp"
#include "nexus/common/table.hpp"
#include "nexus/harness/experiment.hpp"
#include "nexus/task/trace_stats.hpp"
#include "nexus/workloads/workloads.hpp"

using namespace nexus;
using namespace nexus::workloads;

namespace {

struct PaperRow {
  const char* name;
  std::uint64_t tasks;
  double total_ms;
  double avg_us;
  const char* deps;
};

constexpr PaperRow kPaper[] = {
    {"c-ray", 1200, 7381, 6151, "1"},
    {"rot-cc", 16262, 8150, 501, "1"},
    {"sparselu", 54814, 38128, 696, "1-3"},
    {"streamcluster", 652776, 237908, 364, "1-3"},
    {"h264dec-1x1-10f", 139961, 640, 4.6, "2-6"},
    {"h264dec-2x2-10f", 35921, 550, 15.3, "2-6"},
    {"h264dec-4x4-10f", 9333, 519, 55.6, "2-6"},
    {"h264dec-8x8-10f", 2686, 510, 189.9, "2-6"},
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"json", "write per-workload Nexus# run records to this file"},
       {"trace", "write a Chrome trace of one run to this file"},
       {"cores", "worker cores for the --json runs (default 32)"},
       {"workloads",
        "comma-separated subset of Table II workloads to run for --json "
        "(default: all)"}});
  std::printf("Table II: benchmark durations (traces regenerated synthetically; "
              "see src/nexus/workloads/workloads.hpp)\n\n");
  TextTable t({"benchmark", "# tasks", "paper", "total work (ms)", "paper",
               "avg task (us)", "paper", "# deps", "paper"});
  for (const auto& row : kPaper) {
    const Trace tr = make_workload(row.name);
    const TraceStats s = compute_stats(tr);
    std::string deps = std::to_string(s.min_params);
    if (s.min_params != s.max_params)
      deps.append("-").append(std::to_string(s.max_params));
    t.add_row({row.name, TextTable::integer(static_cast<long long>(s.num_tasks)),
               TextTable::integer(static_cast<long long>(row.tasks)),
               TextTable::num(s.total_work_ms(), 0), TextTable::num(row.total_ms, 0),
               TextTable::num(s.avg_task_us(), 1), TextTable::num(row.avg_us, 1),
               deps, row.deps});
  }
  t.print();

  if (flags.has("trace")) {
    const std::vector<std::string> sel = split_csv(flags.get("workloads", ""));
    const std::string name = sel.empty() ? "sparselu" : sel.front();
    if (!is_workload(name)) {
      std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
      return 2;
    }
    const auto c = static_cast<std::uint32_t>(flags.get_int("cores", 32));
    return harness::write_chrome_trace(make_workload(name),
                                       harness::ManagerSpec::nexussharp(6), c,
                                       {}, flags.get("trace", ""))
               ? 0
               : 2;
  }

  if (!flags.has("json")) return 0;

  // --json: measured runs with telemetry, one record per workload.
  const auto cores = static_cast<std::uint32_t>(flags.get_int("cores", 32));
  std::vector<std::string> selected = split_csv(flags.get("workloads", ""));
  if (selected.empty())
    for (const auto& row : kPaper) selected.push_back(row.name);

  const harness::ManagerSpec spec = harness::ManagerSpec::nexussharp(6);
  harness::BenchRecordWriter out;
  for (const auto& name : selected) {
    if (!is_workload(name)) {
      std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
      return 2;
    }
    const Trace tr = make_workload(name);
    const Tick baseline = harness::ideal_baseline(tr);
    const harness::RunReport rep =
        harness::run_once_report(tr, spec, cores, {}, /*collect_metrics=*/true);
    out.append(harness::metrics_report_json(
        "table2", name, spec.label, cores, rep.result.makespan,
        rep.result.speedup_vs(baseline), rep.metrics.get()));
    std::printf("ran %-18s %8.2f ms makespan, %6.2fx speedup at %u cores\n",
                name.c_str(), to_ms(rep.result.makespan),
                rep.result.speedup_vs(baseline), cores);
  }
  std::printf("\n");
  return out.write(flags.get("json", "")) ? 0 : 2;
}

// Reproduces Figure 8: speedups of the Starbench benchmarks (a) and the
// h264dec granularities (b) under four task managers: the no-overhead
// bound, Nanos (software RTS model, up to 32 cores — the paper's test
// machine), Nexus++ (100 MHz) and Nexus# (6 TGs at 55.56 MHz).
//
// Flags: --quick       cores {1,8,32,256}; skips streamcluster
//        --bench NAME  run a single benchmark
//        --csv         also emit CSV rows
//        --host-cost-us X  sensitivity: per-message host interface cost for
//                          the hardware managers (see RuntimeConfig::
//                          host_message_cost)
//        --json=PATH   instead of the figure tables, write machine-readable
//                      run records (Nexus++ and Nexus# 6 TGs, 8 and 32
//                      cores per benchmark) in the BENCH_*.json schema
//        --timeline    attach sampled sim-time timelines to --json records
#include <cstdio>
#include <string>
#include <vector>

#include "nexus/common/flags.hpp"
#include "nexus/harness/experiment.hpp"
#include "nexus/workloads/workloads.hpp"

using namespace nexus;
using namespace nexus::harness;

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"quick", "reduced grid"},
                     {"bench", "single benchmark name"},
                     {"csv", "emit csv"},
                     {"host-cost-us", "per-message host cost in us (hw managers)"},
                     {"json", "write BENCH-schema run records to this file"},
                     {"timeline", "attach sim-time timelines to --json records"}});
  const bool quick = flags.get_bool("quick", false);
  const bool csv = flags.get_bool("csv", false);
  const double host_cost_us = flags.get_double("host-cost-us", 0.0);

  std::vector<std::string> benches{"c-ray",           "rot-cc",
                                   "sparselu",        "streamcluster",
                                   "h264dec-1x1-10f", "h264dec-2x2-10f",
                                   "h264dec-4x4-10f", "h264dec-8x8-10f"};
  if (flags.has("bench")) {
    benches = {flags.get("bench", "")};
  } else if (quick) {
    benches = {"c-ray", "rot-cc", "sparselu", "h264dec-1x1-10f", "h264dec-8x8-10f"};
  }
  const std::vector<std::uint32_t> cores =
      quick ? std::vector<std::uint32_t>{1, 8, 32, 256} : paper_cores_256();
  std::vector<std::uint32_t> nanos_cores;
  for (const std::uint32_t c : cores)
    if (c <= 32) nanos_cores.push_back(c);

  RuntimeConfig hw_rc;
  hw_rc.host_message_cost = us(host_cost_us);

  if (flags.has("json")) {
    // Trajectory records: both hardware managers head-to-head per benchmark
    // at two core counts, with metrics and (optionally) timelines.
    const telemetry::TimelineConfig tcfg = bench_timeline_config();
    const telemetry::TimelineConfig* tl =
        flags.get_bool("timeline", false) ? &tcfg : nullptr;
    BenchRecordWriter out;
    for (const auto& name : benches) {
      const Trace tr = workloads::make_workload(name);
      const Tick base = ideal_baseline(tr);
      for (const ManagerSpec& spec :
           {ManagerSpec::nexuspp_default(), ManagerSpec::nexussharp(6)}) {
        for (const std::uint32_t c : {8u, 32u}) {
          const RunReport rep = run_once_report(tr, spec, c, hw_rc, true, tl);
          out.append(metrics_report_json("fig8", name, spec.label, c,
                                         rep.result.makespan,
                                         rep.result.speedup_vs(base),
                                         rep.metrics.get(), rep.timeline.get()));
          std::fprintf(stderr, "[fig8] %-18s %-22s %3u cores: %8.2f ms\n",
                       name.c_str(), spec.label.c_str(), c,
                       to_ms(rep.result.makespan));
        }
      }
    }
    return out.write(flags.get("json", "")) ? 0 : 2;
  }

  for (const auto& name : benches) {
    const Trace tr = workloads::make_workload(name);
    const Tick base = ideal_baseline(tr);
    std::fprintf(stderr, "[fig8] %s: %zu tasks, baseline %.1f ms\n", name.c_str(),
                 tr.num_tasks(), to_ms(base));

    std::vector<Series> series;
    series.push_back(sweep(tr, ManagerSpec::ideal(), cores, base));
    series.back().label = "no-overhead";
    series.push_back(sweep(tr, ManagerSpec::nanos_default(), nanos_cores, base));
    series.push_back(sweep(tr, ManagerSpec::nexuspp_default(), cores, base, hw_rc));
    series.push_back(sweep(tr, ManagerSpec::nexussharp(6), cores, base, hw_rc));

    print_series("Fig. 8: " + name, cores, series, csv);
    std::printf("max speedups: ");
    for (const auto& s : series)
      std::printf("%s=%.1f  ", s.label.c_str(), s.max_speedup());
    std::printf("\n");
  }
  return 0;
}

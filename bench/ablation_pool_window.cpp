// Ablation: the in-flight task window (Task Pool capacity).
//
// The paper describes the pool and its backpressure but not its size. This
// sweep shows why the size matters more than any other unstated capacity:
// on the finest h264 decode, a 256-task window covers only ~2 macroblock
// rows of lookahead, capping *every* manager near 4x and masking the
// central-vs-distributed difference; from ~1024 the designs separate the
// way Figs. 7/8 show. This is the experimental basis for the repository's
// default (docs/ARCHITECTURE.md, "Calibration and free parameters").
#include <cstdio>
#include <vector>

#include "nexus/common/flags.hpp"
#include "nexus/common/table.hpp"
#include "nexus/harness/experiment.hpp"
#include "nexus/workloads/workloads.hpp"

using namespace nexus;
using namespace nexus::harness;

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {{"quick", "fewer pool sizes"},
                                 {"cores", "worker cores (default 64)"}});
  const bool quick = flags.get_bool("quick", false);
  const auto cores = static_cast<std::uint32_t>(flags.get_int("cores", 64));

  const Trace tr = workloads::make_h264dec(workloads::h264_config(1));
  const Tick base = ideal_baseline(tr);
  const double ideal = static_cast<double>(base) /
                       static_cast<double>(run_once(tr, ManagerSpec::ideal(), cores));

  std::vector<std::size_t> pools{128, 256, 512, 1024, 2048, 4096};
  if (quick) pools = {256, 1024};

  std::printf("Ablation: task-pool window on h264dec-1x1-10f, %u cores "
              "(no-overhead bound: %.2fx)\n\n", cores, ideal);
  TextTable t({"pool", "nexus# 6TG@55.56", "nexus++@100"});
  for (const std::size_t pool : pools) {
    ManagerSpec sharp = ManagerSpec::nexussharp(6);
    sharp.sharp.pool_capacity = pool;
    ManagerSpec npp = ManagerSpec::nexuspp_default();
    npp.npp.pool_capacity = pool;
    const double s_sharp = static_cast<double>(base) /
                           static_cast<double>(run_once(tr, sharp, cores));
    const double s_npp =
        static_cast<double>(base) / static_cast<double>(run_once(tr, npp, cores));
    t.add_row({TextTable::integer(static_cast<long long>(pool)),
               TextTable::num(s_sharp, 2), TextTable::num(s_npp, 2)});
  }
  t.print();
  std::printf("\nReading: below ~512 the lookahead window (not the manager) is\n"
              "the binding constraint; the designs differentiate above it.\n");
  return 0;
}

// Synthetic workload generators reproducing the paper's benchmark traces.
//
// The paper's evaluation (Section V) replays traces collected on a 40-core
// Xeon E7-4870 for four Starbench benchmarks plus sparselu, and generates the
// Gaussian-elimination micro-benchmark analytically. We do not have the
// original traces; each generator here reproduces the *published* structure:
//
//   - the dependency pattern described in Section V-A,
//   - the task counts / total work / average task size of Table II
//     (exactly where construction permits, within rounding otherwise),
//   - the parameter-count ranges of Table II's "# deps" column,
//   - Table III's task counts and FLOP model for Gaussian elimination.
//
// Durations are seeded lognormal samples rescaled so the trace total matches
// Table II exactly; the variance parameter per benchmark is the one degree
// of freedom the paper does not publish; it shapes the task-size spread but
// never Table II's counts or totals (docs/ARCHITECTURE.md, "Calibration and
// free parameters").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nexus/task/trace.hpp"

namespace nexus::workloads {

// ---------------------------------------------------------------------------
// c-ray: ray tracing. One task per scan line, all independent, one parameter
// (the task's own output line, Table II "# deps" = 1). Long tasks (~6.2 ms).
// ---------------------------------------------------------------------------
struct CrayConfig {
  int lines = 1200;
  Tick total_work = ms(7381);
  double sigma = 0.35;  ///< lognormal shape: scene-dependent per-line cost
  std::uint64_t seed = 0xC0FFEE01;
};
Trace make_cray(const CrayConfig& cfg = {});

// ---------------------------------------------------------------------------
// rot-cc: image rotation + colour conversion. Two tasks per line operating
// in-place on the line buffer (1 param each, inout), so the colour-conversion
// task chains after the rotation task; pairs are mutually independent.
// ---------------------------------------------------------------------------
struct RotccConfig {
  int lines = 8131;           ///< 2 tasks/line -> 16262 tasks (Table II)
  Tick total_work = ms(8150);
  double rot_share = 0.55;    ///< fraction of a pair's work in the rotate task
  double sigma = 0.25;
  std::uint64_t seed = 0xC0FFEE02;
};
Trace make_rotcc(const RotccConfig& cfg = {});

// ---------------------------------------------------------------------------
// sparselu: blocked sparse LU factorization (the OmpSs developers' kernel).
// Tasks: lu0 (diag, 1 param), fwd/bdiv (2 params), bmod (3 params); bmod can
// create fill-in. The classic structural-sparsity init is used, and a
// deterministic greedy search flips initially-null blocks until the task
// count hits Table II's 54814 exactly.
// ---------------------------------------------------------------------------
struct SparseLuConfig {
  int nb = 84;                     ///< blocks per matrix dimension
  std::uint64_t target_tasks = 54814;
  Tick total_work = ms(38128);
  double sigma = 0.15;
  std::uint64_t seed = 0xC0FFEE03;
};
Trace make_sparselu(const SparseLuConfig& cfg = {});

/// Number of tasks sparse LU factorization would create for the given
/// structural-sparsity mask (exposed for the construction-search test).
std::uint64_t sparselu_task_count(int nb, const std::vector<std::uint8_t>& null_mask);

/// The canonical structural init mask (true = block initially null).
std::vector<std::uint8_t> sparselu_structural_mask(int nb);

// ---------------------------------------------------------------------------
// streamcluster: streaming k-median. Fork-join chains: per phase one
// recenter task (writes the shared centers block) plus ~400 point-chunk
// tasks reading centers (and, for some, a shared weights block) and updating
// their own chunk; each phase ends with a taskwait. Heavy-tailed durations
// (the per-phase max task bounds achievable speedup, as in the paper where
// streamcluster tops out around 40x).
// ---------------------------------------------------------------------------
struct StreamclusterConfig {
  std::uint64_t total_tasks = 652776;
  int phases = 1632;          ///< "groups of about 400 tasks followed by a taskwait"
  int group_jitter = 15;      ///< phase sizes vary in [400-j, 400+j]
  Tick total_work = ms(237908);
  double sigma = 0.85;
  double weights_fraction = 0.3;  ///< fraction of worker tasks with a 3rd param
  std::uint64_t seed = 0xC0FFEE04;
};
Trace make_streamcluster(const StreamclusterConfig& cfg = {});

// ---------------------------------------------------------------------------
// h264dec: macroblock wavefront decoding of 10 full-HD frames
// (1920x1088 -> 120x68 macroblocks), with groups of 1x1/2x2/4x4/8x8
// macroblocks per task. Per frame: one entropy task (serial chain across
// frames), one decode task per group (wavefront: left/up/up-right/up-left
// neighbours + co-located previous-frame reference on P frames; 2-6 params),
// and a deblock task for a deterministic subset of groups (chosen so the
// total task count matches Table II exactly). The master performs
// `taskwait on` (display/buffer-recycle synchronization) before reusing a
// frame-store parity — the pragma Nexus++ does not support.
// ---------------------------------------------------------------------------
struct H264Config {
  int group = 1;     ///< macroblocks per task edge: 1, 2, 4 or 8
  int frames = 10;
  int mb_width = 120;
  int mb_height = 68;
  std::uint64_t total_tasks = 139961;  ///< Table II target for this granularity
  Tick total_work = ms(640);
  double entropy_fraction = 0.08;  ///< share of total work in entropy tasks
  double deblock_weight = 0.4;     ///< deblock cost relative to decode
  double sigma = 0.3;
  std::uint64_t seed = 0xC0FFEE05;
};

/// Table II constants for h264dec-{1x1,2x2,4x4,8x8}-10f.
H264Config h264_config(int group);
Trace make_h264dec(const H264Config& cfg);

// ---------------------------------------------------------------------------
// gaussian: Gaussian elimination with partial pivoting (Fig. 6 / Table III).
// Per step i: one pivot task (inout row_i) then one elimination task per
// remaining row (in row_i, inout row_j) — at most 2 params, and rows fan out
// to unbounded waiter counts (the dummy-entry stress case). Durations are
// analytic: FLOPs(step i) = n-i+1, time = FLOPs / (GFLOPS * 1000) us.
// ---------------------------------------------------------------------------
struct GaussianConfig {
  int n = 250;          ///< matrix dimension (250/500/1000/3000 in Table III)
  double gflops = 2.0;  ///< per-core compute rate assumed by the paper
};
Trace make_gaussian(const GaussianConfig& cfg = {});

/// Analytic task count for the Gaussian benchmark: (n-1)(n+2)/2 (Table III).
constexpr std::uint64_t gaussian_task_count(std::uint64_t n) {
  return (n - 1) * (n + 2) / 2;
}
/// Analytic total FLOPs: sum_{k=2..n} k^2 = n(n+1)(2n+1)/6 - 1.
constexpr std::uint64_t gaussian_total_flops(std::uint64_t n) {
  return n * (n + 1) * (2 * n + 1) / 6 - 1;
}

// ---------------------------------------------------------------------------
// Registry: name -> generator with paper-default parameters, for harnesses.
// Names: c-ray, rot-cc, sparselu, streamcluster, h264dec-{1x1,2x2,4x4,8x8}-10f,
// gaussian-{250,500,1000,3000}.
// ---------------------------------------------------------------------------
std::vector<std::string> workload_names();
bool is_workload(const std::string& name);
Trace make_workload(const std::string& name);

}  // namespace nexus::workloads

// Trace-driven host-machine simulation (the paper's testbench, Section V-B):
// "It submits new tasks to Nexus#, receives ready task information from it,
// schedules ready tasks to worker cores and simulates their execution, and
// finally notifies Nexus# of finished tasks."
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nexus/noc/network.hpp"
#include "nexus/runtime/machine.hpp"
#include "nexus/runtime/manager.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/task/trace.hpp"
#include "nexus/telemetry/fwd.hpp"

namespace nexus {

/// One executed task interval, for schedule validation and visualization.
struct ScheduleEntry {
  TaskId task = kInvalidTask;
  std::uint32_t worker = 0;
  Tick start = 0;
  Tick end = 0;
};

/// Open-loop (serving) submission: instead of replaying the trace as fast
/// as the manager admits it, the master holds each submit event back until
/// the task's release (arrival) time. Tasks model requests from independent
/// logical clients; the vectors are indexed by dense task id.
///
/// The trace's event order is still the submission order, so release times
/// are expected to be non-decreasing along the submit stream (the arrival
/// generators emit them sorted); a manager that back-pressures (pool full)
/// delays later arrivals behind the blocked one, which is exactly the
/// admission backlog the serving metrics measure.
struct OpenLoopSubmission {
  /// Arrival time of each task (picoseconds); size must equal the trace's
  /// task count.
  std::vector<Tick> release;
  /// Logical client of each task; empty disables per-client histograms.
  std::vector<std::uint32_t> client;
  /// Number of logical clients (client[i] < clients).
  std::uint32_t clients = 0;

  friend bool operator==(const OpenLoopSubmission&,
                         const OpenLoopSubmission&) = default;
};

struct RuntimeConfig {
  std::uint32_t workers = 1;

  /// If nonnull, the run is open-loop: each submit event waits for its
  /// task's release time (see OpenLoopSubmission). With metrics bound the
  /// driver additionally records offered/accepted counters, the
  /// serving-latency histogram (release -> finish) and per-client
  /// histograms. Null keeps the closed-loop replay bit-identical.
  const OpenLoopSubmission* open_loop = nullptr;

  /// Fixed master-side cost per trace event outside the manager (models the
  /// user code between pragmas; 0 = pure trace replay as in the paper).
  Tick master_event_cost = 0;

  /// Host-interface sensitivity knob: extra cost added to every
  /// master<->manager message (submission, ready fetch, finish notify).
  /// 0 reproduces the paper's "Nexus# only" mode, where no communication
  /// overhead is accounted; nonzero values emulate a driver/PCIe stack as
  /// in the Nexus++ integration paper [11]. A sensitivity knob, not a
  /// calibrated constant (docs/ARCHITECTURE.md, "Calibration and free
  /// parameters").
  Tick host_message_cost = 0;

  /// Host-side interconnect between the manager/master tile (node 0) and
  /// the worker cores (core w at node 1+w). The default ideal topology is
  /// the pre-NoC behaviour, bit-identical: dispatch and finish notification
  /// stay synchronous. On ring/mesh, every ready-task dispatch traverses
  /// manager -> core and every finish notification core -> manager over a
  /// `noc::Network` (clocked at 100 MHz unless noc.freq_mhz overrides), so
  /// core placement distance and link contention become visible.
  noc::NocConfig noc{};

  /// If nonnull, every executed task interval is appended (tests validate
  /// that no dependency or hazard is violated by a manager's schedule).
  std::vector<ScheduleEntry>* schedule_out = nullptr;

  /// If nonnull, the run binds manager + DES kernel instrumentation to this
  /// registry and fills runtime metrics (per-core busy/idle ticks, ready
  /// queue depth, makespan) at the end. Null keeps every hot path a no-op.
  telemetry::MetricRegistry* metrics = nullptr;

  /// If nonnull (requires `metrics`), the recorder samples the registry on
  /// its sim-time grid while the run executes and takes one final row at the
  /// makespan. Sampling is read-only: it cannot change the schedule or the
  /// makespan (tested contract).
  telemetry::TimelineRecorder* timeline = nullptr;

  /// If nonnull, the run records one lifecycle span chain per task plus
  /// causal dependency/NoC edges into this recorder (telemetry/trace.hpp).
  /// Recording is append-only and cannot perturb the schedule: a traced
  /// run is bit-identical to an untraced one (tested contract).
  telemetry::TraceRecorder* trace = nullptr;

  /// If nonnull, the run attributes its own host wall-clock time into this
  /// profiler under `profile_parent` (see telemetry/profiler.hpp): the DES
  /// queue ops, per-component-type handle() time, NoC send() per message
  /// kind, and the driver's dispatch/notify paths. Null keeps every hook a
  /// single branch and the schedule bit-identical (tested contract).
  telemetry::Profiler* profiler = nullptr;
  /// Profile node the run's instrumentation nests under (e.g. a per-run
  /// node the harness created); Profiler::kRoot when unset.
  std::uint32_t profile_parent = 0;
};

struct RunResult {
  Tick makespan = 0;
  Tick total_work = 0;
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;       ///< DES events processed
  double utilization = 0.0;       ///< worker busy time / (makespan * workers)
  std::string manager;

  /// Speedup relative to a given single-core baseline time.
  [[nodiscard]] double speedup_vs(Tick baseline) const {
    return makespan > 0 ? static_cast<double>(baseline) / static_cast<double>(makespan)
                        : 0.0;
  }
};

/// Run `trace` on `workers` cores with the given task manager model.
/// Deterministic: identical inputs give identical results.
RunResult run_trace(const Trace& trace, TaskManagerModel& manager,
                    const RuntimeConfig& config);

namespace detail {

/// The DES component implementing the master thread, dispatcher and workers.
class Driver final : public Component, public RuntimeHost {
 public:
  Driver(const Trace& trace, TaskManagerModel& manager, const RuntimeConfig& config);

  RunResult run();

  // Component
  void handle(Simulation& sim, const Event& ev) override;

  // RuntimeHost
  void task_ready(Simulation& sim, TaskId id) override;
  void master_resume(Simulation& sim) override;

  [[nodiscard]] const char* telemetry_label() const override {
    return "driver";
  }

 private:
  enum Op : std::uint32_t {
    kMasterStep = 0,
    kTaskDone = 1,         ///< a = worker, b = task
    kWorkerFree = 2,       ///< a = worker
    kDispatchArrived = 3,  ///< a = worker, b = task (host NoC, non-ideal)
    kNotifyArrived = 4,    ///< a = worker, b = task (host NoC, non-ideal)
  };

  enum class MasterState : std::uint8_t {
    kRunning,
    kBlockedOnPool,     ///< manager returned kSubmitBlocked
    kBlockedOnBarrier,  ///< taskwait
    kBlockedOnTask,     ///< taskwait_on
    kDone,
  };

  void master_step(Simulation& sim);
  void try_dispatch(Simulation& sim);
  void begin_task(Simulation& sim, std::uint32_t worker, TaskId id);
  void on_task_done(Simulation& sim, std::uint32_t worker, TaskId id);
  void on_notify(Simulation& sim, std::uint32_t worker, TaskId id);
  void finish_barrier_checks(Simulation& sim);

  const Trace& trace_;
  TaskManagerModel& manager_;
  RuntimeConfig config_;

  Simulation sim_;
  std::uint32_t self_ = 0;
  /// Host NoC (null under the ideal default, where both directions stay
  /// synchronous — the pre-NoC code path, bit-identical).
  std::unique_ptr<noc::Network> host_net_;

  WorkerPool workers_;
  std::deque<TaskId> ready_queue_;
  std::vector<bool> finished_;
  std::unordered_map<Addr, TaskId> last_writer_;  ///< as of master progress

  std::size_t next_event_ = 0;  ///< index into trace_.events()
  MasterState master_ = MasterState::kRunning;
  TaskId master_wait_task_ = kInvalidTask;
  std::uint64_t outstanding_ = 0;  ///< submitted but not finished
  std::uint64_t finished_count_ = 0;
  Tick last_activity_ = 0;

  telemetry::Profiler* prof_ = nullptr;
  std::uint32_t prof_dispatch_ = 0;  ///< driver-node child: try_dispatch time
  std::uint32_t prof_notify_ = 0;    ///< driver-node child: on_notify time

  telemetry::Histogram* m_ready_depth_ = nullptr;  ///< host ready-queue depth
  telemetry::Counter* m_dispatches_ = nullptr;
  telemetry::Histogram* m_sojourn_ = nullptr;     ///< submit -> finish, per task
  telemetry::Histogram* m_queue_wait_ = nullptr;  ///< ready -> dispatch

  // Open-loop serving metrics (created only when `open_loop` is set and a
  // registry is bound; see docs/METRICS.md "Serving metrics").
  telemetry::Counter* m_offered_ = nullptr;   ///< arrivals whose submit was attempted
  telemetry::Counter* m_accepted_ = nullptr;  ///< arrivals admitted by the manager
  telemetry::Histogram* m_serving_ = nullptr;        ///< release -> finish
  telemetry::Histogram* m_admission_wait_ = nullptr; ///< release -> admission
  std::vector<telemetry::Histogram*> m_client_sojourn_;  ///< per client

  /// Per-task submit/ready times (task ids are dense trace indices), kept
  /// only when metrics are bound — they feed the sojourn and queue-wait
  /// histograms above.
  std::vector<Tick> submit_t_;
  std::vector<Tick> ready_t_;
};

}  // namespace detail
}  // namespace nexus

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
  /// histograms. Null keeps the closed-loop replay bit-identical. Paces
  /// run_trace only; run_multi_app and run_tenants reject it.
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

/// The DES component implementing the master ports, dispatcher and workers.
///
/// One driver replays N *submission streams* through M *master ports* onto
/// one worker pool, ready queue, host NoC, trace, timeline and profiler. A
/// port is one master thread: it submits for its streams one at a time and
/// is busy for each submission's continuation. The adapters pick the shape:
///
///   run_trace      1 port x 1 stream (closed loop, or paced by open_loop)
///   run_multi_app  N ports x 1 stream each (per-app taskwait/taskwait_on)
///   run_tenants    1 port x N arrival streams
///
/// A port with several ready heads serves the oldest release first (ties to
/// the lower stream). kSubmitBlocked holds the whole port; kSubmitNacked
/// holds only the offending stream; master_resume clears both.
class Driver final : public Component, public RuntimeHost {
 public:
  enum class StreamState : std::uint8_t {
    kRunning,
    kBlockedOnBarrier,  ///< taskwait
    kBlockedOnTask,     ///< taskwait_on
    kDone,
  };

  struct Stream {
    // Set by the adapter.
    const Trace* trace = nullptr;
    std::uint32_t port = 0;        ///< ports are numbered 0.. in stream order
    const Tick* release = nullptr; ///< arrival per local task; null = closed loop
    Addr offset = 0;               ///< address window (added modulo 2^48)
    std::uint16_t tenant = 0;      ///< TaskDescriptor::tenant tag

    // Run state.
    TaskId base = 0;         ///< global id of local task 0
    std::size_t cursor = 0;  ///< next trace event
    std::size_t released = 0;  ///< arrivals delivered (arrival-event runs)
    StreamState state = StreamState::kRunning;
    bool held = false;       ///< NACKed; retried on master_resume
    TaskId wait_task = kInvalidTask;
    std::uint64_t outstanding = 0;  ///< submitted but not finished
    std::uint64_t nack_holds = 0;
    Tick last = 0;  ///< last task completion
    std::vector<Tick> raw;  ///< release -> finish per task (arrival-event runs)
    std::unordered_map<Addr, TaskId> last_writer;  ///< placed addresses
  };

  struct Options {
    /// Every release is an event scheduled up front that makes its task
    /// eligible at the port (tenancy serving). Otherwise a port with
    /// release times sleeps until its next head's release.
    bool arrival_events = false;
    /// A master that finishes after its stream's last task (trailing
    /// taskwait_on query, submit continuation) extends the makespan. Off,
    /// the makespan is the last task completion.
    bool master_tail = true;
  };

  Driver(std::vector<Stream> streams, TaskManagerModel& manager,
         const RuntimeConfig& config, Options options);

  RunResult run();
  [[nodiscard]] const std::vector<Stream>& streams() const { return streams_; }

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
    kMasterStep = 0,       ///< a = port
    kTaskDone = 1,         ///< a = worker, b = task
    kWorkerFree = 2,       ///< a = worker
    kDispatchArrived = 3,  ///< a = worker, b = task (host NoC, non-ideal)
    kNotifyArrived = 4,    ///< a = worker, b = task (host NoC, non-ideal)
    kRelease = 5,          ///< a = stream (arrival-event runs)
  };

  struct Port {
    std::uint32_t first = 0;  ///< streams [first, end)
    std::uint32_t end = 0;
    bool blocked = false;       ///< kSubmitBlocked outstanding
    bool step_pending = false;  ///< a kMasterStep is queued
    Tick busy_until = 0;        ///< submission continuation
  };

  [[nodiscard]] const TaskDescriptor& task(TaskId id) const {
    return placed_.empty() ? streams_[0].trace->task(id) : placed_[id];
  }
  [[nodiscard]] Stream& stream_of(TaskId id) {
    return streams_[stream_of_.empty() ? 0 : stream_of_[id]];
  }

  void step(Simulation& sim, std::uint32_t port);
  Stream* next_stream(Simulation& sim, const Port& port);
  void wake(Simulation& sim, std::uint32_t port, Tick at);
  void occupy_port(Simulation& sim, std::uint32_t port, Tick until);
  void try_dispatch(Simulation& sim);
  /// Execution on `worker` from `start`; the worker is reserved from now.
  void begin_task(Simulation& sim, std::uint32_t worker, TaskId id, Tick start);
  void on_task_done(Simulation& sim, std::uint32_t worker, TaskId id);
  void on_notify(Simulation& sim, std::uint32_t worker, TaskId id);
  void finish_barrier_checks(Simulation& sim, Stream& s);

  std::vector<Stream> streams_;
  std::vector<Port> ports_;
  TaskManagerModel& manager_;
  RuntimeConfig config_;
  Options options_;

  /// Descriptors with global ids, placed addresses and tenant tags; empty
  /// for a lone unplaced stream, which replays its trace in place.
  std::vector<TaskDescriptor> placed_;
  std::vector<std::uint32_t> stream_of_;  ///< by global id; empty = stream 0
  std::uint64_t total_tasks_ = 0;

  Simulation sim_;
  std::uint32_t self_ = 0;
  /// Host NoC (null under the ideal default, where both directions stay
  /// synchronous — the pre-NoC code path, bit-identical).
  std::unique_ptr<noc::Network> host_net_;

  WorkerPool workers_;
  std::deque<TaskId> ready_queue_;
  std::vector<bool> finished_;
  std::uint64_t finished_count_ = 0;
  Tick last_activity_ = 0;

  telemetry::Profiler* prof_ = nullptr;
  std::uint32_t prof_dispatch_ = 0;  ///< driver-node child: try_dispatch time
  std::uint32_t prof_notify_ = 0;    ///< driver-node child: on_notify time

  telemetry::Histogram* m_ready_depth_ = nullptr;  ///< host ready-queue depth
  telemetry::Counter* m_dispatches_ = nullptr;
  telemetry::Histogram* m_sojourn_ = nullptr;     ///< submit -> finish, per task
  telemetry::Histogram* m_queue_wait_ = nullptr;  ///< ready -> dispatch

  // Open-loop serving metrics (created only when a stream has release times
  // and a registry is bound; see docs/METRICS.md "Serving metrics").
  telemetry::Counter* m_offered_ = nullptr;   ///< arrivals whose submit was attempted
  telemetry::Counter* m_accepted_ = nullptr;  ///< arrivals admitted by the manager
  telemetry::Histogram* m_serving_ = nullptr;        ///< release -> finish
  telemetry::Histogram* m_admission_wait_ = nullptr; ///< release -> admission
  std::vector<telemetry::Histogram*> m_client_sojourn_;  ///< per client

  /// Per-task submit/ready times (by global id), kept only when metrics
  /// are bound — they feed the sojourn and queue-wait histograms above.
  std::vector<Tick> submit_t_;
  std::vector<Tick> ready_t_;
};

}  // namespace detail
}  // namespace nexus

#include "nexus/runtime/simulation_driver.hpp"

#include <algorithm>
#include <string>

#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus {

RunResult run_trace(const Trace& trace, TaskManagerModel& manager,
                    const RuntimeConfig& config) {
  NEXUS_ASSERT_MSG(trace.num_tasks() > 0, "empty trace");
  detail::Driver::Stream s;
  s.trace = &trace;
  if (config.open_loop != nullptr) {
    NEXUS_ASSERT_MSG(config.open_loop->release.size() == trace.num_tasks(),
                     "open-loop release vector must cover every task");
    NEXUS_ASSERT_MSG(config.open_loop->client.empty() ||
                         config.open_loop->client.size() == trace.num_tasks(),
                     "open-loop client vector must be empty or cover every task");
    s.release = config.open_loop->release.data();
  }
  detail::Driver driver({std::move(s)}, manager, config, {});
  return driver.run();
}

namespace detail {

Driver::Driver(std::vector<Stream> streams, TaskManagerModel& manager,
               const RuntimeConfig& config, Options options)
    : streams_(std::move(streams)),
      manager_(manager),
      config_(config),
      options_(options),
      workers_(config.workers) {
  // Global ids are dense in stream order. A lone stream without placement
  // replays its trace in place; otherwise descriptors are copied with global
  // ids, addresses moved into the stream's window and the tenant tag set.
  const bool place = streams_.size() != 1 || streams_[0].offset != 0 ||
                     streams_[0].tenant != 0;
  for (std::uint32_t i = 0; i < streams_.size(); ++i) {
    Stream& s = streams_[i];
    NEXUS_ASSERT_MSG(s.trace != nullptr, "submission stream needs a trace");
    NEXUS_ASSERT_MSG(s.port == ports_.size() || s.port + 1 == ports_.size(),
                     "streams must be grouped by port, ports numbered in order");
    if (s.port == ports_.size()) ports_.push_back(Port{i, i});
    ++ports_.back().end;
    s.base = static_cast<TaskId>(total_tasks_);
    total_tasks_ += s.trace->num_tasks();
    if (!place) continue;
    for (TaskDescriptor t : s.trace->tasks()) {
      t.id += s.base;
      t.tenant = s.tenant;
      for (auto& p : t.params) p.addr = (p.addr + s.offset) & kAddrMask;
      placed_.push_back(t);
      stream_of_.push_back(i);
    }
  }
  finished_.assign(total_tasks_, false);

  if (config_.metrics != nullptr) manager_.bind_telemetry(*config_.metrics);
  if (config_.trace != nullptr) manager_.bind_trace(config_.trace);
  self_ = sim_.add_component(this);
  manager_.attach(sim_, this);
  if (!config_.noc.ideal()) {
    // Host NoC: manager/master tile at node 0, core w at node 1+w. Created
    // only for real topologies — the ideal default keeps dispatch and
    // notification synchronous (the pre-NoC code path, bit-identical).
    host_net_ = std::make_unique<noc::Network>(
        config_.noc, config_.workers + 1, /*default_mhz=*/100.0,
        /*ideal_latency=*/0);
    host_net_->attach(sim_);
  }
  if (config_.metrics != nullptr) {
    // After attach so every manager component is registered with the kernel.
    sim_.bind_telemetry(*config_.metrics);
    if (host_net_ != nullptr)
      host_net_->bind_telemetry(*config_.metrics, "runtime/noc");
    m_ready_depth_ =
        &config_.metrics->histogram("runtime/ready_q_depth");
    m_dispatches_ = &config_.metrics->counter("runtime/dispatches");
    m_sojourn_ = &config_.metrics->histogram("runtime/sojourn_ps");
    m_queue_wait_ = &config_.metrics->histogram("runtime/queue_wait_ps");
    submit_t_.assign(total_tasks_, -1);
    ready_t_.assign(total_tasks_, -1);
    const bool open_loop =
        std::any_of(streams_.begin(), streams_.end(),
                    [](const Stream& s) { return s.release != nullptr; });
    if (open_loop) {
      m_offered_ = &config_.metrics->counter("runtime/offered");
      m_accepted_ = &config_.metrics->counter("runtime/accepted");
      m_serving_ = &config_.metrics->histogram("runtime/serving_latency_ps");
      m_admission_wait_ =
          &config_.metrics->histogram("runtime/admission_wait_ps");
    }
    // Per-client latency histograms; capped so a million-client schedule
    // cannot explode the snapshot (the aggregate histogram always exists).
    // Indices are zero-padded to a common width so snapshot order matches
    // client order past 10 clients (client02 < client10, lexicographically).
    constexpr std::uint32_t kMaxClientHistograms = 64;
    const OpenLoopSubmission* ol = config_.open_loop;
    if (ol != nullptr && !ol->client.empty() &&
        ol->clients <= kMaxClientHistograms) {
      for (std::uint32_t c = 0; c < ol->clients; ++c)
        m_client_sojourn_.push_back(&config_.metrics->histogram(
            telemetry::path_join(
                "runtime",
                telemetry::indexed_path("client", c, ol->clients) +
                    "/sojourn_ps")));
    }
  }
  if (config_.trace != nullptr && host_net_ != nullptr)
    host_net_->bind_trace(config_.trace, "runtime/noc");
  if (config_.profiler != nullptr) {
    // After every attach, so the per-component-type handle() nodes cover
    // the manager's components and the host NoC alike.
    prof_ = config_.profiler;
    sim_.bind_profiler(*prof_, config_.profile_parent);
    manager_.bind_profiler(sim_);
    const std::uint32_t me = sim_.profiler_component_node(self_);
    prof_dispatch_ = prof_->node(me, "dispatch");
    prof_notify_ = prof_->node(me, "notify");
    if (host_net_ != nullptr) {
      host_net_->bind_profiler(sim_, {"master_step", "task_done",
                                      "worker_free", "dispatch", "notify",
                                      "release"});
    }
  }
  if (config_.timeline != nullptr) {
    NEXUS_ASSERT_MSG(config_.metrics != nullptr,
                     "RuntimeConfig::timeline requires RuntimeConfig::metrics");
    sim_.set_sampler(config_.timeline);
  }
}

RunResult Driver::run() {
  for (std::uint32_t p = 0; p < ports_.size(); ++p) wake(sim_, p, 0);
  if (options_.arrival_events) {
    for (std::uint32_t i = 0; i < streams_.size(); ++i)
      for (TaskId t = 0; t < streams_[i].trace->num_tasks(); ++t)
        sim_.schedule(streams_[i].release[t], self_, kRelease, i);
  }
  sim_.run();
  Tick total_work = 0;
  for (const Stream& s : streams_) {
    NEXUS_ASSERT_MSG(s.state == StreamState::kDone && s.outstanding == 0,
                     "submission stream did not drain");
    total_work += s.trace->total_work();
  }
  NEXUS_ASSERT_MSG(finished_count_ == total_tasks_, "tasks never ran");

  RunResult r;
  r.makespan = last_activity_;
  r.total_work = total_work;
  r.tasks = total_tasks_;
  r.events = sim_.events_processed();
  r.manager = manager_.name();
  if (r.makespan > 0) {
    r.utilization = static_cast<double>(workers_.total_busy()) /
                    (static_cast<double>(r.makespan) * workers_.size());
  }

  if (config_.metrics != nullptr) {
    // Per-core busy/idle split: busy + idle == makespan for every core, so
    // the totals reconcile exactly against cores x makespan (a tested
    // consistency contract of the metric report).
    telemetry::MetricRegistry& reg = *config_.metrics;
    reg.gauge("runtime/makespan_ps").set(r.makespan);
    reg.gauge("runtime/cores").set(workers_.size());
    reg.gauge("runtime/tasks").set(static_cast<std::int64_t>(r.tasks));
    for (std::uint32_t w = 0; w < workers_.size(); ++w) {
      const Tick busy = workers_.core_busy(w);
      const std::string core = "runtime/core" + std::to_string(w);
      reg.gauge(core + "/busy_ps").set(busy);
      reg.gauge(core + "/idle_ps").set(r.makespan - busy);
    }
  }
  // Final timeline row at the makespan, after the end-of-run gauges above so
  // it captures the settled state.
  if (config_.timeline != nullptr) config_.timeline->finish(r.makespan);
  if (config_.trace != nullptr) config_.trace->set_makespan(r.makespan);
  return r;
}

void Driver::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kMasterStep: {
      const auto p = static_cast<std::uint32_t>(ev.a);
      ports_[p].step_pending = false;
      step(sim, p);
      break;
    }
    case kTaskDone:
      on_task_done(sim, static_cast<std::uint32_t>(ev.a), static_cast<TaskId>(ev.b));
      break;
    case kWorkerFree:
      workers_.release(static_cast<std::uint32_t>(ev.a));
      try_dispatch(sim);
      break;
    case kDispatchArrived:
      begin_task(sim, static_cast<std::uint32_t>(ev.a),
                 static_cast<TaskId>(ev.b), sim.now());
      break;
    case kNotifyArrived:
      on_notify(sim, static_cast<std::uint32_t>(ev.a), static_cast<TaskId>(ev.b));
      break;
    case kRelease: {
      Stream& s = streams_[static_cast<std::uint32_t>(ev.a)];
      ++s.released;
      step(sim, s.port);
      break;
    }
    default:
      NEXUS_ASSERT_MSG(false, "unknown driver op");
  }
}

void Driver::wake(Simulation& sim, std::uint32_t port, Tick at) {
  // One queued step per port: a later wake-up request while one is queued
  // is served by that step (it re-checks busy_until and re-queues).
  if (ports_[port].step_pending) return;
  ports_[port].step_pending = true;
  sim.schedule(at, self_, kMasterStep, port);
}

void Driver::occupy_port(Simulation& sim, std::uint32_t port, Tick until) {
  ports_[port].busy_until = until;
  wake(sim, port, until);
}

Driver::Stream* Driver::next_stream(Simulation& sim, const Port& port) {
  // The oldest pending head wins, ties to the lower stream. Closed-loop
  // heads count as released at 0.
  auto head_release = [](const Stream& s) -> Tick {
    const TraceEvent& ev = s.trace->events()[s.cursor];
    return s.release != nullptr && ev.op == TraceOp::kSubmit
               ? s.release[ev.task]
               : 0;
  };
  Stream* pick = nullptr;
  for (std::uint32_t i = port.first; i < port.end; ++i) {
    Stream& s = streams_[i];
    if (s.state != StreamState::kRunning || s.held) continue;
    if (s.cursor >= s.trace->events().size()) {
      s.state = StreamState::kDone;
      if (options_.master_tail && s.outstanding == 0)
        last_activity_ = std::max(last_activity_, sim.now());
      continue;
    }
    if (options_.arrival_events && s.trace->events()[s.cursor].task >= s.released)
      continue;  // head not yet arrived
    if (pick == nullptr || head_release(s) < head_release(*pick)) pick = &s;
  }
  return pick;
}

void Driver::step(Simulation& sim, std::uint32_t p) {
  Port& port = ports_[p];
  if (port.blocked) return;
  if (sim.now() < port.busy_until) {
    wake(sim, p, port.busy_until);
    return;
  }
  // Process consecutive trace events inline while they complete instantly;
  // this collapses millions of zero-cost submissions (ideal manager) into a
  // single event.
  while (Stream* s = next_stream(sim, port)) {
    const TraceEvent& ev = s->trace->events()[s->cursor];
    switch (ev.op) {
      case TraceOp::kSubmit: {
        if (s->release != nullptr && !options_.arrival_events) {
          // Paced open loop: the arrival process, not manager admission
          // speed, paces this submit. Wake up again at the release time.
          const Tick at = s->release[ev.task];
          if (at > sim.now()) {
            wake(sim, p, at);
            return;
          }
        }
        const TaskDescriptor& task = this->task(s->base + ev.task);
        // Recorded before the submit so a pool-blocked retry keeps the
        // first attempt (the wait belongs to the span).
        if (config_.trace != nullptr)
          config_.trace->on_submit(task.id, sim.now());
        if (config_.metrics != nullptr && submit_t_[task.id] < 0) {
          submit_t_[task.id] = sim.now();
          telemetry::inc(m_offered_);
        }
        const Tick resume = manager_.submit(sim, task);
        if (resume == kSubmitNacked) {
          // Per-stream backpressure: hold this stream, serve the others.
          s->held = true;
          ++s->nack_holds;
          continue;
        }
        if (resume == kSubmitBlocked) {
          port.blocked = true;
          return;  // manager will call master_resume
        }
        NEXUS_ASSERT(resume >= sim.now());
        if (config_.trace != nullptr)
          config_.trace->on_accepted(task.id, resume);
        telemetry::inc(m_accepted_);
        if (m_admission_wait_ != nullptr)
          telemetry::record(m_admission_wait_,
                            static_cast<std::uint64_t>(
                                sim.now() - s->release[ev.task]));
        ++s->cursor;
        ++s->outstanding;
        for (const auto& prm : task.params)
          if (is_write(prm.dir)) s->last_writer[prm.addr] = task.id;
        const Tick cont = resume + config_.master_event_cost + config_.host_message_cost;
        if (cont > sim.now()) {
          occupy_port(sim, p, cont);
          return;
        }
        break;  // zero-cost: continue inline
      }
      case TraceOp::kTaskwait:
        ++s->cursor;
        if (s->outstanding > 0)
          s->state = StreamState::kBlockedOnBarrier;  // resumed by on_notify
        break;
      case TraceOp::kTaskwaitOn: {
        ++s->cursor;
        if (!manager_.supports_taskwait_on()) {
          // Fallback used for Nexus++ (Section III): treat as full barrier.
          if (s->outstanding > 0) s->state = StreamState::kBlockedOnBarrier;
          break;
        }
        const auto it = s->last_writer.find((ev.addr + s->offset) & kAddrMask);
        if (it != s->last_writer.end() && !finished_[it->second]) {
          s->state = StreamState::kBlockedOnTask;  // resumed by on_notify
          s->wait_task = it->second;
          break;
        }
        const Tick query = manager_.taskwait_on_query_cost() + config_.host_message_cost;
        if (query > 0) {
          occupy_port(sim, p, sim.now() + query);
          return;
        }
        break;
      }
    }
  }
}

void Driver::task_ready(Simulation& sim, TaskId id) {
  NEXUS_DCHECK(id < total_tasks_);
  ready_queue_.push_back(id);
  telemetry::record(m_ready_depth_, ready_queue_.size());
  if (config_.metrics != nullptr) ready_t_[id] = sim.now();
  if (config_.trace != nullptr) {
    config_.trace->on_ready(id, sim.now());
    config_.trace->counter("runtime/ready_q", sim.now(),
                           static_cast<std::int64_t>(ready_queue_.size()));
  }
  try_dispatch(sim);
}

void Driver::master_resume(Simulation& sim) {
  // The manager freed space: clear every hold and re-step the ports that
  // were held. An arrival port is always re-stepped, since arrivals that
  // came in while it was held wait for it.
  for (std::uint32_t p = 0; p < ports_.size(); ++p) {
    Port& port = ports_[p];
    bool held = port.blocked || options_.arrival_events;
    port.blocked = false;
    for (std::uint32_t i = port.first; i < port.end; ++i) {
      held |= streams_[i].held;
      streams_[i].held = false;
    }
    if (held) step(sim, p);
  }
}

void Driver::try_dispatch(Simulation& sim) {
  telemetry::ProfScope prof_scope(prof_, prof_dispatch_);
  while (workers_.any_free() && !ready_queue_.empty()) {
    const TaskId id = ready_queue_.front();
    ready_queue_.pop_front();
    const std::uint32_t w = workers_.claim();
    // dispatch_time models the scheduler critical section (software) or the
    // ready-queue fetch (hardware); the worker is reserved from now.
    const Tick start =
        manager_.dispatch_time(sim) + config_.host_message_cost;
    NEXUS_ASSERT(start >= sim.now());
    telemetry::inc(m_dispatches_);
    if (config_.metrics != nullptr && ready_t_[id] >= 0)
      telemetry::record(m_queue_wait_,
                        static_cast<std::uint64_t>(sim.now() - ready_t_[id]));
    if (config_.trace != nullptr) {
      config_.trace->on_dispatch(id, sim.now(),
                                 static_cast<std::int32_t>(w));
      config_.trace->counter("runtime/ready_q", sim.now(),
                             static_cast<std::int64_t>(ready_queue_.size()));
    }
    if (host_net_ != nullptr) {
      // The dispatch record additionally crosses the host NoC from the
      // manager tile to the claimed core (task id + function pointer, one
      // parameter-sized payload); execution starts on arrival.
      host_net_->send(sim, start, 0, 1 + w, self_, kDispatchArrived, w, id,
                      noc::kParamBytes);
    } else {
      begin_task(sim, w, id, start);
    }
  }
}

void Driver::begin_task(Simulation& sim, std::uint32_t worker, TaskId id,
                        Tick start) {
  const Tick end = start + task(id).duration;
  workers_.occupy(worker, sim.now(), end);
  if (config_.schedule_out != nullptr)
    config_.schedule_out->push_back(ScheduleEntry{id, worker, start, end});
  if (config_.trace != nullptr) config_.trace->on_exec(id, start, end);
  sim.schedule(end, self_, kTaskDone, worker, id);
}

void Driver::on_task_done(Simulation& sim, std::uint32_t worker, TaskId id) {
  last_activity_ = sim.now();
  stream_of(id).last = sim.now();
  if (host_net_ != nullptr) {
    // The finish notification crosses the host NoC back to the manager
    // tile; the worker stays reserved until the manager accepts it.
    host_net_->send(sim, sim.now(), 1 + worker, 0, self_, kNotifyArrived,
                    worker, id);
    return;
  }
  on_notify(sim, worker, id);
}

void Driver::on_notify(Simulation& sim, std::uint32_t worker, TaskId id) {
  telemetry::ProfScope prof_scope(prof_, prof_notify_);
  NEXUS_ASSERT(!finished_[id]);
  finished_[id] = true;
  ++finished_count_;
  Stream& s = stream_of(id);
  NEXUS_ASSERT(s.outstanding > 0);
  --s.outstanding;

  // The completion path (software: completion critical section on this
  // worker; hardware: finish notification write) holds the worker until
  // `free_at`.
  const Tick free_at = manager_.notify_finished(sim, id) + config_.host_message_cost;
  NEXUS_ASSERT(free_at >= sim.now());
  if (config_.trace != nullptr) config_.trace->on_freed(id, free_at);
  if (config_.metrics != nullptr && submit_t_[id] >= 0)
    telemetry::record(m_sojourn_,
                      static_cast<std::uint64_t>(sim.now() - submit_t_[id]));
  if (s.release != nullptr) {
    // Serving latency counts from the *arrival*, not the (possibly
    // backlogged) submit attempt — the open-loop tail the knee search gates.
    const Tick lat = sim.now() - s.release[id - s.base];
    telemetry::record(m_serving_, static_cast<std::uint64_t>(lat));
    if (!m_client_sojourn_.empty())
      m_client_sojourn_[config_.open_loop->client[id]]->record(
          static_cast<std::uint64_t>(lat));
    if (options_.arrival_events) s.raw.push_back(lat);
  }
  if (free_at == sim.now()) {
    workers_.release(worker);
    try_dispatch(sim);
  } else {
    sim.schedule(free_at, self_, kWorkerFree, worker);
  }

  finish_barrier_checks(sim, s);
}

void Driver::finish_barrier_checks(Simulation& sim, Stream& s) {
  if (s.state == StreamState::kBlockedOnBarrier && s.outstanding == 0) {
    s.state = StreamState::kRunning;
    step(sim, s.port);
  } else if (s.state == StreamState::kBlockedOnTask &&
             finished_[s.wait_task]) {
    s.wait_task = kInvalidTask;
    s.state = StreamState::kRunning;
    const Tick query = manager_.taskwait_on_query_cost() + config_.host_message_cost;
    if (query > 0) {
      occupy_port(sim, s.port, sim.now() + query);
    } else {
      step(sim, s.port);
    }
  }
}

}  // namespace detail
}  // namespace nexus

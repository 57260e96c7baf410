#include "nexus/depgraph/dependency_tracker.hpp"

namespace nexus {

DependencyTracker::TaskState& DependencyTracker::state(TaskId id) {
  if (id >= tasks_.size()) tasks_.resize(id + 1);
  return tasks_[id];
}

const DependencyTracker::TaskState* DependencyTracker::find_state(TaskId id) const {
  return id < tasks_.size() ? &tasks_[id] : nullptr;
}

std::size_t DependencyTracker::submit(const TaskDescriptor& task) {
  NEXUS_ASSERT_MSG(validate_task(task), "invalid task submitted to tracker");
  TaskState& ts = state(task.id);
  NEXUS_ASSERT_MSG(ts.phase == Phase::kUnsubmitted, "task submitted twice");
  ts.phase = Phase::kInFlight;
  ++in_flight_;

  std::uint32_t blocked = 0;
  std::uint32_t prev = kNil;
  for (const auto& p : task.params) {
    const std::uint32_t a = accesses_.take(Access{p.addr, task.id});
    if (prev == kNil) {
      ts.first_access = a;
    } else {
      accesses_[prev].next_access = a;
    }
    prev = a;

    AddrState& as = addr_state_[p.addr];
    const bool busy = as.head != kNil;
    const bool write = is_write(p.dir);
    if (!write && busy && !groups_[as.tail].is_writer) {
      // Join the youngest reader group: readable at once if it is the
      // running (head) group, else it waits with that group.
      Group& g = groups_[as.tail];
      accesses_[g.last].next = a;
      accesses_[a].prev = g.last;
      g.last = a;
      if (as.tail != as.head) ++blocked;
    } else {
      if (write) as.last_writer = task.id;
      const std::uint32_t g = groups_.take(Group{a, a, kNil, write});
      if (busy) {
        groups_[as.tail].next = g;
        ++blocked;
      } else {
        as.head = g;
      }
      as.tail = g;
    }
  }
  ts.deps = blocked;
  return blocked;
}

void DependencyTracker::finish(TaskId id, std::vector<TaskId>* newly_ready) {
  NEXUS_ASSERT(newly_ready != nullptr);
  TaskState& ts = state(id);
  NEXUS_ASSERT_MSG(ts.phase == Phase::kInFlight, "finish of non-running task");
  NEXUS_ASSERT_MSG(ts.deps == 0, "finish of task that was never ready");
  ts.phase = Phase::kFinished;
  --in_flight_;

  for (std::uint32_t a = ts.first_access; a != kNil;) {
    const Access acc = accesses_[a];
    const auto it = addr_state_.find(acc.addr);
    NEXUS_ASSERT_MSG(it != addr_state_.end(), "finish for untracked address");
    AddrState& as = it->second;
    NEXUS_ASSERT_MSG(as.head != kNil, "finish with empty access queue");
    Group& head = groups_[as.head];
    // Invariant: a running task's accesses are always in the head group.
    NEXUS_DCHECK([&] {
      for (std::uint32_t m = head.first; m != kNil; m = accesses_[m].next)
        if (m == a) return true;
      return false;
    }());
    // Leave the group; its remaining members keep their order.
    (acc.prev == kNil ? head.first : accesses_[acc.prev].next) = acc.next;
    (acc.next == kNil ? head.last : accesses_[acc.next].prev) = acc.prev;
    accesses_.give(a);
    if (head.first == kNil) {
      const std::uint32_t done = as.head;
      as.head = head.next;
      groups_.give(done);
      if (as.head == kNil) {
        // Fully drained: drop the tracking state (mirrors the hardware
        // deleting a task-graph entry whose kick-off list emptied).
        addr_state_.erase(it);
      } else {
        // Kick off the next access group: every member loses one dependence.
        for (std::uint32_t m = groups_[as.head].first; m != kNil;
             m = accesses_[m].next) {
          const TaskId t = accesses_[m].task;
          NEXUS_ASSERT(tasks_[t].deps > 0);
          if (--tasks_[t].deps == 0) newly_ready->push_back(t);
        }
      }
    }
    a = acc.next_access;
  }
  ts.first_access = kNil;
}

std::size_t DependencyTracker::dep_count(TaskId id) const {
  const TaskState* ts = find_state(id);
  NEXUS_ASSERT_MSG(ts != nullptr && ts->phase != Phase::kUnsubmitted,
                   "dep_count of unknown task");
  return ts->deps;
}

bool DependencyTracker::is_finished(TaskId id) const {
  const TaskState* ts = find_state(id);
  return ts != nullptr && ts->phase == Phase::kFinished;
}

std::optional<TaskId> DependencyTracker::pending_writer(Addr addr) const {
  const auto it = addr_state_.find(addr);
  if (it == addr_state_.end()) return std::nullopt;
  const TaskId w = it->second.last_writer;
  if (w == kInvalidTask) return std::nullopt;
  const TaskState* ts = find_state(w);
  if (ts == nullptr || ts->phase == Phase::kFinished) return std::nullopt;
  return w;
}

}  // namespace nexus

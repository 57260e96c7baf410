// Test-only reference dependency tracker: the original deque-of-groups
// implementation of DependencyTracker, kept as a differential oracle. It
// holds a std::deque<Group> per address, a heap vector per group and a
// parameter-list copy per task ever submitted — simple to read, and the
// pooled library tracker must reproduce its `newly_ready` order exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/task/task.hpp"

namespace nexus::testing {

class ReferenceTracker {
 public:
  std::size_t submit(const TaskDescriptor& task) {
    NEXUS_ASSERT_MSG(validate_task(task), "invalid task submitted to tracker");
    TaskState& ts = state(task.id);
    NEXUS_ASSERT_MSG(!ts.submitted, "task submitted twice");
    ts.submitted = true;
    ts.params = task.params;
    ++in_flight_;

    std::uint32_t blocked = 0;
    for (const auto& p : task.params) {
      AddrState& as = addr_state_[p.addr];
      if (is_write(p.dir)) {
        as.last_writer = task.id;
        const bool runs_now = as.groups.empty();
        as.groups.push_back(Group{true, {task.id}, 1});
        if (!runs_now) ++blocked;
      } else if (as.groups.empty()) {
        as.groups.push_back(Group{false, {task.id}, 1});
      } else if (as.groups.size() == 1 && !as.groups.front().is_writer) {
        // Join the currently-running reader group: readable immediately.
        as.groups.front().members.push_back(task.id);
        ++as.groups.front().unfinished;
      } else if (!as.groups.back().is_writer) {
        // Join the youngest waiting reader group.
        as.groups.back().members.push_back(task.id);
        ++as.groups.back().unfinished;
        ++blocked;
      } else {
        as.groups.push_back(Group{false, {task.id}, 1});
        ++blocked;
      }
    }
    ts.deps = blocked;
    return blocked;
  }

  void finish(TaskId id, std::vector<TaskId>* newly_ready) {
    TaskState& ts = state(id);
    NEXUS_ASSERT_MSG(ts.submitted && !ts.finished, "finish of non-running task");
    NEXUS_ASSERT_MSG(ts.deps == 0, "finish of task that was never ready");
    ts.finished = true;
    --in_flight_;
    for (const auto& p : ts.params) {
      const auto it = addr_state_.find(p.addr);
      NEXUS_ASSERT(it != addr_state_.end());
      AddrState& as = it->second;
      Group& head = as.groups.front();
      NEXUS_ASSERT(head.unfinished > 0);
      if (--head.unfinished == 0) {
        as.groups.pop_front();
        if (as.groups.empty()) {
          addr_state_.erase(it);
        } else {
          for (const TaskId m : as.groups.front().members) {
            TaskState& ms = state(m);
            NEXUS_ASSERT(ms.deps > 0);
            if (--ms.deps == 0) newly_ready->push_back(m);
          }
        }
      }
    }
    ts.params.clear();
  }

  [[nodiscard]] std::size_t dep_count(TaskId id) const { return tasks_.at(id).deps; }

  [[nodiscard]] bool is_finished(TaskId id) const {
    return id < tasks_.size() && tasks_[id].finished;
  }

  [[nodiscard]] std::optional<TaskId> pending_writer(Addr addr) const {
    const auto it = addr_state_.find(addr);
    if (it == addr_state_.end()) return std::nullopt;
    const TaskId w = it->second.last_writer;
    if (w == kInvalidTask || is_finished(w)) return std::nullopt;
    return w;
  }

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t live_addresses() const { return addr_state_.size(); }

 private:
  struct Group {
    bool is_writer = false;
    std::vector<TaskId> members;
    std::uint32_t unfinished = 0;
  };

  struct AddrState {
    std::deque<Group> groups;  ///< front = currently running group
    TaskId last_writer = kInvalidTask;
  };

  struct TaskState {
    std::uint32_t deps = 0;
    bool submitted = false;
    bool finished = false;
    ParamList params;
  };

  TaskState& state(TaskId id) {
    if (id >= tasks_.size()) tasks_.resize(id + 1);
    return tasks_[id];
  }

  std::unordered_map<Addr, AddrState> addr_state_;
  std::vector<TaskState> tasks_;
  std::size_t in_flight_ = 0;
};

}  // namespace nexus::testing

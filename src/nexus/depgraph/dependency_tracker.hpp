// Golden (software) dependency tracker.
//
// This is the functional specification of what every task manager in this
// repository must compute: StarSs/OmpSs data-dependency semantics over the
// tasks' declared memory footprints.
//
// Per address we keep an ordered queue of *access groups*. A group is either
// one writer (out/inout) or a set of concurrent readers (in). The head group
// is the set of accessors currently allowed to touch the address; later
// groups wait. This encodes RAW, WAR and WAW ordering while letting
// consecutive readers run concurrently — exactly the "Kick-Off List"
// behaviour of the Nexus designs, without any capacity limit.
//
// Only in-flight state is held. Each declared access of a submitted task is
// one pooled `Access` node: a member of one access group (doubly linked, so
// a finishing reader leaves a long-lived reader group at once) and chained
// to the task's next access, so finish() walks the task's addresses without
// a copy of its parameter list. Groups are pooled too and linked per
// address as a FIFO. Both pools recycle freed nodes through free lists, so a
// long stream with a bounded window reaches a steady state with no
// allocation beyond the per-address map entries; the dense per-task array
// keeps ~12 B per task id.
//
// The hardware models (Nexus++/Nexus#) implement the same semantics with
// bounded structures and cycle costs; unit tests check them against this
// tracker on randomized workloads.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nexus/task/task.hpp"

namespace nexus {

class DependencyTracker {
 public:
  /// Register a submitted task. Returns the number of its parameters that
  /// must wait for earlier accessors; 0 means the task is immediately ready.
  std::size_t submit(const TaskDescriptor& task);

  /// Mark a task finished. Appends newly-ready task ids to *newly_ready.
  /// The task must have been submitted, ready and not yet finished.
  void finish(TaskId id, std::vector<TaskId>* newly_ready);

  /// Remaining blocked parameters of a pending task (0 = ready).
  [[nodiscard]] std::size_t dep_count(TaskId id) const;

  [[nodiscard]] bool is_ready(TaskId id) const { return dep_count(id) == 0; }
  [[nodiscard]] bool is_finished(TaskId id) const;

  /// The as-yet-unfinished task that most recently wrote `addr`, if any.
  /// This is the task a `taskwait on(addr)` must wait for.
  [[nodiscard]] std::optional<TaskId> pending_writer(Addr addr) const;

  /// Number of submitted-but-unfinished tasks.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// Number of addresses with live tracking state (tests/capacity studies).
  [[nodiscard]] std::size_t live_addresses() const { return addr_state_.size(); }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  /// One declared access of an in-flight task.
  struct Access {
    Addr addr = 0;
    TaskId task = kInvalidTask;
    std::uint32_t next = kNil;         ///< next member of its group
    std::uint32_t prev = kNil;         ///< previous member of its group
    std::uint32_t next_access = kNil;  ///< the same task's next access
  };

  /// The unfinished members of one access group, oldest first. Writer
  /// groups have exactly one member; reader groups one or more.
  struct Group {
    std::uint32_t first = kNil;  ///< first member (an Access index)
    std::uint32_t last = kNil;   ///< last member
    std::uint32_t next = kNil;   ///< next (younger) group on the address
    bool is_writer = false;
  };

  /// Vector-backed node pool; freed nodes are chained through T::next and
  /// reused before the vector grows.
  template <typename T>
  struct Pool {
    std::vector<T> nodes;
    std::uint32_t free_head = kNil;

    std::uint32_t take(const T& v) {
      if (free_head == kNil) {
        nodes.push_back(v);
        return static_cast<std::uint32_t>(nodes.size() - 1);
      }
      const std::uint32_t i = free_head;
      free_head = nodes[i].next;
      nodes[i] = v;
      return i;
    }
    void give(std::uint32_t i) {
      nodes[i].next = free_head;
      free_head = i;
    }
    T& operator[](std::uint32_t i) { return nodes[i]; }
  };

  struct AddrState {
    std::uint32_t head = kNil;          ///< currently running group
    std::uint32_t tail = kNil;          ///< youngest group
    TaskId last_writer = kInvalidTask;  ///< most recent writer (any state)
  };

  enum class Phase : std::uint8_t { kUnsubmitted, kInFlight, kFinished };

  struct TaskState {
    std::uint32_t deps = 0;
    std::uint32_t first_access = kNil;  ///< while in flight
    Phase phase = Phase::kUnsubmitted;
  };

  TaskState& state(TaskId id);
  [[nodiscard]] const TaskState* find_state(TaskId id) const;

  std::unordered_map<Addr, AddrState> addr_state_;
  Pool<Group> groups_;
  Pool<Access> accesses_;
  std::vector<TaskState> tasks_;  ///< indexed by TaskId (ids are dense)
  std::size_t in_flight_ = 0;
};

}  // namespace nexus

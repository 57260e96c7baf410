#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "nexus/common/rng.hpp"
#include "nexus/depgraph/dependency_tracker.hpp"
#include "nexus/workloads/workloads.hpp"
#include "reference_tracker.hpp"

namespace nexus {
namespace {

TaskDescriptor make_task(TaskId id, std::initializer_list<Param> ps) {
  TaskDescriptor t;
  t.id = id;
  t.fn = 0;
  t.duration = us(1);
  for (const auto& p : ps) t.params.push_back(p);
  return t;
}

// ---------- basic hazard ordering ----------

TEST(DependencyTracker, RawDependency) {
  DependencyTracker dt;
  EXPECT_EQ(dt.submit(make_task(0, {{0x10, Dir::kOut}})), 0u);        // writer runs
  EXPECT_EQ(dt.submit(make_task(1, {{0x10, Dir::kIn}})), 1u);         // reader waits
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{1}));
}

TEST(DependencyTracker, WawDependency) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kOut}}));
  EXPECT_EQ(dt.submit(make_task(1, {{0x10, Dir::kOut}})), 1u);
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{1}));
}

TEST(DependencyTracker, WarDependency) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kIn}}));   // reader on fresh address runs
  EXPECT_EQ(dt.submit(make_task(1, {{0x10, Dir::kOut}})), 1u);  // writer waits
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{1}));
}

TEST(DependencyTracker, ConcurrentReadersShareHeadGroup) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kOut}}));
  EXPECT_EQ(dt.submit(make_task(1, {{0x10, Dir::kIn}})), 1u);
  EXPECT_EQ(dt.submit(make_task(2, {{0x10, Dir::kIn}})), 1u);
  EXPECT_EQ(dt.submit(make_task(3, {{0x10, Dir::kIn}})), 1u);
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  // All three readers kick off at once.
  std::sort(ready.begin(), ready.end());
  EXPECT_EQ(ready, (std::vector<TaskId>{1, 2, 3}));
}

TEST(DependencyTracker, ReadersOnFreshAddressRunImmediately) {
  DependencyTracker dt;
  EXPECT_EQ(dt.submit(make_task(0, {{0x10, Dir::kIn}})), 0u);
  EXPECT_EQ(dt.submit(make_task(1, {{0x10, Dir::kIn}})), 0u);  // joins running group
}

TEST(DependencyTracker, WriterWaitsForWholeReaderGroup) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kIn}}));
  dt.submit(make_task(1, {{0x10, Dir::kIn}}));
  EXPECT_EQ(dt.submit(make_task(2, {{0x10, Dir::kOut}})), 1u);
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_TRUE(ready.empty());  // one reader still running
  dt.finish(1, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{2}));
}

TEST(DependencyTracker, ReaderAfterQueuedWriterWaits) {
  // r0 running; w1 queued; r2 must NOT join r0's group (it would read
  // pre-w1 data) — it queues behind w1.
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kIn}}));
  dt.submit(make_task(1, {{0x10, Dir::kOut}}));
  EXPECT_EQ(dt.submit(make_task(2, {{0x10, Dir::kIn}})), 1u);
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{1}));
  ready.clear();
  dt.finish(1, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{2}));
}

TEST(DependencyTracker, QueuedReadersCoalesceIntoOneGroup) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kOut}}));
  dt.submit(make_task(1, {{0x10, Dir::kIn}}));
  dt.submit(make_task(2, {{0x10, Dir::kIn}}));
  dt.submit(make_task(3, {{0x10, Dir::kOut}}));
  dt.submit(make_task(4, {{0x10, Dir::kIn}}));  // separate group after writer 3
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  std::sort(ready.begin(), ready.end());
  EXPECT_EQ(ready, (std::vector<TaskId>{1, 2}));
  ready.clear();
  dt.finish(1, &ready);
  EXPECT_TRUE(ready.empty());
  dt.finish(2, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{3}));
  ready.clear();
  dt.finish(3, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{4}));
}

TEST(DependencyTracker, MultiParamTaskReadyOnlyWhenAllParamsClear) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kOut}}));
  dt.submit(make_task(1, {{0x20, Dir::kOut}}));
  EXPECT_EQ(dt.submit(make_task(2, {{0x10, Dir::kIn}, {0x20, Dir::kIn}})), 2u);
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(dt.dep_count(2), 1u);
  dt.finish(1, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{2}));
}

TEST(DependencyTracker, InoutBehavesAsReadAndWrite) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kInOut}}));
  EXPECT_EQ(dt.submit(make_task(1, {{0x10, Dir::kInOut}})), 1u);
  EXPECT_EQ(dt.submit(make_task(2, {{0x10, Dir::kInOut}})), 1u);
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{1}));  // strict chain
}

// ---------- pending_writer / taskwait_on support ----------

TEST(DependencyTracker, PendingWriterTracksLatestUnfinished) {
  DependencyTracker dt;
  EXPECT_EQ(dt.pending_writer(0x10), std::nullopt);
  dt.submit(make_task(0, {{0x10, Dir::kOut}}));
  EXPECT_EQ(dt.pending_writer(0x10), std::optional<TaskId>(0));
  dt.submit(make_task(1, {{0x10, Dir::kOut}}));
  EXPECT_EQ(dt.pending_writer(0x10), std::optional<TaskId>(1));
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_EQ(dt.pending_writer(0x10), std::optional<TaskId>(1));
  dt.finish(1, &ready);
  EXPECT_EQ(dt.pending_writer(0x10), std::nullopt);
}

TEST(DependencyTracker, PendingWriterIgnoresRunningReaders) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kOut}}));
  dt.submit(make_task(1, {{0x10, Dir::kIn}}));
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  // Data is produced even though a reader is still using it.
  EXPECT_EQ(dt.pending_writer(0x10), std::nullopt);
}

// ---------- lifecycle / bookkeeping ----------

TEST(DependencyTracker, StateDrainsToEmpty) {
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x10, Dir::kOut}}));
  dt.submit(make_task(1, {{0x10, Dir::kIn}, {0x20, Dir::kOut}}));
  EXPECT_EQ(dt.in_flight(), 2u);
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  dt.finish(1, &ready);
  EXPECT_EQ(dt.in_flight(), 0u);
  EXPECT_EQ(dt.live_addresses(), 0u);  // all entries reclaimed
  EXPECT_TRUE(dt.is_finished(0));
  EXPECT_TRUE(dt.is_finished(1));
}

TEST(DependencyTracker, GaussianFanoutPattern) {
  // The Fig. 6 / Section VI pattern: one pivot row read by N eliminations.
  constexpr int kN = 249;
  DependencyTracker dt;
  dt.submit(make_task(0, {{0x1000, Dir::kInOut}}));  // pivot task T1
  for (TaskId j = 1; j <= kN; ++j) {
    const Addr row = 0x2000 + j * 0x40;
    EXPECT_EQ(dt.submit(make_task(j, {{0x1000, Dir::kIn}, {row, Dir::kInOut}})), 1u);
  }
  std::vector<TaskId> ready;
  dt.finish(0, &ready);
  EXPECT_EQ(ready.size(), static_cast<std::size_t>(kN));  // all kick off at once
}

// ---------- randomized property test ----------
//
// Build random task streams over a small address pool, execute with a random
// (but legal) schedule, and check the fundamental safety property: no two
// concurrent tasks conflict (write/write or read/write on a shared address),
// and the whole stream always drains (liveness).

struct RandomStreamParams {
  int n_tasks;
  int n_addrs;
  int max_params;
  std::uint64_t seed;
};

class DepTrackerPropertyTest : public ::testing::TestWithParam<RandomStreamParams> {};

TEST_P(DepTrackerPropertyTest, SafetyAndLiveness) {
  const auto p = GetParam();
  Xoshiro256 rng(p.seed);

  std::vector<TaskDescriptor> tasks;
  for (int i = 0; i < p.n_tasks; ++i) {
    TaskDescriptor t;
    t.id = static_cast<TaskId>(i);
    t.duration = us(1);
    // A task cannot name more distinct addresses than the pool holds.
    const int param_cap = std::min(p.max_params, p.n_addrs);
    const int np = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(param_cap)));
    std::set<Addr> used;
    for (int k = 0; k < np; ++k) {
      Addr a = 0;
      do {
        a = 0x1000 + rng.below(static_cast<std::uint64_t>(p.n_addrs)) * 0x40;
      } while (used.count(a) > 0);
      used.insert(a);
      const auto dir = static_cast<Dir>(rng.below(3));
      t.params.push_back({a, dir});
    }
    tasks.push_back(t);
  }

  DependencyTracker dt;
  std::vector<TaskId> running;
  std::vector<TaskId> ready_pool;
  std::size_t submitted = 0;
  std::size_t finished = 0;

  auto conflict = [&](const TaskDescriptor& a, const TaskDescriptor& b) {
    for (const auto& pa : a.params)
      for (const auto& pb : b.params)
        if (pa.addr == pb.addr && (is_write(pa.dir) || is_write(pb.dir))) return true;
    return false;
  };

  while (finished < tasks.size()) {
    const bool can_submit = submitted < tasks.size();
    const bool can_finish = !running.empty();
    const bool can_start = !ready_pool.empty();
    const auto choice = rng.below(3);
    if (choice == 0 && can_submit) {
      if (dt.submit(tasks[submitted]) == 0) ready_pool.push_back(tasks[submitted].id);
      ++submitted;
    } else if ((choice == 1 && can_start) || (!can_submit && !can_finish && can_start)) {
      const auto idx = rng.below(ready_pool.size());
      const TaskId id = ready_pool[idx];
      ready_pool.erase(ready_pool.begin() + static_cast<std::ptrdiff_t>(idx));
      // Safety: the newly running task must not conflict with anything running.
      for (const TaskId r : running)
        ASSERT_FALSE(conflict(tasks[id], tasks[r]))
            << "conflicting tasks " << id << " and " << r << " ran concurrently";
      running.push_back(id);
    } else if (can_finish) {
      const auto idx = rng.below(running.size());
      const TaskId id = running[idx];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(idx));
      std::vector<TaskId> newly;
      dt.finish(id, &newly);
      ++finished;
      for (const TaskId n : newly) ready_pool.push_back(n);
    } else if (can_submit) {
      if (dt.submit(tasks[submitted]) == 0) ready_pool.push_back(tasks[submitted].id);
      ++submitted;
    }
  }
  EXPECT_EQ(dt.in_flight(), 0u);
  EXPECT_EQ(dt.live_addresses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreams, DepTrackerPropertyTest,
    ::testing::Values(RandomStreamParams{200, 4, 3, 1},
                      RandomStreamParams{200, 2, 2, 2},
                      RandomStreamParams{500, 8, 4, 3},
                      RandomStreamParams{500, 16, 6, 4},
                      RandomStreamParams{1000, 3, 3, 5},
                      RandomStreamParams{1000, 32, 6, 6},
                      RandomStreamParams{2000, 1, 2, 7},   // single hot address
                      RandomStreamParams{300, 64, 1, 8}),  // independent-ish
    [](const ::testing::TestParamInfo<RandomStreamParams>& pi) {
      return std::string("n")
          .append(std::to_string(pi.param.n_tasks))
          .append("_a")
          .append(std::to_string(pi.param.n_addrs))
          .append("_p")
          .append(std::to_string(pi.param.max_params))
          .append("_s")
          .append(std::to_string(pi.param.seed));
    });

// ---------- differential tests against the reference tracker ----------
//
// The pooled tracker must reproduce the original deque-based tracker
// (tests/reference_tracker.hpp) call for call: the same blocked count at
// every submit, the same newly-ready ids in the same order at every finish,
// and the same pending writers, in-flight and live-address counts between
// calls.

/// Drives both trackers over one task stream: tasks are submitted in order
/// with at most `window` in flight, and a randomly chosen ready task is
/// finished whenever the window is full, the stream is exhausted, or the
/// coin says so. The oldest in-flight task is always ready, so this never
/// stalls.
void run_lockstep(const std::vector<TaskDescriptor>& tasks, std::size_t window,
                  std::uint64_t seed) {
  DependencyTracker dut;
  testing::ReferenceTracker ref;
  Xoshiro256 rng(seed);
  std::vector<TaskId> ready;
  std::size_t next = 0;
  std::size_t finished = 0;
  std::vector<TaskId> got;
  std::vector<TaskId> want;
  const auto expect_same_addrs = [&](const TaskDescriptor& t) {
    for (const auto& p : t.params)
      ASSERT_EQ(dut.pending_writer(p.addr), ref.pending_writer(p.addr))
          << "pending writer of " << p.addr << " after task " << t.id;
    ASSERT_EQ(dut.in_flight(), ref.in_flight());
    ASSERT_EQ(dut.live_addresses(), ref.live_addresses());
  };
  while (finished < tasks.size()) {
    const bool can_submit = next < tasks.size() && dut.in_flight() < window;
    if (can_submit && (ready.empty() || rng.below(2) == 0)) {
      const TaskDescriptor& t = tasks[next++];
      const std::size_t blocked = dut.submit(t);
      ASSERT_EQ(blocked, ref.submit(t)) << "blocked count of task " << t.id;
      ASSERT_EQ(dut.dep_count(t.id), blocked);
      if (blocked == 0) ready.push_back(t.id);
      expect_same_addrs(t);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      ASSERT_FALSE(ready.empty()) << "stream stalled with " << dut.in_flight()
                                  << " tasks in flight";
      const std::size_t k = rng.below(ready.size());
      const TaskId id = ready[k];
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
      got.clear();
      want.clear();
      dut.finish(id, &got);
      ref.finish(id, &want);
      ASSERT_EQ(got, want) << "newly ready after finishing task " << id;
      ASSERT_TRUE(dut.is_finished(id));
      ready.insert(ready.end(), got.begin(), got.end());
      ++finished;
      expect_same_addrs(tasks[id]);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(dut.in_flight(), 0u);
  EXPECT_EQ(dut.live_addresses(), 0u);
}

/// Random task stream over `n_addrs` addresses (distinct within a task).
std::vector<TaskDescriptor> random_stream(int n_tasks, int n_addrs, int max_params,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<TaskDescriptor> tasks;
  const int param_cap = std::min(max_params, n_addrs);
  for (int i = 0; i < n_tasks; ++i) {
    TaskDescriptor t;
    t.id = static_cast<TaskId>(i);
    t.duration = us(1);
    const int np = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(param_cap)));
    std::set<Addr> used;
    while (static_cast<int>(t.params.size()) < np) {
      const Addr a = 0x1000 + rng.below(static_cast<std::uint64_t>(n_addrs)) * 0x40;
      if (!used.insert(a).second) continue;
      t.params.push_back({a, static_cast<Dir>(rng.below(3))});
    }
    tasks.push_back(t);
  }
  return tasks;
}

TEST(DependencyTrackerDiff, RandomizedStreamsMatchReference) {
  struct Case {
    int tasks, addrs, params;
    std::size_t window;
  };
  const Case cases[] = {{3000, 1, 1, 64},   {3000, 2, 2, 8},    {5000, 4, 3, 32},
                        {5000, 16, 6, 128}, {5000, 64, 6, 512}, {2000, 3, 3, 2000},
                        {4000, 256, 2, 16}, {4000, 8, 6, 1}};
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.tasks << " tasks, " << c.addrs
                                      << " addrs, " << c.params << " params, window "
                                      << c.window);
    run_lockstep(random_stream(c.tasks, c.addrs, c.params, seed), c.window, seed);
    ++seed;
  }
}

class DependencyTrackerWorkloadDiff : public ::testing::TestWithParam<std::string> {};

TEST_P(DependencyTrackerWorkloadDiff, MatchesReference) {
  const Trace tr = workloads::make_workload(GetParam());
  run_lockstep(tr.tasks(), 256, 7);
}

/// Every registry workload except gaussian-3000, whose ~4.5M tasks would
/// hold ~0.5 GB in the reference tracker alone; gaussian-1000 covers the
/// same structure.
std::vector<std::string> diff_workloads() {
  std::vector<std::string> names = workloads::workload_names();
  std::erase(names, "gaussian-3000");
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    RegistryWorkloads, DependencyTrackerWorkloadDiff,
    ::testing::ValuesIn(diff_workloads()),
    [](const ::testing::TestParamInfo<std::string>& pi) {
      std::string name = pi.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------- reclamation ----------

TEST(DependencyTracker, RollingWindowKeepsStateBounded) {
  // A long stream through a 32-task window: each task reads a hot
  // address that is never written (one reader group that never drains),
  // updates its own fresh address and reads its predecessor's. Live state
  // must follow the window, not the stream, and drain to zero.
  constexpr TaskId kTasks = 200000;
  constexpr std::size_t kWindow = 32;
  DependencyTracker dt;
  std::deque<TaskId> running;
  std::vector<TaskId> ready;
  std::size_t peak_live = 0;
  for (TaskId i = 0; i < kTasks; ++i) {
    TaskDescriptor t = make_task(i, {{0x10, Dir::kIn}, {0x1000 + 0x40 * Addr{i}, Dir::kOut}});
    if (i > 0) t.params.push_back({0x1000 + 0x40 * Addr{i - 1}, Dir::kIn});
    if (dt.submit(t) == 0) running.push_back(i);
    while (dt.in_flight() >= kWindow) {
      ASSERT_FALSE(running.empty());
      ready.clear();
      dt.finish(running.front(), &ready);
      running.pop_front();
      running.insert(running.end(), ready.begin(), ready.end());
    }
    peak_live = std::max(peak_live, dt.live_addresses());
  }
  while (!running.empty()) {
    ready.clear();
    dt.finish(running.front(), &ready);
    running.pop_front();
    running.insert(running.end(), ready.begin(), ready.end());
  }
  EXPECT_LE(peak_live, 2 * kWindow + 1);
  EXPECT_EQ(dt.in_flight(), 0u);
  EXPECT_EQ(dt.live_addresses(), 0u);
  EXPECT_TRUE(dt.is_finished(kTasks - 1));
  EXPECT_EQ(dt.pending_writer(0x1000 + 0x40 * Addr{kTasks - 1}), std::nullopt);
}

}  // namespace
}  // namespace nexus

// Pending-event schedulers for the DES kernel.
//
// The kernel's contract is a *total* pop order: earliest time first, ties
// broken by issue sequence (Event::seq), so same-tick events pop in
// insertion order. Any structure that honours that order produces the same
// schedule bit for bit — which is what lets the queue implementation be
// swapped for speed without moving a single golden. Two implementations
// live behind the EventQueue facade:
//
//   kBinaryHeap — std::priority_queue, O(log n) per op. The original
//     kernel and the reference the differential tests compare against.
//   kCalendar — a calendar queue (Brown 1988, vector buckets): events hash
//     into time-width buckets by `(t >> width_shift) & mask`, the server
//     walks buckets window by window, and the structure resizes itself to
//     keep ~O(1) events per bucket. Amortised O(1) push/pop regardless of
//     the pending population, which is what million-event serving traces
//     are bound by.
//
// Bucket storage is slab-recycled through an EventArena: rotation, drain
// and resize return vectors to a free pool instead of the allocator, so a
// steady-state run stops allocating entirely after warm-up.
//
// CalendarQueue additionally relies on the kernel's monotonicity invariant
// (pushed times never precede the last popped time — Simulation asserts
// `t >= now()`), which lets served bucket prefixes be dropped lazily.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "nexus/sim/event.hpp"
#include "nexus/telemetry/fwd.hpp"

namespace nexus {

/// Which pending-event structure a Simulation drains.
enum class QueueKind : std::uint8_t {
  kBinaryHeap = 0,
  kCalendar = 1,
};

[[nodiscard]] const char* to_string(QueueKind k);

/// The process-wide default for newly constructed Simulations: the
/// NEXUS_SIM_QUEUE environment variable ("heap" / "calendar") when set,
/// else kCalendar. Reads the environment once; safe to call from several
/// threads at once.
[[nodiscard]] QueueKind default_queue_kind();

/// Override the default (tests sweep implementations through this; it also
/// wins over the environment variable). Affects Simulations constructed
/// *after* the call. The store itself is atomic, but which kind a
/// concurrently constructed Simulation picks is not defined: call it only
/// while no simulation is running (e.g. not during a parallel sweep).
void set_default_queue_kind(QueueKind k);

/// Slab pool for bucket storage: vectors are released with their capacity
/// intact and handed back out on demand, so bucket churn (drain, rotation,
/// resize) recycles memory instead of round-tripping the allocator.
class EventArena {
 public:
  /// An empty vector, with capacity when a recycled slab is available.
  [[nodiscard]] std::vector<Event> acquire() {
    if (free_.empty()) {
      ++allocs_;
      return {};
    }
    ++reuses_;
    std::vector<Event> v = std::move(free_.back());
    free_.pop_back();
    return v;
  }

  /// Return a slab to the pool (cleared, capacity kept).
  void release(std::vector<Event>&& v) {
    if (v.capacity() == 0) return;  // nothing worth pooling
    v.clear();
    free_.push_back(std::move(v));
    if (free_.size() > high_water_) high_water_ = free_.size();
  }

  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }
  /// Most slabs ever parked in the pool at once (memory footprint bound).
  [[nodiscard]] std::uint64_t high_water() const { return high_water_; }

 private:
  std::vector<std::vector<Event>> free_;
  std::uint64_t allocs_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t high_water_ = 0;
};

/// Calendar-queue scheduler with exact (t, seq) pop order.
class CalendarQueue {
 public:
  CalendarQueue();

  void push(const Event& ev);

  /// Pop the minimum (earliest t, lowest seq). Precondition: !empty().
  Event pop();

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  // --- introspection for the differential/stress tests and telemetry ---
  struct Stats {
    std::uint64_t grows = 0;      ///< bucket-array doublings
    std::uint64_t shrinks = 0;    ///< bucket-array halvings
    std::uint64_t sweeps = 0;     ///< full-rotation direct-search fallbacks
    std::uint64_t arena_allocs = 0;
    std::uint64_t arena_reuses = 0;
    std::uint64_t arena_high_water = 0;  ///< most slabs ever pooled at once
    std::uint64_t max_bucket = 0;        ///< deepest single-bucket occupancy
  };
  [[nodiscard]] Stats stats() const;

  /// Attach the host-side profiler to the cold structural paths (bucket
  /// rebuilds and straggler-sweep fallbacks). Null-safe; hot push/pop are
  /// timed by the Simulation loop instead, so this adds nothing there.
  void bind_profiler(telemetry::Profiler* p, std::uint32_t rebuild_node,
                     std::uint32_t sweep_node) {
    prof_ = p;
    prof_rebuild_ = rebuild_node;
    prof_sweep_ = sweep_node;
  }

 private:
  /// One calendar day: a (t, seq)-sorted vector plus a served-prefix head.
  /// Popping advances `head` instead of erasing (O(1)); monotonic push
  /// times guarantee new events always sort at or after it.
  struct Bucket {
    std::vector<Event> events;
    std::uint32_t head = 0;

    [[nodiscard]] bool drained() const { return head >= events.size(); }
  };

  [[nodiscard]] std::size_t bucket_of(Tick t) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t) >>
                                    width_shift_) &
           mask_;
  }

  void insert_sorted(Bucket& b, const Event& ev);
  void rebuild(std::size_t nbuckets);
  void resize_if_needed();
  /// Point the server at the window containing `t`.
  void aim_at(Tick t);

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;          ///< buckets_.size() - 1 (power of two)
  std::uint32_t width_shift_ = 0; ///< bucket width == 1 << width_shift_
  std::size_t size_ = 0;

  std::size_t cur_bucket_ = 0;
  Tick window_end_ = 0;  ///< exclusive upper edge of the served window
  Tick min_t_ = 0;       ///< no pending event is earlier than this

  EventArena arena_;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t max_bucket_ = 0;

  telemetry::Profiler* prof_ = nullptr;
  std::uint32_t prof_rebuild_ = 0;
  std::uint32_t prof_sweep_ = 0;
};

/// The facade Simulation drains: one branch on `kind()` per operation, so
/// the calendar hot path pays a predictable branch and nothing else.
class EventQueue {
 public:
  explicit EventQueue(QueueKind kind) : kind_(kind) {}

  [[nodiscard]] QueueKind kind() const { return kind_; }

  void push(const Event& ev) {
    if (kind_ == QueueKind::kCalendar) {
      cal_.push(ev);
      if (cal_.size() > max_depth_) max_depth_ = cal_.size();
    } else {
      heap_.push(ev);
      if (heap_.size() > max_depth_) max_depth_ = heap_.size();
    }
  }

  [[nodiscard]] Event pop() {
    if (kind_ == QueueKind::kCalendar) return cal_.pop();
    Event ev = heap_.top();
    heap_.pop();
    return ev;
  }

  [[nodiscard]] bool empty() const {
    return kind_ == QueueKind::kCalendar ? cal_.empty() : heap_.empty();
  }

  [[nodiscard]] std::size_t size() const {
    return kind_ == QueueKind::kCalendar ? cal_.size() : heap_.size();
  }

  /// Calendar internals (zeroed Stats under kBinaryHeap).
  [[nodiscard]] CalendarQueue::Stats calendar_stats() const {
    return kind_ == QueueKind::kCalendar ? cal_.stats()
                                         : CalendarQueue::Stats{};
  }

  /// Deepest the pending set has ever been (either implementation).
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }

  /// Forwarded to the calendar's cold structural paths (no-op under heap).
  void bind_profiler(telemetry::Profiler* p, std::uint32_t rebuild_node,
                     std::uint32_t sweep_node) {
    cal_.bind_profiler(p, rebuild_node, sweep_node);
  }

 private:
  QueueKind kind_;
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
  CalendarQueue cal_;
  std::size_t max_depth_ = 0;
};

}  // namespace nexus

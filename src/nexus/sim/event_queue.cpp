#include "nexus/sim/event_queue.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/profiler.hpp"

namespace nexus {

namespace {

/// Strict (t, seq) order — the kernel's total pop order.
struct EventEarlier {
  bool operator()(const Event& x, const Event& y) const {
    if (x.t != y.t) return x.t < y.t;
    return x.seq < y.seq;
  }
};

constexpr std::size_t kMinBuckets = 8;
/// Bucket width is 2^shift picoseconds; the cap (~1.1 ms) keeps
/// window_end_ arithmetic far from Tick overflow even after long scans.
constexpr std::uint32_t kMaxWidthShift = 40;
/// Default width 2^13 ps ~= one cycle at 122 MHz; the first resize replaces
/// it with a measured value.
constexpr std::uint32_t kInitialWidthShift = 13;

QueueKind parse_queue_env() {
  const char* v = std::getenv("NEXUS_SIM_QUEUE");
  if (v == nullptr || *v == '\0') return QueueKind::kCalendar;
  if (std::strcmp(v, "calendar") == 0) return QueueKind::kCalendar;
  if (std::strcmp(v, "heap") == 0) return QueueKind::kBinaryHeap;
  std::fprintf(stderr,
               "nexus: ignoring unknown NEXUS_SIM_QUEUE=\"%s\" "
               "(expected \"heap\" or \"calendar\"); using calendar\n",
               v);
  return QueueKind::kCalendar;
}

/// Set by set_default_queue_kind(); kUnset defers to the environment.
constexpr int kUnset = -1;
std::atomic<int> g_override{kUnset};

}  // namespace

const char* to_string(QueueKind k) {
  return k == QueueKind::kCalendar ? "calendar" : "heap";
}

QueueKind default_queue_kind() {
  const int forced = g_override.load();
  if (forced != kUnset) return static_cast<QueueKind>(forced);
  // Thread-safe one-time initialisation: concurrent first calls (parallel
  // sweep points each constructing a Simulation) read the env var once.
  static const QueueKind from_env = parse_queue_env();
  return from_env;
}

void set_default_queue_kind(QueueKind k) {
  g_override.store(static_cast<int>(k));
}

CalendarQueue::CalendarQueue() {
  buckets_.resize(kMinBuckets);
  mask_ = kMinBuckets - 1;
  width_shift_ = kInitialWidthShift;
  aim_at(0);
}

void CalendarQueue::aim_at(Tick t) {
  cur_bucket_ = bucket_of(t);
  window_end_ = ((t >> width_shift_) + 1) << width_shift_;
  min_t_ = t;
}

void CalendarQueue::insert_sorted(Bucket& b, const Event& ev) {
  if (b.events.capacity() == 0) b.events = arena_.acquire();
  // Fast path: at-or-after everything pending in this bucket (the common
  // case — same-tick bursts append, and seq grows monotonically).
  if (b.events.empty() || !EventEarlier{}(ev, b.events.back())) {
    b.events.push_back(ev);
    return;
  }
  const auto it = std::upper_bound(b.events.begin() + b.head, b.events.end(),
                                   ev, EventEarlier{});
  b.events.insert(it, ev);
}

void CalendarQueue::push(const Event& ev) {
  NEXUS_DCHECK(ev.t >= 0);
  Bucket& b = buckets_[bucket_of(ev.t)];
  insert_sorted(b, ev);
  const std::uint64_t pending = b.events.size() - b.head;
  if (pending > max_bucket_) max_bucket_ = pending;
  ++size_;
  // An event earlier than the served window (possible for a fresh queue, or
  // for direct users that do not follow the kernel's monotonic-time
  // contract): pull the server back so it is not skipped.
  if (ev.t < window_end_ - (Tick{1} << width_shift_)) aim_at(ev.t);
  resize_if_needed();
}

Event CalendarQueue::pop() {
  NEXUS_ASSERT_MSG(size_ > 0, "pop on empty CalendarQueue");
  const Tick width = Tick{1} << width_shift_;
  for (std::size_t scanned = 0; scanned <= mask_; ++scanned) {
    Bucket& b = buckets_[cur_bucket_];
    if (!b.drained() && b.events[b.head].t < window_end_) {
      const Event ev = b.events[b.head];
      ++b.head;
      --size_;
      min_t_ = ev.t;
      if (b.drained()) {
        arena_.release(std::move(b.events));
        b.events = {};
        b.head = 0;
      } else if (b.head >= 32 && b.head * 2 >= b.events.size()) {
        // Served prefix compaction: keep long-lived buckets (ones always
        // holding a future-year straggler) from growing without bound.
        b.events.erase(b.events.begin(),
                       b.events.begin() + static_cast<std::ptrdiff_t>(b.head));
        b.head = 0;
      }
      resize_if_needed();
      return ev;
    }
    cur_bucket_ = (cur_bucket_ + 1) & mask_;
    window_end_ += width;
  }

  // A full rotation found nothing inside its window: everything pending is
  // far in the future. Jump the server straight to the earliest bucket
  // front instead of scanning year by year.
  ++sweeps_;
  {
    telemetry::ProfScope ps(prof_, prof_sweep_);
    const Bucket* best = nullptr;
    for (const Bucket& b : buckets_) {
      if (b.drained()) continue;
      if (best == nullptr ||
          EventEarlier{}(b.events[b.head], best->events[best->head]))
        best = &b;
    }
    NEXUS_ASSERT_MSG(best != nullptr, "CalendarQueue lost events");
    aim_at(best->events[best->head].t);
  }
  return pop();
}

void CalendarQueue::resize_if_needed() {
  const std::size_t nbuckets = buckets_.size();
  if (size_ > nbuckets * 2) {
    ++grows_;
    rebuild(nbuckets * 2);
  } else if (nbuckets > kMinBuckets && size_ < nbuckets / 2) {
    ++shrinks_;
    rebuild(nbuckets / 2);
  }
}

void CalendarQueue::rebuild(std::size_t nbuckets) {
  NEXUS_DCHECK(std::has_single_bit(nbuckets));
  telemetry::ProfScope ps(prof_, prof_rebuild_);
  // Gather the pending events, releasing the old slabs as we go.
  std::vector<Event> pending = arena_.acquire();
  pending.reserve(size_);
  for (Bucket& b : buckets_) {
    pending.insert(pending.end(), b.events.begin() + b.head, b.events.end());
    arena_.release(std::move(b.events));
    b.events = {};
    b.head = 0;
  }
  NEXUS_DCHECK(pending.size() == size_);

  // Width from the inter-event gap near the head (Brown's calendar-queue
  // rule): sample the earliest ~64 events and take 3x their mean
  // separation, so far-future stragglers cannot stretch the buckets that
  // serve the dense region.
  if (!pending.empty()) {
    const std::size_t sample = std::min<std::size_t>(64, pending.size());
    std::partial_sort(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(sample),
                      pending.end(), EventEarlier{});
    Tick width = 1;
    if (sample > 1) {
      const Tick span = pending[sample - 1].t - pending[0].t;
      width = std::max<Tick>(1, 3 * span / static_cast<Tick>(sample - 1));
    }
    width_shift_ = std::min(
        kMaxWidthShift,
        static_cast<std::uint32_t>(
            std::bit_width(static_cast<std::uint64_t>(width - 1))));
  }

  buckets_.resize(nbuckets);
  buckets_.shrink_to_fit();
  mask_ = nbuckets - 1;
  for (const Event& ev : pending) insert_sorted(buckets_[bucket_of(ev.t)], ev);
  aim_at(pending.empty() ? min_t_ : pending[0].t);
  arena_.release(std::move(pending));
}

CalendarQueue::Stats CalendarQueue::stats() const {
  Stats s;
  s.grows = grows_;
  s.shrinks = shrinks_;
  s.sweeps = sweeps_;
  s.arena_allocs = arena_.allocs();
  s.arena_reuses = arena_.reuses();
  s.arena_high_water = arena_.high_water();
  s.max_bucket = max_bucket_;
  return s;
}

}  // namespace nexus

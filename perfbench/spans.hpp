// Benchmark-side span recorder.
//
// Spans are recorded from the benchmark's own code around each call it makes
// into a library layer: name ("<layer>.<function>"), start, end, parent span
// and a shared cell id for every span of one benchmark cell. They are kept in
// memory and written out once, at exit. A disabled recorder makes every scope
// a no-op, so the timed phase runs the same code with tracing off.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int cell = -1;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Tracer* t, std::string name, int cell) : t_(t) {
      if (t_ == nullptr || !t_->on_) {
        t_ = nullptr;
        return;
      }
      index_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back({std::move(name), 0.0, 0.0, t_->current_, cell});
      t_->current_ = index_;
      t_->spans_.back().start = now_s();
    }
    ~Scope() {
      if (t_ == nullptr) return;
      Span& s = t_->spans_[static_cast<std::size_t>(index_)];
      s.end = now_s();
      t_->current_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(std::string name, int cell = -1) {
    return Scope(this, std::move(name), cell);
  }

  /// Summed duration of every span named `name` that starts at or after
  /// `from` (seconds on the steady clock).
  [[nodiscard]] double total(const std::string& name, double from = 0.0) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.name == name && s.start >= from) sum += s.end - s.start;
    return sum;
  }

  /// Self time per layer (the span name's prefix before the first '.') of
  /// the spans that start inside [from, to): each span's duration minus the
  /// part its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_by_layer(double from,
                                                            double to) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.start < from || s.start >= to) continue;
      out[s.name.substr(0, s.name.find('.'))] += s.end - s.start - child[i];
    }
    return out;
  }

  /// Write every span as one JSON document; times are seconds relative to
  /// the first span's start.
  bool write_json(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d, \"cell\": %d}",
                   i == 0 ? "" : ",", i, s.name.c_str(), s.start - t0,
                   s.end - t0, s.parent, s.cell);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  int current_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

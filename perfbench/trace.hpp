// In-memory span tracer for the perfbench program.
//
// Spans are recorded only around calls the benchmark makes into the pts
// library (the layer boundaries it can see from outside); nothing inside
// src/ is instrumented. A span has a name whose first dotted component is
// the layer ("cost.probe_batch" -> cost), a start and end time, the span
// that was open on the same thread when it began (its parent), and a job
// id shared by every span of one served job. Spans stay in memory and are
// written out once, when the run ends.
//
// Recording is off by default; a disabled Span is one relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t job = 0;     ///< served-job id, 0 outside the serve phase
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span on the calling thread and returns its index. A job id of
  /// 0 inherits the parent's job.
  std::int64_t begin(const char* name, std::uint64_t job) {
    const std::int64_t parent = stack().empty() ? -1 : stack().back();
    std::int64_t index = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job == 0 && parent >= 0) job = spans_[parent].job;
      index = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(SpanRecord{name, now_ns(), 0, parent, job});
    }
    stack().push_back(index);
    return index;
  }

  void end(std::int64_t index) {
    const std::int64_t t = now_ns();
    stack().pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end_ns = t;
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Self time per layer in milliseconds: each span's duration minus the
  /// durations of its children (children run on the parent's thread, so
  /// they never overlap each other). Spans of the benchmark's own
  /// bookkeeping ("perfbench.*") are parents only and are left out.
  std::map<std::string, double> layer_self_ms() const {
    const auto all = spans();
    std::vector<std::int64_t> child_ns(all.size(), 0);
    for (const auto& s : all) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const std::string layer = all[i].name.substr(0, all[i].name.find('.'));
      if (layer == "perfbench") continue;
      self[layer] += static_cast<double>(all[i].end_ns - all[i].start_ns -
                                         child_ns[i]) / 1e6;
    }
    return self;
  }

  /// Writes every span as one JSON array; false if the file cannot be
  /// written.
  bool write_json(const std::string& path) const {
    const auto all = spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"job\":%llu,"
                   "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                   i, static_cast<long long>(s.parent), s.name.c_str(),
                   static_cast<unsigned long long>(s.job), s.start_ns / 1e3,
                   s.end_ns / 1e3, i + 1 < all.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  static std::vector<std::int64_t>& stack() {
    thread_local std::vector<std::int64_t> open;
    return open;
  }

  std::atomic<bool> enabled_{false};
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// RAII span; records nothing while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t job = 0) {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) index_ = tracer.begin(name, job);
  }
  ~Span() {
    if (index_ >= 0) Tracer::instance().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

}  // namespace perfbench

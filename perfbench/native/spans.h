// perfbench: in-memory spans recorded around calls into wild5g layers.
//
// Spans live in the benchmark's own code, around public library calls;
// nothing inside src/ is instrumented. A disabled log costs one branch per
// span, so the same wrappers serve the untraced (end-to-end) runs and the
// traced (per-layer) runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `start` to now.
[[nodiscard]] double seconds_since(Clock::time_point start);

/// Nanoseconds between two time points.
[[nodiscard]] std::int64_t nanos_between(Clock::time_point from,
                                         Clock::time_point to);

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span nested in the innermost open one; returns its id, or -1
  /// when the log is disabled. `request` groups the spans of one session
  /// or job (-1: none).
  int open(const char* name, std::int64_t request);
  void close(int id);

  /// Writes every closed span as Chrome trace-event JSON ("X" events, one
  /// per span, with its id and parent id in args) that Perfetto and
  /// chrome://tracing open offline.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::int64_t request;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Scoped span; a no-op when the log is disabled.
class Span {
 public:
  Span(SpanLog& log, const char* name, std::int64_t request = -1)
      : log_(log), id_(log.open(name, request)) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench

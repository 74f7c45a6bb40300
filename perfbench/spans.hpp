// In-memory span log for the benchmark's traced pass.
//
// The benchmark times the calls it makes into each layer (trace cache,
// Simulator construction, warm-up, measurement, serialization, analysis)
// from its own code, so the simulator itself carries no instrumentation.
// Spans are kept in memory while the pass runs and written once at the end
// as Chrome trace-event JSON, which Perfetto and chrome://tracing load.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call. `parent` is the id of the span that caused it (0 for a
/// root); spans of one grid run share `run`, the run's grid index + 1.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t run = 0;
  std::uint32_t lane = 0;   ///< host thread, numbered in order of first use
  std::int64_t t0_ns = 0;   ///< start, ns since the log was created
  std::int64_t t1_ns = 0;   ///< end
  std::string args_json;    ///< "" or a JSON object

  [[nodiscard]] std::int64_t dur_ns() const { return t1_ns - t0_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// among them counted once). Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per span name: total duration and total self time, in seconds.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

/// Thread-safe span recorder.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] std::int64_t now_ns() const;
  /// A fresh span id (never 0).
  [[nodiscard]] std::uint64_t next_id();
  /// Record a finished span; fills in the caller's lane.
  void record(Span s);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Write every span as a Chrome trace-event JSON file; false on I/O
  /// failure.
  [[nodiscard]] bool write_perfetto(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::uint32_t> lanes_;  ///< hashed thread id -> lane
};

/// RAII span: starts on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent, std::uint64_t run,
             std::string args_json = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

}  // namespace perfbench

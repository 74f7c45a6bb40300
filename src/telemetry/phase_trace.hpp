// Lightweight phase tracing in Chrome trace-event format.
//
// The engine and the tools record coarse spans — "materialize"
// (generating trace-cache chunks), "simulate" (one run), "serialize"
// (writing a snapshot), "merge", "dispatch" — into a process-global
// in-memory tracer; flush() writes a {"traceEvents":[...]} JSON file that loads
// directly in Perfetto / chrome://tracing. Timestamps are microseconds of
// host wall clock since the tracer was armed: host-specific by nature,
// which is fine because trace files are telemetry (TELEM_*), never
// snapshot bytes.
//
// Disabled (the default), begin/record are a single relaxed atomic load —
// spans cost nothing on the paths that stay hot when telemetry is off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dwarn::telem {

struct TraceEvent {
  const char* name = "";     ///< static-lifetime span name
  std::uint64_t ts_us = 0;   ///< start, µs since the tracer was armed
  std::uint64_t dur_us = 0;
  std::uint64_t tid = 0;     ///< hashed host thread id
  std::string args_json;     ///< "" or a JSON object ("{...}")
};

class PhaseTracer {
 public:
  static PhaseTracer& shared();

  /// Arm the tracer: events recorded from now on, flushed to `path`.
  /// Re-arming clears previously recorded events.
  void enable(std::string path);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the tracer was armed (0 when disabled).
  [[nodiscard]] std::uint64_t now_us() const;

  /// Record one complete span. `name` must outlive the tracer (string
  /// literals); dynamic context goes into `args_json`.
  void record(const char* name, std::uint64_t ts_us, std::uint64_t dur_us,
              std::string args_json = "");

  /// Write the Chrome trace-event JSON file. False (after a stderr
  /// warning) on I/O failure; the tracer stays armed either way.
  bool flush();

  [[nodiscard]] std::size_t event_count() const;

 private:
  PhaseTracer() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::string path_;
  std::chrono::steady_clock::time_point epoch_{};
  std::vector<TraceEvent> events_;
};

/// RAII span against the shared tracer. Construction snapshots the start
/// time; destruction records the event. No-op while the tracer is off.
class PhaseSpan {
 public:
  explicit PhaseSpan(const char* name, std::string args_json = "");
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  const char* name_;
  std::string args_;
  std::uint64_t t0_ = 0;
  bool active_ = false;
};

}  // namespace dwarn::telem

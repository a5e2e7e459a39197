/// \file trace.hpp
/// Per-request trace log: one JSON line per served request, appended to a
/// file the operator names (`spsta_serviced --trace=FILE`). Each event
/// carries the request's trace id (also echoed in the response envelope),
/// the command, outcome, and the span breakdown the worker pool and the
/// connection writer measured: queue wait, execute, serialize.
///
/// The writer is deliberately independent of the service's Json type (the
/// obs layer sits below everything) and formats numbers with
/// std::to_chars, so trace output is locale-independent like the rest of
/// the numeric I/O.

#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace spsta::obs {

/// One served request's span breakdown.
struct TraceEvent {
  std::uint64_t trace_id = 0;
  std::string_view cmd;        ///< protocol command ("" for envelope errors)
  bool ok = false;             ///< response outcome
  double queue_ms = 0.0;       ///< enqueue -> execution start
  double execute_ms = 0.0;     ///< handler wall-clock
  double serialize_ms = 0.0;   ///< response -> wire line
};

/// Append-only JSON-lines trace sink. Thread-safe; write() under a mutex
/// so concurrent connection writers never interleave lines. A TraceLog
/// that failed to open is inert (ok() == false, write() drops events).
class TraceLog {
 public:
  TraceLog() = default;
  explicit TraceLog(const std::string& path);
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }
  [[nodiscard]] std::uint64_t events_written() const noexcept { return events_; }

  void write(const TraceEvent& event);

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint64_t events_ = 0;
};

/// Formats one trace event as a JSON line (no trailing newline). Exposed
/// for tests.
[[nodiscard]] std::string trace_line(const TraceEvent& event);

}  // namespace spsta::obs

/// \file bench.hpp
/// Shared pieces of spsta_bench, the end-to-end benchmark: run options,
/// metric lists, the in-memory span log, exact percentiles, the
/// spsta_serviced child process, a JSON-lines channel over any fd pair,
/// `stats` snapshots, bitwise result checks and the layer replays.
///
/// Every workload returns a RunResult. main.cpp turns it into the two
/// output lines: the per-workload detail line and the final result line
/// whose metric names BENCHMARK.json declares.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "netlist/netlist.hpp"
#include "service/json.hpp"
#include "service/transport/socket.hpp"
#include "spsta_api.hpp"

namespace spsta_bench {

using Clock = std::chrono::steady_clock;
using spsta::service::Json;
using spsta::service::transport::ScopedFd;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of the measured phases
  std::string trace_path;  ///< non-empty: traced re-run, spans written here
  std::string check_path;  ///< non-empty: validate the output against this file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named values with units, kept in insertion order. Setting a name twice
/// replaces the value.
class MetricList {
 public:
  void set(std::string_view name, double value, std::string_view unit);
  [[nodiscard]] const std::vector<Metric>& items() const noexcept { return items_; }
  /// {"name": {"value": v, "unit": u}, ...}
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<Metric> items_;
};

/// Span log of a traced run: name, start, end, parent span and op id,
/// kept in memory and written as JSON lines when the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Returns the new span's id (ids start at 1; parent 0 = root).
  std::uint64_t add(std::string name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent = 0, std::uint64_t op = 0);
  /// False when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::uint64_t parent = 0, op = 0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Nearest-rank percentile (q in (0, 1]) of exact samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
/// Mean of the finite samples (a failed op carries an infinite latency).
[[nodiscard]] double mean(std::span<const double> samples);
[[nodiscard]] double median(std::vector<double> samples);

/// The end-to-end statistics of a closed loop, taken in its quiet windows.
///
/// On a shared host, other tenants' cache contention comes in slow periods
/// that last seconds: a fixed pointer chase over 2 MB takes 15 ms in quiet
/// periods and 22 ms in busy ones, and the share of a run spent in busy
/// periods varies from run to run. So the ops, in the order they ran, are
/// cut into windows of kWindowOps (a trailing partial window is dropped
/// unless it is the only one), each window gets its own p50, p95 and op
/// rate, and the quiet windows are the kQuietShare of them with the lowest
/// p50. Each statistic is the median of its values over the quiet windows.
/// A window of 64 ops gives its p95 from the 4th-slowest op rather than
/// from its slowest. A failed op (infinite latency) stays in its window.
struct QuietStats {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double ops_per_s = 0.0;   ///< answered ops / their summed latency
  double kept_share = 0.0;  ///< share of ops that fell in quiet windows
};
inline constexpr std::size_t kWindowOps = 64;
inline constexpr double kQuietShare = 0.5;
/// A saturated phase's window, or a sign-off pass, is quiet when it is
/// within this factor of the best one.
inline constexpr double kQuietSlack = 1.2;
[[nodiscard]] QuietStats quiet_stats(std::span<const double> op_ms);
/// Throughput of a saturated phase from its completion times: replies per
/// second over the windows whose count is within kQuietSlack of the
/// busiest window's.
[[nodiscard]] double quiet_rate(std::span<const Clock::time_point> completions,
                                Clock::time_point start, Clock::time_point end,
                                double window_s);

/// Everything one run of a workload produced.
struct RunResult {
  std::vector<std::string> failures;  ///< correctness failures; empty = checks ok
  std::uint64_t attempted = 0;        ///< operations issued in measured phases
  std::uint64_t failed = 0;           ///< of those, failed or refused
  std::vector<double> op_ms;          ///< latency of every measured op
  QuietStats e2e;                     ///< op_p50_ms, op_p95_ms, ops_per_s
  double setup_s = 0.0;               ///< median over the set-up repetitions
  MetricList detail;                  ///< workload-named metrics (detail line)
  MetricList diag;                    ///< reported, never gated
  MetricList layers;                  ///< per-layer metrics (traced runs only)

  void fail(std::string why) { failures.push_back(std::move(why)); }
};

RunResult run_serve(const Options& options, Tracer* tracer);
RunResult run_eco(const Options& options, Tracer* tracer);
RunResult run_signoff(const Options& options, Tracer* tracer);
RunResult run_cold(const Options& options, Tracer* tracer);

/// Set-up repetitions per run; set_up time is their median.
inline constexpr int kSetupReps = 5;

// ---------------------------------------------------------------------------
// The daemon under test.

/// One spsta_serviced child process with stdin, stdout and stderr on
/// pipes. The child gets SIGKILL if this process dies first. The
/// destructor stops it and reaps it.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  /// --listen mode: waits for the "listening on HOST:PORT" line on stderr.
  /// Throws std::runtime_error when it does not come within 30 s.
  [[nodiscard]] std::uint16_t listening_port();
  [[nodiscard]] int request_fd() const noexcept { return in_.get(); }
  [[nodiscard]] int reply_fd() const noexcept { return out_.get(); }

  /// Closes stdin, waits up to 10 s for the exit, then kills. True when the
  /// daemon exited on its own with status 0. Idempotent.
  bool stop();

 private:
  pid_t pid_ = -1;
  ScopedFd in_, out_, err_;
  std::string err_buffer_;
};

/// JSON lines over a write fd and a read fd (a socket uses one fd for
/// both). One thread may send() while another recv()s.
class LineChannel {
 public:
  /// Borrows the fds (the daemon's pipes).
  LineChannel(int write_fd, int read_fd) : write_fd_(write_fd), read_fd_(read_fd) {}
  /// Owns a connected socket.
  explicit LineChannel(ScopedFd socket);

  [[nodiscard]] bool send(std::string_view line);
  /// Next line without its newline; nullopt on EOF or error.
  [[nodiscard]] std::optional<std::string> recv();
  /// send() then recv().
  [[nodiscard]] std::optional<std::string> round_trip(std::string_view line);

 private:
  ScopedFd owned_;
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;  ///< first unread byte of buffer_
};

/// Connects to 127.0.0.1:port. Throws std::runtime_error on failure.
[[nodiscard]] LineChannel connect_local(std::uint16_t port);

/// True when a reply line reports `"ok":true`.
[[nodiscard]] bool reply_ok(std::string_view line);
/// The reply with its echoed id and trace id cut off: what two answers to
/// the same question must agree on byte for byte.
[[nodiscard]] std::string_view reply_payload(std::string_view line);

// ---------------------------------------------------------------------------
// Counters from outside the program.

/// Numeric leaves of a JSON document keyed by their '/'-joined path, e.g.
/// "metrics/stages/service.execute/total_ms". Arrays are skipped.
using Counters = std::map<std::string, double>;
[[nodiscard]] Counters flatten(const Json& document);
/// after - before, key by key.
[[nodiscard]] Counters diff(const Counters& before, const Counters& after);
[[nodiscard]] double get(const Counters& counters, const std::string& key);

/// The daemon's `stats` result, flattened. Throws on a failed request.
[[nodiscard]] Counters daemon_stats(LineChannel& channel);
/// The in-process metrics registry in the same shape as `stats`.
[[nodiscard]] Counters registry_stats();

/// Time recorded by a stage histogram between two snapshots, in ms.
[[nodiscard]] double stage_total_ms(const Counters& delta, const std::string& stage);
/// 100 * hits / (hits + misses), 0 when neither moved.
[[nodiscard]] double hit_pct(double hits, double misses);

/// Mean idle round trip of `ping` on \p channel minus the daemon's own time
/// for it (queue + execute + serialize), in ms: the transport's fixed cost.
[[nodiscard]] double idle_transport_rtt_ms(LineChannel& channel);

// ---------------------------------------------------------------------------
// Bitwise checks against in-process references.

/// Compares every endpoint row of an `analyze` result against \p reference
/// rendered the way the service renders it; true when every number is
/// bitwise equal and every endpoint is present. \p why gets the first
/// mismatch.
[[nodiscard]] bool endpoints_match(const Json& result, const spsta::AnalysisResult& reference,
                                   std::string* why);
/// Same for the `stats` object of a node `query` result.
[[nodiscard]] bool node_matches(const Json& stats, const spsta::AnalysisResult& reference,
                                spsta::netlist::NodeId id, std::string* why);

/// The Analyzer a daemon session builds for \p design: unit delays,
/// scenario I on every timing source.
[[nodiscard]] spsta::Analyzer session_analyzer(spsta::netlist::Netlist design);

// ---------------------------------------------------------------------------
// Layer replays: the workload's own inputs through the public layer
// functions, timed in-process.

/// Per-design mean ms of parse_bench, Analyzer + plan() (and the levelize
/// stage inside it), set_delay x8 + plan(), the moment engine's propagate
/// stages, an SSTA run, and IncrementalSpsta commit (8 edits) and probe
/// (1 edit, up to 8 endpoints). Sets the replay metrics on \p layers.
void replay_design_layers(std::span<const std::string> bench_texts, std::uint64_t seed,
                          MetricList& layers);
/// Mean µs of parse_request over \p lines.
[[nodiscard]] double replay_decode_us(std::span<const std::string> lines);

/// Sets every attribution and counter metric of a daemon workload from
/// the traced phase. \p op_ms: the traced ops; \p late_ms: summed
/// generator lateness; \p requests: requests per op; \p round_trips:
/// sequential round trips per op; \p rtt_ms: idle_transport_rtt_ms();
/// \p socket selects transport.hold (TCP) or transport.stdio (pipes) and
/// worker_pool or scheduler for the queue.
struct DaemonPhase {
  Counters delta;               ///< stats diff over the phase
  std::span<const double> op_ms;
  double late_ms = 0.0;
  double requests_per_op = 1.0;
  double round_trips_per_op = 1.0;
  double rtt_ms = 0.0;
  double decode_us = 0.0;
  double request_bytes_per_op = 0.0;
  bool socket = true;
};
void set_daemon_layers(const DaemonPhase& phase, MetricList& layers);

/// Every per-layer metric name with its unit, in output order. A workload
/// sets those on its path; main.cpp fills the rest with 0.
struct LayerSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] std::span<const LayerSpec> layer_specs();

}  // namespace spsta_bench

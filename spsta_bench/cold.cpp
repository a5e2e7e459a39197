// cold: first answers on designs the service has never seen. A closed loop
// over one connection to `spsta_serviced --listen --workers=2
// --max-sessions=8`: each op loads a fresh 5000-gate generated .bench text
// (generated outside the timed region) and asks `analyze spsta_moment`.
// The work is parse, plan compile, first-run pattern enumeration and LRU
// eviction, all of which serve bypasses through its caches.

#include <array>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "service/service.hpp"
#include "stats/rng.hpp"

namespace spsta_bench {

namespace {

constexpr std::size_t kVerifyEvery = 16;  ///< every 16th answer is checked in-process
constexpr std::size_t kReplayTexts = 8;

std::string cold_design(std::uint64_t seed, std::uint64_t index) {
  spsta::netlist::GeneratorSpec spec;
  spec.name = "cold";
  spec.num_inputs = 64;
  spec.num_outputs = 32;
  spec.num_dffs = 32;
  spec.num_gates = 5000;
  spec.target_depth = 24;
  spsta::stats::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ull + index);
  spec.seed = mix.next();
  return spsta::netlist::write_bench(spsta::netlist::generate_circuit(spec));
}

/// One op: load a design text, then analyze the session it created.
struct FirstAnswer {
  std::string key, load_line, analyze_line;
  std::optional<std::string> loaded, answer;
  Clock::time_point t0, t1, t2;

  [[nodiscard]] bool ok() const {
    return loaded && answer && reply_ok(*loaded) &&
           loaded->find(key) != std::string::npos && reply_ok(*answer);
  }
};

FirstAnswer first_answer(LineChannel& ch, const std::string& text, std::uint64_t id) {
  FirstAnswer a;
  a.key = spsta::service::hash_key(spsta::service::load_content_hash("bench", text));
  a.load_line = "{\"id\":" + std::to_string(id) +
                R"(,"cmd":"load","format":"bench","text":)" + Json(text).dump() + "}";
  a.analyze_line = "{\"id\":" + std::to_string(id + 1) + R"(,"cmd":"analyze","session":")" +
                   a.key + R"(","engine":"spsta_moment"})";
  a.t0 = Clock::now();
  a.loaded = ch.round_trip(a.load_line);
  a.t1 = Clock::now();
  if (a.loaded) a.answer = ch.round_trip(a.analyze_line);
  a.t2 = Clock::now();
  if (!a.loaded || !a.answer) throw std::runtime_error("cold: the daemon closed the connection");
  return a;
}

}  // namespace

RunResult run_cold(const Options& options, Tracer* tracer) {
  RunResult result;
  std::vector<double> setups;
  std::unique_ptr<LineChannel> channel;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) {
      (void)channel->round_trip(R"({"id":0,"cmd":"shutdown"})");
      channel.reset();
      (void)daemon->stop();
    }
    // Set-up answers one warm-up design (outside the ops' index range), so
    // the daemon's first-use costs land here rather than in the first op.
    const std::string warmup = cold_design(options.seed, ~std::uint64_t{0} - rep);
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(std::vector<std::string>{
        "--listen=127.0.0.1:0", "--workers=2", "--max-sessions=8"});
    channel = std::make_unique<LineChannel>(connect_local(daemon->listening_port()));
    if (!first_answer(*channel, warmup, 0).ok()) throw std::runtime_error("cold: warm-up failed");
    setups.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  result.setup_s = median(setups);
  LineChannel& ch = *channel;

  const Counters before = tracer ? daemon_stats(ch) : Counters{};
  std::vector<double> load_ms, analyze_ms;
  std::vector<std::string> replay_texts, sample_lines;
  std::vector<std::array<Clock::time_point, 3>> marks;  // traced runs
  double request_bytes = 0.0;
  std::size_t verified = 0;
  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options.seconds));
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const std::string text = cold_design(options.seed, i);
    const FirstAnswer a = first_answer(ch, text, 2 * i + 1);
    ++result.attempted;
    const bool ok = a.ok();
    if (!ok) ++result.failed;
    result.op_ms.push_back(ok ? ms_between(a.t0, a.t2)
                              : std::numeric_limits<double>::infinity());
    load_ms.push_back(ms_between(a.t0, a.t1));
    analyze_ms.push_back(ms_between(a.t1, a.t2));
    request_bytes += static_cast<double>(a.load_line.size() + a.analyze_line.size() + 2);
    if (tracer != nullptr) marks.push_back({a.t0, a.t1, a.t2});
    if (replay_texts.size() < kReplayTexts) {
      replay_texts.push_back(text);
      sample_lines.push_back(a.load_line);
      sample_lines.push_back(a.analyze_line);
    }

    if (ok && i % kVerifyEvery == 0) {
      spsta::Analyzer analyzer = session_analyzer(spsta::netlist::parse_bench(text));
      spsta::AnalysisRequest request;
      request.engine = spsta::Engine::SpstaMoment;
      const Json doc = Json::parse(*a.answer);
      std::string why;
      if (!endpoints_match(*doc.find("result"), analyzer.run(request).result, &why)) {
        result.fail("cold: design " + std::to_string(i) + " answered wrong: " + why);
      }
      ++verified;
    }
  }
  const Clock::time_point stop = Clock::now();
  const Counters delta = tracer ? diff(before, daemon_stats(ch)) : Counters{};
  const double rtt = tracer ? idle_transport_rtt_ms(ch) : 0.0;
  (void)ch.round_trip(R"({"id":0,"cmd":"shutdown"})");
  channel.reset();
  (void)daemon->stop();

  result.e2e = quiet_stats(result.op_ms);
  result.detail.set("cold_first_answer_p50_ms", percentile(result.op_ms, 0.50), "ms");
  result.detail.set("cold_first_answer_p95_ms", percentile(result.op_ms, 0.95), "ms");
  result.diag.set("diag.cold_first_answer_p99_ms", percentile(result.op_ms, 0.99), "ms");
  result.diag.set("diag.cold_load_p50_ms", percentile(load_ms, 0.50), "ms");
  result.diag.set("diag.cold_analyze_p50_ms", percentile(analyze_ms, 0.50), "ms");
  result.diag.set("diag.cold_verified", static_cast<double>(verified), "count");

  if (tracer != nullptr) {
    const std::uint64_t loop = tracer->add("cold.loop", start, stop);
    for (std::size_t op = 0; op < marks.size(); ++op) {
      const auto& [t0, t1, t2] = marks[op];
      const std::uint64_t span = tracer->add("cold.first_answer", t0, t2, loop, op + 1);
      tracer->add("load", t0, t1, span, op + 1);
      tracer->add("analyze", t1, t2, span, op + 1);
    }
    DaemonPhase phase;
    phase.delta = delta;
    phase.op_ms = result.op_ms;
    phase.requests_per_op = 2;
    phase.round_trips_per_op = 2;
    phase.rtt_ms = rtt;
    phase.decode_us = replay_decode_us(sample_lines);
    phase.request_bytes_per_op = request_bytes / static_cast<double>(result.attempted);
    phase.socket = true;
    set_daemon_layers(phase, result.layers);
    replay_design_layers(replay_texts, options.seed, result.layers);
  }
  return result;
}

}  // namespace spsta_bench

// eco: the gate-sizing loop of statistical optimization (edit, re-time
// with block-based SSTA, read endpoints) as a closed-loop client of
// `spsta_serviced --threads=2` over stdio pipes, the batch-scheduler
// runtime. Each iteration asks 4 single-edit what-if probes on 8 watched
// endpoints, commits an 8-edit set_delay, reads the 8 endpoints and
// re-times with `analyze ssta`. Edits sit beside reads: every commit
// invalidates the caches and drops the compiled plan, so the re-time pays
// the recompile.

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/generator.hpp"
#include "service/service.hpp"
#include "stats/rng.hpp"

namespace spsta_bench {

namespace {

using spsta::netlist::NodeId;
using spsta::service::json_number;

constexpr std::size_t kWatched = 8;
constexpr std::size_t kProbes = 4;
constexpr std::size_t kCommitEdits = 8;
constexpr std::size_t kRequestsPerIteration = kProbes + 1 + kWatched + 1;

/// The eco_load design: 10k gates, depth 30, XOR-weighted so edits
/// propagate deep.
spsta::netlist::Netlist gen10k() {
  spsta::netlist::GeneratorSpec spec;
  spec.name = "gen10k";
  spec.num_inputs = 64;
  spec.num_outputs = 32;
  spec.num_gates = 10000;
  spec.target_depth = 30;
  spec.seed = 7;
  spec.weight_xor = 1.0;
  spec.weight_xnor = 0.5;
  return spsta::netlist::generate_circuit(spec);
}

struct Edit {
  NodeId node = 0;
  double mean = 1.0;
  double std = 0.0;
};

std::string edit_fields(const Edit& e) {
  return "\"node\":" + std::to_string(e.node) + ",\"mean\":" + json_number(e.mean) +
         ",\"std\":" + json_number(e.std);
}

std::string edits_array(const std::vector<Edit>& edits) {
  std::string out = "[";
  for (std::size_t i = 0; i < edits.size(); ++i) {
    if (i > 0) out += ',';
    out += '{' + edit_fields(edits[i]) + '}';
  }
  return out + ']';
}

/// The daemon and the pipe channel that borrows its fds.
struct Tool {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<LineChannel> channel;

  void stop() {
    channel.reset();
    if (daemon) (void)daemon->stop();
  }
};

enum Kind : std::size_t { kProbe, kCommit, kQuery, kRetime, kKinds };
constexpr const char* kKindNames[kKinds] = {"probe", "commit", "query", "retime"};

}  // namespace

RunResult run_eco(const Options& options, Tracer* tracer) {
  RunResult result;
  const std::string text = spsta::netlist::write_bench(gen10k());
  const spsta::netlist::Netlist design = spsta::netlist::parse_bench(text);
  const std::string key =
      spsta::service::hash_key(spsta::service::load_content_hash("bench", text));
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < design.node_count(); ++id) {
    if (spsta::netlist::is_combinational(design.node(id).type)) gates.push_back(id);
  }
  const std::vector<NodeId> endpoints = design.timing_endpoints();

  spsta::stats::Xoshiro256 rng(options.seed);
  std::vector<NodeId> watched;
  while (watched.size() < kWatched) {
    const NodeId ep = endpoints[rng.uniform_index(endpoints.size())];
    if (std::find(watched.begin(), watched.end(), ep) == watched.end()) watched.push_back(ep);
  }
  std::string watched_json = "[";
  for (std::size_t i = 0; i < watched.size(); ++i) {
    watched_json += (i ? "," : "") + std::to_string(watched[i]);
  }
  watched_json += "]";

  // Every gate gets a Gaussian delay in one batched set_delay.
  std::vector<Edit> committed;
  for (const NodeId g : gates) committed.push_back({g, rng.uniform(0.8, 1.2), 0.1});
  const std::string load_line =
      R"({"id":0,"cmd":"load","format":"bench","text":)" + Json(text).dump() + "}";
  const std::string init_line = R"({"id":0,"cmd":"set_delay","session":")" + key +
                                R"(","edits":)" + edits_array(committed) + "}";

  std::vector<double> setups;
  Tool tool;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tool.stop();
    const Clock::time_point t0 = Clock::now();
    tool.daemon = std::make_unique<Daemon>(std::vector<std::string>{"--threads=2"});
    tool.channel = std::make_unique<LineChannel>(tool.daemon->request_fd(),
                                                 tool.daemon->reply_fd());
    for (const std::string* line : {&load_line, &init_line}) {
      const auto reply = tool.channel->round_trip(*line);
      if (!reply || !reply_ok(*reply)) throw std::runtime_error("eco: set-up request failed");
    }
    setups.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  result.setup_s = median(setups);
  LineChannel& ch = *tool.channel;

  const Counters before = tracer ? daemon_stats(ch) : Counters{};
  std::vector<double> kind_ms[kKinds];
  std::vector<std::string> commit_replies, sample_lines;
  std::string last_retime;
  double request_bytes = 0.0;
  std::vector<std::vector<Clock::time_point>> iteration_marks;  // traced runs
  std::uint64_t id = 1;
  const Clock::time_point loop_start = Clock::now();
  const auto loop_end = loop_start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(options.seconds));
  const auto random_edit = [&] {
    return Edit{gates[rng.uniform_index(gates.size())], rng.uniform(0.5, 2.0),
                rng.uniform(0.0, 0.1)};
  };
  while (Clock::now() < loop_end) {
    std::vector<std::pair<Kind, std::string>> lines;
    for (std::size_t p = 0; p < kProbes; ++p) {
      lines.emplace_back(kProbe, "{\"id\":" + std::to_string(id++) +
                                     R"(,"cmd":"set_delay","session":")" + key +
                                     R"(","probe":true,)" + edit_fields(random_edit()) +
                                     ",\"nodes\":" + watched_json + "}");
    }
    std::vector<Edit> batch;
    for (std::size_t e = 0; e < kCommitEdits; ++e) batch.push_back(random_edit());
    lines.emplace_back(kCommit, "{\"id\":" + std::to_string(id++) +
                                    R"(,"cmd":"set_delay","session":")" + key +
                                    R"(","edits":)" + edits_array(batch) + "}");
    for (const NodeId w : watched) {
      lines.emplace_back(kQuery, "{\"id\":" + std::to_string(id++) +
                                     R"(,"cmd":"query","session":")" + key +
                                     R"(","node":)" + std::to_string(w) + "}");
    }
    lines.emplace_back(kRetime, "{\"id\":" + std::to_string(id++) +
                                    R"(,"cmd":"analyze","session":")" + key +
                                    R"(","engine":"ssta"})");

    ++result.attempted;
    bool ok = true;
    std::vector<Clock::time_point> marks{Clock::now()};
    for (const auto& [kind, line] : lines) {
      const std::optional<std::string> reply = ch.round_trip(line);
      marks.push_back(Clock::now());
      kind_ms[kind].push_back(ms_between(marks[marks.size() - 2], marks.back()));
      if (!reply) throw std::runtime_error("eco: the daemon closed its pipe");
      ok = ok && reply_ok(*reply);
      if (kind == kCommit && tracer) commit_replies.push_back(*reply);
      if (kind == kRetime) last_retime = *reply;
    }
    committed.insert(committed.end(), batch.begin(), batch.end());
    if (!ok) ++result.failed;
    const double iteration_ms = ms_between(marks.front(), marks.back());
    result.op_ms.push_back(ok ? iteration_ms : std::numeric_limits<double>::infinity());
    for (const auto& [kind, line] : lines) {
      request_bytes += static_cast<double>(line.size() + 1);
      if (tracer && sample_lines.size() < 4096) sample_lines.push_back(line);
    }
    if (tracer != nullptr) iteration_marks.push_back(std::move(marks));
  }
  const Clock::time_point loop_stop = Clock::now();
  const double loop_s = std::chrono::duration<double>(loop_stop - loop_start).count();
  const Counters delta = tracer ? diff(before, daemon_stats(ch)) : Counters{};
  const double rtt = tracer ? idle_transport_rtt_ms(ch) : 0.0;

  // The final state must equal a fresh engine on the final delays, bit for
  // bit: the incremental moment state and the re-timed SSTA arrivals.
  const std::optional<std::string> moment_reply =
      ch.round_trip(R"({"id":0,"cmd":"analyze","session":")" + key +
                    R"(","engine":"spsta_moment"})");
  tool.stop();
  {
    spsta::netlist::Netlist fresh = spsta::netlist::parse_bench(text);
    spsta::netlist::DelayModel delays = spsta::netlist::DelayModel::unit(fresh);
    for (const Edit& e : committed) delays.set_delay(e.node, {e.mean, e.std * e.std});
    std::vector<spsta::netlist::SourceStats> sources(fresh.timing_sources().size(),
                                                     spsta::netlist::scenario_I());
    spsta::Analyzer analyzer(std::move(fresh), std::move(delays), std::move(sources));
    for (const auto& [engine, reply] :
         {std::pair{spsta::Engine::SpstaMoment, moment_reply.value_or("")},
          std::pair{spsta::Engine::Ssta, last_retime}}) {
      spsta::AnalysisRequest request;
      request.engine = engine;
      std::string why = "no reply";
      bool ok = !reply.empty() && reply_ok(reply);
      if (ok) {
        const Json doc = Json::parse(reply);
        ok = endpoints_match(*doc.find("result"), analyzer.run(request).result, &why);
      }
      if (!ok) {
        result.fail("eco: final " + std::string(spsta::to_string(engine)) +
                    " endpoints differ from a fresh engine: " + why);
      }
    }
  }

  const double iterations = static_cast<double>(result.op_ms.size());
  result.e2e = quiet_stats(result.op_ms);
  result.detail.set("eco_iters_per_s", iterations / loop_s, "1/s");
  result.detail.set("eco_commit_p50_ms", percentile(kind_ms[kCommit], 0.50), "ms");
  result.detail.set("eco_probe_p50_ms", percentile(kind_ms[kProbe], 0.50), "ms");
  result.detail.set("eco_retime_p50_ms", percentile(kind_ms[kRetime], 0.50), "ms");
  result.detail.set("eco_retime_p95_ms", percentile(kind_ms[kRetime], 0.95), "ms");
  result.diag.set("diag.eco_query_p50_ms", percentile(kind_ms[kQuery], 0.50), "ms");
  result.diag.set("diag.eco_iter_p99_ms", percentile(result.op_ms, 0.99), "ms");

  if (tracer != nullptr) {
    // Request order within an iteration: probes, commit, queries, re-time.
    std::vector<Kind> order(kProbes, kProbe);
    order.push_back(kCommit);
    order.insert(order.end(), kWatched, kQuery);
    order.push_back(kRetime);
    const std::uint64_t loop_span = tracer->add("eco.loop", loop_start, loop_stop);
    for (std::size_t op = 0; op < iteration_marks.size(); ++op) {
      const auto& marks = iteration_marks[op];
      const std::uint64_t span =
          tracer->add("eco.iteration", marks.front(), marks.back(), loop_span, op + 1);
      for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
        tracer->add(kKindNames[order[i]], marks[i], marks[i + 1], span, op + 1);
      }
    }
    DaemonPhase phase;
    phase.delta = delta;
    phase.op_ms = result.op_ms;
    phase.requests_per_op = kRequestsPerIteration;
    phase.round_trips_per_op = kRequestsPerIteration;
    phase.rtt_ms = rtt;
    phase.decode_us = replay_decode_us(sample_lines);
    phase.request_bytes_per_op = request_bytes / iterations;
    phase.socket = false;
    set_daemon_layers(phase, result.layers);

    const double queries = iterations * kWatched;
    result.layers.set("session.query_cache_hit_pct",
                      100.0 * get(delta, "metrics/counters/incremental.cache_hit") / queries,
                      "%");
    double cone = 0.0, settled = 0.0;
    for (const std::string& reply : commit_replies) {
      const Json doc = Json::parse(reply);
      const Json& body = *doc.find("result");
      cone += body.find("nodes_reevaluated")->as_number();
      settled += body.find("settled_early")->as_number();
    }
    result.layers.set("incremental.cone_nodes_per_commit",
                      cone / static_cast<double>(commit_replies.size()), "count");
    result.layers.set("incremental.settled_early_pct", cone > 0 ? 100.0 * settled / cone : 0.0,
                      "%");
    const std::string texts[] = {text};
    replay_design_layers(texts, options.seed, result.layers);
  }
  return result;
}

}  // namespace spsta_bench

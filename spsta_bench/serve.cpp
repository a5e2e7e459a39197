// serve: the steady serving shape. An open-loop client drives
// `spsta_serviced --listen --workers=2` over two JSON-lines connections
// with a warm mix (60% analyze, 30% endpoint query, 10% plan-cache-hit
// load), so transport, JSON, the pool queue and the result cache carry the
// work while the engines stay idle. Phases: 1000 rps, 6000 rps, then
// saturation with 32 requests outstanding per connection. Open-loop
// requests are timed from their due time.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sys/prctl.h>

#include "bench.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas89.hpp"
#include "service/service.hpp"
#include "stats/rng.hpp"

namespace spsta_bench {

namespace {

using spsta::netlist::NodeId;

constexpr const char* kCircuits[] = {"s298", "s344", "s386", "s1238"};
constexpr spsta::Engine kEngines[] = {spsta::Engine::SpstaMoment, spsta::Engine::Ssta,
                                      spsta::Engine::Canonical};
constexpr std::size_t kLoadTexts = 8;
constexpr double kLowRps = 1000.0;
constexpr double kHighRps = 6000.0;
constexpr unsigned kConnections = 2;
constexpr unsigned kWindow = 32;  ///< saturation: outstanding requests per connection
constexpr double kSatWindowSeconds = 0.25;  ///< quiet-window length of the saturated phase
// Phase lengths as shares of --seconds: 4 : 8 : 9. The saturated rate
// follows the host's slow periods, so its phase is the longest; the 1000 rps
// phase feeds no gated metric.
constexpr double kLowShare = 4.0 / 21.0;
constexpr double kHighShare = 8.0 / 21.0;
constexpr double kSatShare = 9.0 / 21.0;

/// One distinct question of the mix. Every answer to it must match the
/// answer recorded at set-up byte for byte (bar id and trace id).
struct Shape {
  enum class Kind { Analyze, Query, Load };
  Kind kind = Kind::Analyze;
  std::string body;  ///< the request after `{"id":N,`
  std::size_t circuit = 0;
  std::size_t engine = 0;
  NodeId node = 0;
  std::size_t text = 0;
};

struct Inputs {
  std::vector<spsta::netlist::Netlist> circuits;
  std::vector<std::string> keys;   ///< session key per circuit
  std::vector<std::string> texts;  ///< the rotating load texts
  std::vector<Shape> shapes;
  std::vector<std::size_t> query_base;  ///< first query shape of each circuit
  std::size_t load_base = 0;
};

Inputs make_inputs() {
  Inputs in;
  for (const char* name : kCircuits) {
    in.circuits.push_back(spsta::netlist::make_paper_circuit(name));
    in.keys.push_back(spsta::service::hash_key(
        spsta::service::load_content_hash("circuit", name)));
  }
  for (std::size_t s = 0; s < kLoadTexts; ++s) {
    spsta::netlist::GeneratorSpec spec;
    spec.name = "serve_load_" + std::to_string(s);
    spec.num_inputs = 12;
    spec.num_outputs = 6;
    spec.num_gates = 160;
    spec.target_depth = 9;
    spec.seed = 1000 + s;
    in.texts.push_back(spsta::netlist::write_bench(spsta::netlist::generate_circuit(spec)));
  }
  for (std::size_t c = 0; c < in.circuits.size(); ++c) {
    for (std::size_t e = 0; e < std::size(kEngines); ++e) {
      Shape s;
      s.kind = Shape::Kind::Analyze;
      s.circuit = c;
      s.engine = e;
      s.body = R"("cmd":"analyze","session":")" + in.keys[c] + R"(","engine":")" +
               std::string(spsta::to_string(kEngines[e])) + "\"}";
      in.shapes.push_back(std::move(s));
    }
  }
  for (std::size_t c = 0; c < in.circuits.size(); ++c) {
    in.query_base.push_back(in.shapes.size());
    for (const NodeId ep : in.circuits[c].timing_endpoints()) {
      Shape s;
      s.kind = Shape::Kind::Query;
      s.circuit = c;
      s.node = ep;
      s.body = R"("cmd":"query","session":")" + in.keys[c] + R"(","node":)" +
               std::to_string(ep) + "}";
      in.shapes.push_back(std::move(s));
    }
  }
  in.load_base = in.shapes.size();
  for (std::size_t t = 0; t < in.texts.size(); ++t) {
    Shape s;
    s.kind = Shape::Kind::Load;
    s.text = t;
    s.body = R"("cmd":"load","format":"bench","text":)" + Json(in.texts[t]).dump() + "}";
    in.shapes.push_back(std::move(s));
  }
  return in;
}

/// The request mix: 60% analyze (engines in rotation), 30% endpoint query,
/// 10% load of the rotating texts.
std::vector<std::uint32_t> draw_mix(const Inputs& in, spsta::stats::Xoshiro256& rng,
                                    std::size_t count) {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  std::size_t analyzes = 0, loads = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform();
    const std::size_t c = rng.uniform_index(in.circuits.size());
    std::size_t shape = 0;
    if (u < 0.6) {
      shape = c * std::size(kEngines) + analyzes++ % std::size(kEngines);
    } else if (u < 0.9) {
      const std::size_t endpoints = in.circuits[c].timing_endpoints().size();
      shape = in.query_base[c] + rng.uniform_index(endpoints);
    } else {
      shape = in.load_base + loads++ % in.texts.size();
    }
    out.push_back(static_cast<std::uint32_t>(shape));
  }
  return out;
}

std::string request_line(std::uint64_t id, const Shape& shape) {
  return "{\"id\":" + std::to_string(id) + "," + shape.body;
}

enum Outcome : unsigned char { kLost = 0, kMatch, kMismatch, kError };

Outcome classify(const std::optional<std::string>& reply, const std::string& canonical) {
  if (!reply) return kLost;
  if (!reply_ok(*reply)) return kError;
  return reply_payload(*reply) == canonical ? kMatch : kMismatch;
}

/// A daemon with the four sessions and the load texts preloaded and every
/// shape answered twice; the second answers are the canonical ones.
struct Server {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<LineChannel>> conns;
  std::vector<std::string> canonical;  ///< reply payload per shape
};

Server start_server(const Inputs& in) {
  Server server;
  // A deep queue: admission control is not what serve measures, and a host
  // stall of a few tens of ms at 6000 rps would otherwise shed requests.
  server.daemon = std::make_unique<Daemon>(
      std::vector<std::string>{"--listen=127.0.0.1:0", "--workers=2", "--queue-cap=4096"});
  const std::uint16_t port = server.daemon->listening_port();
  for (unsigned c = 0; c < kConnections; ++c) {
    server.conns.push_back(std::make_unique<LineChannel>(connect_local(port)));
  }
  LineChannel& ch = *server.conns.front();
  for (std::size_t c = 0; c < in.circuits.size(); ++c) {
    const auto reply = ch.round_trip(std::string(R"({"id":0,"cmd":"load","circuit":")") +
                                     kCircuits[c] + "\"}");
    if (!reply || !reply_ok(*reply) || reply->find(in.keys[c]) == std::string::npos) {
      throw std::runtime_error("serve: preload of " + std::string(kCircuits[c]) + " failed");
    }
  }
  server.canonical.resize(in.shapes.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < in.shapes.size(); ++s) {
      const auto reply = ch.round_trip(request_line(0, in.shapes[s]));
      if (!reply || !reply_ok(*reply)) {
        throw std::runtime_error("serve: priming failed: " + in.shapes[s].body.substr(0, 80));
      }
      if (pass == 1) server.canonical[s] = std::string(reply_payload(*reply));
    }
  }
  return server;
}

void stop_server(Server& server) {
  (void)server.conns.front()->round_trip(R"({"id":0,"cmd":"shutdown"})");
  server.conns.clear();
  (void)server.daemon->stop();
}

/// One open-loop phase: request i is due at start + i / rps, sent on
/// connection i % 2, and timed from its due time.
struct OpenLoopLog {
  std::vector<std::uint32_t> shape;
  std::vector<Clock::time_point> due, sent, done;
  std::vector<unsigned char> outcome;
  std::vector<std::size_t> bytes;
  Clock::time_point start, end;
};

OpenLoopLog run_open_loop(Server& server, const Inputs& in, std::vector<std::uint32_t> mix,
                          double rps, std::uint64_t first_id) {
  const std::size_t n = mix.size();
  OpenLoopLog log;
  log.shape = std::move(mix);
  log.due.resize(n);
  log.sent.resize(n);
  log.done.resize(n);
  log.outcome.assign(n, kLost);
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back(request_line(first_id + i, in.shapes[log.shape[i]]));
    log.bytes.push_back(lines.back().size() + 1);
  }

  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::size_t> slots;  ///< awaiting replies, in send order
    bool closed = false;
  };
  Flight flights[kConnections];
  const auto receive = [&](unsigned c) {
    Flight& f = flights[c];
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(f.mutex);
        f.cv.wait(lock, [&] { return !f.slots.empty() || f.closed; });
        if (f.slots.empty()) return;
      }
      const std::optional<std::string> reply = server.conns[c]->recv();
      const Clock::time_point now = Clock::now();
      std::size_t slot = 0;
      {
        const std::lock_guard<std::mutex> lock(f.mutex);
        slot = f.slots.front();
        f.slots.pop_front();
      }
      log.done[slot] = now;
      log.outcome[slot] = classify(reply, server.canonical[log.shape[slot]]);
      if (!reply) return;  // connection gone: the rest stay kLost
    }
  };
  std::vector<std::thread> receivers;
  for (unsigned c = 0; c < kConnections; ++c) receivers.emplace_back(receive, c);

  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rps));
  log.start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < n; ++i) {
    log.due[i] = log.start + period * static_cast<Clock::rep>(i);
    std::this_thread::sleep_until(log.due[i]);
    Flight& f = flights[i % kConnections];
    {
      const std::lock_guard<std::mutex> lock(f.mutex);
      f.slots.push_back(i);
    }
    f.cv.notify_one();
    log.sent[i] = Clock::now();
    (void)server.conns[i % kConnections]->send(lines[i]);
  }
  for (Flight& f : flights) {
    {
      const std::lock_guard<std::mutex> lock(f.mutex);
      f.closed = true;
    }
    f.cv.notify_all();
  }
  for (std::thread& t : receivers) t.join();
  log.end = Clock::now();
  return log;
}

/// Saturation: every connection keeps kWindow requests outstanding until
/// the phase ends; capacity counts replies received inside the phase.
struct SatLog {
  std::uint64_t sent = 0, lost = 0, errors = 0, mismatches = 0;
  std::vector<double> latency_ms;
  std::vector<Clock::time_point> done;  ///< replies received inside the phase
  Clock::time_point start, end;
};

SatLog run_saturation(Server& server, const Inputs& in, const std::vector<std::uint32_t>& pool,
                      double seconds, std::uint64_t first_id) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  SatLog per_conn[kConnections];
  const auto saturate = [&](unsigned c) {
    SatLog& log = per_conn[c];
    LineChannel& ch = *server.conns[c];
    std::deque<std::pair<Clock::time_point, std::uint32_t>> inflight;
    std::size_t next = c;
    const auto send_next = [&] {
      const std::uint32_t shape = pool[next % pool.size()];
      const std::string line = request_line(first_id + next, in.shapes[shape]);
      next += kConnections;
      inflight.emplace_back(Clock::now(), shape);
      ++log.sent;
      return ch.send(line);
    };
    bool alive = true;
    for (unsigned k = 0; k < kWindow && alive; ++k) alive = send_next();
    while (alive && !inflight.empty()) {
      const std::optional<std::string> reply = ch.recv();
      const Clock::time_point now = Clock::now();
      const auto [sent_at, shape] = inflight.front();
      inflight.pop_front();
      switch (classify(reply, server.canonical[shape])) {
        case kLost: alive = false; ++log.lost; break;
        case kError: ++log.errors; break;
        case kMismatch: ++log.mismatches; break;
        case kMatch: break;
      }
      if (!alive) break;
      log.latency_ms.push_back(ms_between(sent_at, now));
      if (now <= end) {
        log.done.push_back(now);
        alive = send_next();
      }
    }
    log.lost += inflight.size();
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kConnections; ++c) clients.emplace_back(saturate, c);
  for (std::thread& t : clients) t.join();
  SatLog total;
  for (const SatLog& log : per_conn) {
    total.sent += log.sent;
    total.lost += log.lost;
    total.errors += log.errors;
    total.mismatches += log.mismatches;
    total.latency_ms.insert(total.latency_ms.end(), log.latency_ms.begin(),
                            log.latency_ms.end());
    total.done.insert(total.done.end(), log.done.begin(), log.done.end());
  }
  total.start = start;
  total.end = end;
  return total;
}

/// Checks every canonical answer against in-process Analyzer results.
void verify_canonical(const Inputs& in, const Server& server, RunResult& result) {
  std::vector<std::vector<spsta::AnalysisResult>> reference(in.circuits.size());
  for (std::size_t c = 0; c < in.circuits.size(); ++c) {
    spsta::Analyzer analyzer = session_analyzer(in.circuits[c]);
    for (const spsta::Engine e : kEngines) {
      spsta::AnalysisRequest request;
      request.engine = e;
      reference[c].push_back(analyzer.run(request).result);
    }
  }
  for (std::size_t s = 0; s < in.shapes.size(); ++s) {
    const Shape& shape = in.shapes[s];
    const Json doc = Json::parse("{\"id\":0" + server.canonical[s] + "}");
    const Json& body = *doc.find("result");
    std::string why;
    bool ok = true;
    switch (shape.kind) {
      case Shape::Kind::Analyze:
        ok = endpoints_match(body, reference[shape.circuit][shape.engine], &why);
        break;
      case Shape::Kind::Query:
        ok = node_matches(*body.find("stats"), reference[shape.circuit][0], shape.node, &why);
        break;
      case Shape::Kind::Load: {
        const std::string key = spsta::service::hash_key(
            spsta::service::load_content_hash("bench", in.texts[shape.text]));
        const Json* session = body.find("session");
        const Json* nodes = body.find("nodes");
        ok = session != nullptr && session->is_string() && session->as_string() == key &&
             nodes != nullptr &&
             nodes->as_number() == static_cast<double>(
                                       spsta::netlist::parse_bench(in.texts[shape.text])
                                           .node_count());
        why = "load reply names another session or size";
        break;
      }
    }
    if (!ok) result.fail("serve: " + shape.body.substr(0, 60) + ": " + why);
  }
}

}  // namespace

RunResult run_serve(const Options& options, Tracer* tracer) {
  // Sub-microsecond timer slack keeps the open-loop schedule on time.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  RunResult result;
  const Inputs in = make_inputs();
  spsta::stats::Xoshiro256 rng(options.seed);
  const auto count = [&](double rps, double share) {
    return std::max<std::size_t>(16, static_cast<std::size_t>(rps * options.seconds * share));
  };
  std::vector<std::uint32_t> low_mix = draw_mix(in, rng, count(kLowRps, kLowShare));
  std::vector<std::uint32_t> high_mix = draw_mix(in, rng, count(kHighRps, kHighShare));
  const std::vector<std::uint32_t> sat_pool = draw_mix(in, rng, 8192);

  std::vector<double> setups;
  Server server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server.daemon) stop_server(server);
    const Clock::time_point t0 = Clock::now();
    server = start_server(in);
    setups.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  result.setup_s = median(setups);

  // The layers are attributed on the 6000 rps phase, the one op_p50/op_p95
  // report; a traced run brackets it with two `stats` snapshots.
  LineChannel& control = *server.conns.front();
  const OpenLoopLog low = run_open_loop(server, in, std::move(low_mix), kLowRps, 1);
  const Counters before = tracer ? daemon_stats(control) : Counters{};
  const OpenLoopLog high =
      run_open_loop(server, in, std::move(high_mix), kHighRps, 1 + low.shape.size());
  const Counters high_delta = tracer ? diff(before, daemon_stats(control)) : Counters{};
  const SatLog sat = run_saturation(server, in, sat_pool, options.seconds * kSatShare,
                                    1 + low.shape.size() + high.shape.size());

  const double rtt = tracer ? idle_transport_rtt_ms(control) : 0.0;
  stop_server(server);
  verify_canonical(in, server, result);

  // Latencies from the due time; a failed request misses every limit. The
  // first quarter of a phase is settling time and is not counted: after a
  // rate change one connection's replies can go out uncoalesced for a
  // second or two before the steady mode sets in.
  const auto latencies = [&](const OpenLoopLog& log, double* late_ms) {
    std::vector<double> ms;
    for (std::size_t i = log.due.size() / 4; i < log.due.size(); ++i) {
      const bool answered = log.outcome[i] == kMatch || log.outcome[i] == kMismatch;
      ms.push_back(answered ? ms_between(log.due[i], log.done[i])
                            : std::numeric_limits<double>::infinity());
      *late_ms += ms_between(log.due[i], log.sent[i]);
    }
    return ms;
  };
  double low_late = 0.0, high_late = 0.0;
  const std::vector<double> low_ms = latencies(low, &low_late);
  const std::vector<double> high_ms = latencies(high, &high_late);

  std::uint64_t lost = sat.lost, errors = sat.errors, mismatches = sat.mismatches;
  for (const OpenLoopLog* log : {&low, &high}) {
    for (const unsigned char o : log->outcome) {
      lost += o == kLost;
      errors += o == kError;
      mismatches += o == kMismatch;
    }
  }
  if (mismatches > 0) {
    result.fail("serve: " + std::to_string(mismatches) +
                " answers differ from the verified canonical answers");
  }
  result.attempted = low.shape.size() + high.shape.size() + sat.sent;
  result.failed = lost + errors;
  result.op_ms = high_ms;
  // Open-loop latency is not filtered by quiet windows: at 6000 rps it is
  // set by the transport's reply coalescing, and a window where replies go
  // out uncoalesced would pass for the quietest.
  result.e2e.p50_ms = percentile(high_ms, 0.50);
  result.e2e.p95_ms = percentile(high_ms, 0.95);
  result.e2e.kept_share = 1.0;
  // The op rate of an open loop is its schedule; capacity is the saturated rate.
  result.e2e.ops_per_s = quiet_rate(sat.done, sat.start, sat.end, kSatWindowSeconds);

  const double high_n = static_cast<double>(high.shape.size());
  result.detail.set("serve_lo_p95_ms", percentile(low_ms, 0.95), "ms");
  result.detail.set("serve_hi_p50_ms", percentile(high_ms, 0.50), "ms");
  result.detail.set("serve_hi_p95_ms", percentile(high_ms, 0.95), "ms");
  result.detail.set("serve_capacity_rps",
                    static_cast<double>(sat.done.size()) /
                        std::chrono::duration<double>(sat.end - sat.start).count(),
                    "req/s");
  result.diag.set("diag.serve_lo_p50_ms", percentile(low_ms, 0.50), "ms");
  result.diag.set("diag.serve_hi_p99_ms", percentile(high_ms, 0.99), "ms");
  result.diag.set("diag.serve_sat_p50_ms", percentile(sat.latency_ms, 0.50), "ms");
  result.diag.set("diag.serve_lo_late_ms", low_late / static_cast<double>(low_ms.size()), "ms");
  result.diag.set("diag.serve_hi_late_ms", high_late / static_cast<double>(high_ms.size()),
                  "ms");
  result.diag.set("diag.serve_hi_achieved_rps",
                  high_n / std::chrono::duration<double>(high.end - high.start).count(),
                  "req/s");

  if (tracer != nullptr) {
    const auto trace_phase = [&](const char* name, const OpenLoopLog& log) {
      const std::uint64_t phase = tracer->add(name, log.start, log.end);
      for (std::size_t i = 0; i < log.due.size(); ++i) {
        if (log.outcome[i] == kLost) continue;
        const Shape::Kind kind = in.shapes[log.shape[i]].kind;
        const char* op = kind == Shape::Kind::Analyze ? "serve.analyze"
                         : kind == Shape::Kind::Query ? "serve.query"
                                                      : "serve.load";
        const std::uint64_t span = tracer->add(op, log.due[i], log.done[i], phase, i + 1);
        tracer->add("round_trip", log.sent[i], log.done[i], span, i + 1);
      }
    };
    trace_phase("serve.lo", low);
    trace_phase("serve.hi", high);
    tracer->add("serve.sat", sat.start, sat.end);

    std::vector<std::string> sample;
    double bytes = 0.0;
    for (std::size_t i = 0; i < high.shape.size(); ++i) {
      bytes += static_cast<double>(high.bytes[i]);
      if (sample.size() < 4096) sample.push_back(request_line(i, in.shapes[high.shape[i]]));
    }
    DaemonPhase phase;
    phase.delta = high_delta;
    phase.op_ms = high_ms;
    phase.late_ms = high_late;
    phase.rtt_ms = rtt;
    phase.decode_us = replay_decode_us(sample);
    phase.request_bytes_per_op = bytes / high_n;
    phase.socket = true;
    set_daemon_layers(phase, result.layers);

    std::vector<std::string> texts;
    for (const auto& circuit : in.circuits) texts.push_back(spsta::netlist::write_bench(circuit));
    texts.insert(texts.end(), in.texts.begin(), in.texts.end());
    replay_design_layers(texts, options.seed, result.layers);
  }
  return result;
}

}  // namespace spsta_bench

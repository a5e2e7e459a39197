// service_load — open-loop load generator for the analysis service's
// sharded worker-pool runtime (ROADMAP item 1, DESIGN.md §13/§15).
//
// Open loop means request submission follows a fixed schedule (target RPS)
// regardless of how fast responses come back — the generator never slows
// down to match the server, so queue growth, admission-control sheds and
// tail latency under overload are actually visible (a closed-loop client
// would coordinate-omit them away).
//
// Two transports drive the identical workload:
//   * pool (default): WorkerPool::submit in-process — the service runtime
//     minus any framing, exactly what `spsta_serviced --workers=N` wraps;
//   * socket (--listen): an in-process SocketServer serving N real TCP
//     connections (--conns), JSON lines or, with --frames, the
//     length-prefixed binary frame protocol — the full DESIGN.md §15
//     stack including framing, per-connection reordering and write
//     backpressure. Sojourn is then measured at the client.
//
// Overload feedback is honored, not just counted: with --retry, a request
// answered `overloaded` is resubmitted after sleeping the server's
// retry_after_ms hint (capped), up to N times; the report separates
// first-pass sheds from post-retry outcomes and counts retried /
// gave-up requests — so the committed snapshot exercises the feedback
// loop the admission controller exists to close.
//
// Workload mix per request (deterministic, seeded):
//   * warm (default 90%): analyze/query against one of the preloaded
//     ISCAS-scale sessions, rotating engines (spsta_moment, ssta,
//     canonical) — mostly result-cache hits, the steady-state serving
//     shape;
//   * cold (the rest): a `load` of a generator-built netlist from a small
//     rotating set — some loads are cross-session plan-cache hits,
//     first-timers pay parse + plan compile on the shard.
//
//   $ bench/service_load --rps=500 --seconds=5 --shards=8
//         --queue-cap=256 --warm=0.9 --json=BENCH_service_load.json
//   $ bench/service_load --listen --conns=4 --frames --retry
//
// The committed BENCH_service_load.json snapshot is produced by
// --snapshot (fixed small settings for comparable per-PR trajectories).

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas89.hpp"
#include "obs/metrics.hpp"
#include "service/json.hpp"
#include "service/transport/client.hpp"
#include "service/transport/server.hpp"
#include "service/worker_pool.hpp"
#include "stats/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using spsta::service::AnalysisService;
using spsta::service::Json;
using spsta::service::Response;
using spsta::service::WorkerPool;
using spsta::service::WorkerPoolStats;
namespace transport = spsta::service::transport;

struct Config {
  double rps = 500.0;
  double seconds = 5.0;
  unsigned shards = 0;  // 0 = hardware
  std::size_t queue_capacity = 256;
  double warm_ratio = 0.9;
  double deadline_ms = -1.0;  // <0: none
  std::uint64_t seed = 42;
  std::string json_path;
  bool snapshot = false;

  // Transport (DESIGN.md §15): empty = in-process pool, else a host:port
  // the bench binds an in-process SocketServer on.
  std::string listen;
  unsigned conns = 4;
  bool frames = false;

  // Overload feedback: 0 = shed-and-count (the old behavior), N = honor
  // retry_after_ms up to N resubmissions per request.
  unsigned max_retries = 0;
  double retry_cap_ms = 1000.0;
};

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Percentiles exact_percentiles(std::vector<double>& ms) {
  Percentiles p;
  if (ms.empty()) return p;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    const std::size_t i = static_cast<std::size_t>(q * (ms.size() - 1) + 0.5);
    return ms[std::min(i, ms.size() - 1)];
  };
  return {at(0.50), at(0.95), at(0.99)};
}

Json percentiles_json(const Percentiles& p) {
  Json j = Json::object();
  j.set("p50_ms", Json(p.p50));
  j.set("p95_ms", Json(p.p95));
  j.set("p99_ms", Json(p.p99));
  return j;
}

/// Final state of one request as the client saw it.
struct Completion {
  bool done = false;
  bool ok = false;
  std::string error_code;      ///< wire code; "transport" = connection died
  double retry_after_ms = -1;  ///< overload hint (when present)
  double sojourn_ms = 0.0;     ///< submit -> response
  std::string session;         ///< from load responses
};

Completion completion_of_response(const Response& r) {
  Completion c;
  c.done = true;
  c.ok = r.ok;
  c.sojourn_ms = r.span.queue_ms + r.span.execute_ms;
  if (r.ok) {
    if (const Json* s = r.body.find("session"); s != nullptr && s->is_string()) {
      c.session = s->as_string();
    }
  } else {
    c.error_code = std::string(r.error_code());
    if (const Json* ms = r.body.find("retry_after_ms");
        ms != nullptr && ms->is_number()) {
      c.retry_after_ms = ms->as_number();
    }
  }
  return c;
}

Completion completion_of_line(const std::string& line) {
  Completion c;
  c.done = true;
  try {
    const Json doc = Json::parse(line);
    const Json* ok = doc.find("ok");
    c.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (c.ok) {
      if (const Json* result = doc.find("result")) {
        if (const Json* s = result->find("session");
            s != nullptr && s->is_string()) {
          c.session = s->as_string();
        }
      }
    } else if (const Json* error = doc.find("error")) {
      if (const Json* code = error->find("code");
          code != nullptr && code->is_string()) {
        c.error_code = code->as_string();
      }
      if (const Json* ms = error->find("retry_after_ms");
          ms != nullptr && ms->is_number()) {
        c.retry_after_ms = ms->as_number();
      }
    }
  } catch (const std::exception&) {
    c.error_code = "client_parse";
  }
  return c;
}

/// Transport-independent submission surface: the harness submits request
/// lines against monotonically growing slots and reads completions back
/// after drain(). Both drivers answer every slot exactly once.
class LoadDriver {
 public:
  virtual ~LoadDriver() = default;
  virtual void submit(std::size_t slot, const std::string& line) = 0;
  /// Blocks until every submitted slot has a completion.
  virtual void drain() = 0;
  /// Valid after drain().
  virtual const Completion& result(std::size_t slot) const = 0;
  [[nodiscard]] virtual const char* transport() const = 0;
};

/// In-process WorkerPool driver: the submission path `spsta_serviced
/// --workers=N` wraps. Sojourn is the server-side queue+execute span.
class PoolDriver final : public LoadDriver {
 public:
  explicit PoolDriver(WorkerPool& pool) : pool_(pool) {}

  void submit(std::size_t slot, const std::string& line) override {
    if (results_.size() <= slot) {
      results_.resize(slot + 1);
      futures_.resize(slot + 1);
    }
    futures_[slot] = pool_.submit(line, Clock::now());
  }

  void drain() override {
    pool_.drain();
    for (std::size_t i = 0; i < futures_.size(); ++i) {
      if (results_[i].done || !futures_[i].valid()) continue;
      results_[i] = completion_of_response(futures_[i].get());
    }
  }

  const Completion& result(std::size_t slot) const override {
    return results_[slot];
  }

  const char* transport() const override { return "pool"; }

 private:
  WorkerPool& pool_;
  std::vector<std::future<Response>> futures_;
  std::vector<Completion> results_;
};

/// Real-TCP driver: N connections against a SocketServer, requests
/// round-robined across them, one receiver thread per connection reading
/// the in-order replies. Sojourn is client-measured (send -> receive),
/// so framing, reordering and socket writes are all inside the number.
class SocketDriver final : public LoadDriver {
 public:
  SocketDriver(const std::string& host, std::uint16_t port, unsigned conns,
               bool frames) {
    conns_.reserve(std::max(1u, conns));
    for (unsigned i = 0; i < std::max(1u, conns); ++i) {
      auto conn = std::make_unique<Conn>();
      if (!conn->client.connect(host, port, frames)) {
        throw std::runtime_error("service_load: cannot connect: " +
                                 conn->client.error());
      }
      conn->receiver = std::thread([c = conn.get()] { receiver_loop(*c); });
      conns_.push_back(std::move(conn));
    }
  }

  ~SocketDriver() override {
    for (const auto& conn : conns_) {
      {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        conn->closed = true;
        conn->cv.notify_all();
      }
      conn->client.finish_sending();
      if (conn->receiver.joinable()) conn->receiver.join();
    }
  }

  void submit(std::size_t slot, const std::string& line) override {
    if (results_.size() <= slot) results_.resize(slot + 1);
    Conn& conn = *conns_[next_++ % conns_.size()];
    {
      // Register the slot BEFORE sending: the reply can race the return
      // of send() and the receiver must already know which slot it is.
      const std::lock_guard<std::mutex> lock(conn.mutex);
      conn.inflight.push_back({slot, Clock::now()});
      conn.cv.notify_all();
    }
    if (!conn.client.send(line)) {
      // The receiver resolves the slot as a transport failure when it
      // notices the dead connection; nothing else to do here.
    }
  }

  void drain() override {
    for (const auto& conn : conns_) {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->cv.wait(lock, [&] { return conn->inflight.empty(); });
      for (auto& [slot, completion] : conn->completed) {
        results_[slot] = std::move(completion);
      }
      conn->completed.clear();
    }
  }

  const Completion& result(std::size_t slot) const override {
    return results_[slot];
  }

  const char* transport() const override { return "socket"; }

 private:
  struct Conn {
    transport::SocketClient client;
    std::mutex mutex;
    std::condition_variable cv;
    /// Slots awaiting their reply, in submission order (= reply order).
    std::deque<std::pair<std::size_t, Clock::time_point>> inflight;
    std::vector<std::pair<std::size_t, Completion>> completed;
    bool closed = false;
    std::thread receiver;
  };

  static void receiver_loop(Conn& conn) {
    for (;;) {
      std::pair<std::size_t, Clock::time_point> item;
      {
        std::unique_lock<std::mutex> lock(conn.mutex);
        conn.cv.wait(lock, [&] { return !conn.inflight.empty() || conn.closed; });
        if (conn.inflight.empty()) return;
        item = conn.inflight.front();
      }
      std::optional<transport::ClientReply> reply = conn.client.recv();
      const double sojourn =
          std::chrono::duration<double, std::milli>(Clock::now() - item.second)
              .count();
      const std::lock_guard<std::mutex> lock(conn.mutex);
      if (!reply) {
        // Connection gone: every outstanding slot fails as "transport".
        for (const auto& [slot, at] : conn.inflight) {
          Completion c;
          c.done = true;
          c.error_code = "transport";
          c.sojourn_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - at)
                  .count();
          conn.completed.emplace_back(slot, std::move(c));
        }
        conn.inflight.clear();
        conn.cv.notify_all();
        return;
      }
      Completion c = completion_of_line(reply->line);
      c.sojourn_ms = sojourn;
      conn.inflight.pop_front();
      conn.completed.emplace_back(item.first, std::move(c));
      conn.cv.notify_all();
    }
  }

  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t next_ = 0;
  std::vector<Completion> results_;
};

/// One request line of the mix. `tick` indexes the submission schedule.
std::string make_line(std::uint64_t tick, double u, const Config& config,
                      const std::vector<std::string>& warm_keys,
                      const std::vector<std::string>& cold_texts) {
  std::string line;
  if (u < config.warm_ratio && !warm_keys.empty()) {
    static constexpr const char* kEngines[] = {"spsta_moment", "ssta", "canonical"};
    const std::string& key = warm_keys[tick % warm_keys.size()];
    line = R"({"id":)" + std::to_string(tick) + R"(,"cmd":"analyze","session":")" +
           key + R"(","engine":")" + kEngines[tick % 3] + "\"";
  } else {
    const std::string& text = cold_texts[tick % cold_texts.size()];
    line = R"({"id":)" + std::to_string(tick) +
           R"(,"cmd":"load","format":"bench","text":)" +
           Json(text).dump();
  }
  if (config.deadline_ms >= 0) {
    line += ",\"deadline_ms\":" + std::to_string(config.deadline_ms);
  }
  line += "}";
  return line;
}

Json pool_stats_json(const WorkerPoolStats& stats) {
  Json j = Json::object();
  j.set("submitted", Json(stats.submitted));
  j.set("executed", Json(stats.executed));
  j.set("rejected_overload", Json(stats.rejected_overload));
  j.set("deadline_shed", Json(stats.deadline_shed));
  j.set("parse_errors", Json(stats.parse_errors));
  j.set("shutdown_shed", Json(stats.shutdown_shed));
  // The accounting identity of DESIGN.md §13 — CI asserts this is true
  // in the committed snapshot.
  j.set("identity_holds", Json(stats.submitted == stats.resolved()));
  return j;
}

int run(const Config& config) {
  AnalysisService service;

  // --- Transport setup. Either way ONE sharded pool executes everything.
  std::unique_ptr<WorkerPool> own_pool;
  std::unique_ptr<transport::SocketServer> server;
  std::thread serve_thread;
  std::unique_ptr<LoadDriver> driver;
  WorkerPool* pool = nullptr;
  if (config.listen.empty()) {
    own_pool = std::make_unique<WorkerPool>(
        service,
        spsta::service::WorkerPoolOptions{config.shards, config.queue_capacity});
    pool = own_pool.get();
    driver = std::make_unique<PoolDriver>(*pool);
  } else {
    const auto spec = transport::parse_host_port(config.listen);
    if (!spec) {
      std::fprintf(stderr, "bad --listen spec '%s' (want HOST:PORT)\n",
                   config.listen.c_str());
      return 2;
    }
    transport::SocketServerOptions options;
    options.host = spec->host;
    options.port = spec->port;
    options.serve.workers = config.shards;
    options.serve.queue_capacity = config.queue_capacity;
    server = std::make_unique<transport::SocketServer>(service, options);
    std::uint16_t port = 0;
    try {
      port = server->listen();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    serve_thread = std::thread([&] { (void)server->serve(); });
    pool = &server->pool();
    try {
      driver = std::make_unique<SocketDriver>(spec->host, port, config.conns,
                                              config.frames);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      server->stop();
      serve_thread.join();
      return 1;
    }
  }
  const auto teardown = [&] {
    driver.reset();  // joins receivers / resolves futures
    if (server) {
      server->stop();
      if (serve_thread.joinable()) serve_thread.join();
    }
  };

  std::size_t next_slot = 0;

  // --- Preload the warm set (cross-shard: each circuit routes by its own
  // content hash).
  std::vector<std::string> warm_keys;
  {
    const std::size_t base = next_slot;
    const char* names[] = {"s27", "s298", "s344", "s386"};
    for (const char* name : names) {
      driver->submit(next_slot++, R"({"cmd":"load","circuit":")" +
                                      std::string(name) + "\"}");
    }
    driver->drain();
    for (std::size_t i = 0; i < std::size(names); ++i) {
      const Completion& c = driver->result(base + i);
      if (!c.ok || c.session.empty()) {
        std::fprintf(stderr, "preload of %s failed (%s)\n", names[i],
                     c.error_code.c_str());
        teardown();
        return 1;
      }
      warm_keys.push_back(c.session);
    }
  }
  // Prime the analysis caches so the warm mix measures steady state.
  for (const std::string& key : warm_keys) {
    for (const char* engine : {"spsta_moment", "ssta", "canonical"}) {
      driver->submit(next_slot++, R"({"cmd":"analyze","session":")" + key +
                                      R"(","engine":")" + engine + "\"}");
    }
  }
  driver->drain();

  // --- Cold set: generator-built netlists serialized to .bench text.
  std::vector<std::string> cold_texts;
  for (std::uint64_t s = 0; s < 8; ++s) {
    spsta::netlist::GeneratorSpec spec;
    spec.name = "load_cold_" + std::to_string(s);
    spec.num_inputs = 12;
    spec.num_outputs = 6;
    spec.num_gates = 160;
    spec.target_depth = 9;
    spec.seed = 1000 + s;
    cold_texts.push_back(spsta::netlist::write_bench(spsta::netlist::generate_circuit(spec)));
  }

  // Preload/priming latency must not pollute the measured histograms.
  spsta::obs::registry().reset_values();

  // --- Open-loop run: submit on the fixed schedule, harvest after drain.
  const auto total = static_cast<std::uint64_t>(config.rps * config.seconds);
  const auto period_ns = static_cast<std::uint64_t>(1e9 / config.rps);
  spsta::stats::Xoshiro256 rng(config.seed);

  const std::size_t first_slot = next_slot;
  std::vector<std::string> lines;  // kept for overload resubmission
  lines.reserve(total);

  const Clock::time_point start = Clock::now();
  std::uint64_t behind_schedule = 0;
  for (std::uint64_t tick = 0; tick < total; ++tick) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(tick * period_ns);
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
    } else if (Clock::now() > due + std::chrono::milliseconds(1)) {
      ++behind_schedule;  // submitter itself could not keep the schedule
    }
    const double u = rng.uniform();
    lines.push_back(make_line(tick, u, config, warm_keys, cold_texts));
    driver->submit(next_slot++, lines.back());
  }
  driver->drain();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  // --- Harvest the first pass.
  std::vector<double> sojourn_ms;
  sojourn_ms.reserve(total);
  std::vector<Completion> final_by_tick(total);
  std::uint64_t first_pass_overloaded = 0;
  for (std::uint64_t tick = 0; tick < total; ++tick) {
    const Completion& c = driver->result(first_slot + tick);
    sojourn_ms.push_back(c.sojourn_ms);
    if (c.error_code == "overloaded") ++first_pass_overloaded;
    final_by_tick[tick] = c;
  }

  // --- Overload feedback: resubmit shed requests after sleeping the
  // server's hint (capped), in waves, until answered or out of budget.
  std::uint64_t retried = 0, gave_up = 0;
  if (config.max_retries > 0) {
    struct Retryable {
      std::uint64_t tick;
      Clock::time_point due;
      unsigned attempts;
    };
    const auto backoff = [&](const Completion& c) {
      const double hint = c.retry_after_ms > 0 ? c.retry_after_ms : 1.0;
      return std::chrono::duration<double, std::milli>(
          std::clamp(hint, 1.0, config.retry_cap_ms));
    };
    std::vector<Retryable> wave;
    for (std::uint64_t tick = 0; tick < total; ++tick) {
      const Completion& c = final_by_tick[tick];
      if (c.error_code == "overloaded") {
        wave.push_back({tick, Clock::now() +
                                  std::chrono::duration_cast<Clock::duration>(
                                      backoff(c)),
                        1});
      }
    }
    while (!wave.empty()) {
      std::sort(wave.begin(), wave.end(),
                [](const Retryable& a, const Retryable& b) { return a.due < b.due; });
      const std::size_t wave_base = next_slot;
      for (const Retryable& r : wave) {
        std::this_thread::sleep_until(r.due);
        driver->submit(next_slot++, lines[r.tick]);
        ++retried;
      }
      driver->drain();
      std::vector<Retryable> next_wave;
      for (std::size_t i = 0; i < wave.size(); ++i) {
        const Completion& c = driver->result(wave_base + i);
        sojourn_ms.push_back(c.sojourn_ms);
        final_by_tick[wave[i].tick] = c;
        if (c.error_code == "overloaded") {
          if (wave[i].attempts >= config.max_retries) {
            ++gave_up;
          } else {
            next_wave.push_back({wave[i].tick,
                                 Clock::now() +
                                     std::chrono::duration_cast<Clock::duration>(
                                         backoff(c)),
                                 wave[i].attempts + 1});
          }
        }
      }
      wave = std::move(next_wave);
    }
  }

  // --- Final per-request outcomes (after any retries).
  std::uint64_t ok_count = 0, overloaded = 0, deadline = 0, failed = 0;
  for (const Completion& c : final_by_tick) {
    if (c.ok) {
      ++ok_count;
    } else if (c.error_code == "overloaded") {
      ++overloaded;
    } else if (c.error_code == "deadline_exceeded") {
      ++deadline;
    } else {
      ++failed;
    }
  }
  const Percentiles sojourn = exact_percentiles(sojourn_ms);

  const spsta::obs::Snapshot snap = spsta::obs::registry().snapshot();
  const Percentiles queue_wait{snap.histogram_quantile_ms("service.queue_wait", 0.50),
                               snap.histogram_quantile_ms("service.queue_wait", 0.95),
                               snap.histogram_quantile_ms("service.queue_wait", 0.99)};
  const Percentiles execute{snap.histogram_quantile_ms("service.execute", 0.50),
                            snap.histogram_quantile_ms("service.execute", 0.95),
                            snap.histogram_quantile_ms("service.execute", 0.99)};

  const double achieved_rps = static_cast<double>(total) / wall_seconds;
  const WorkerPoolStats pool_stats = pool->stats();
  const char* transport_name = driver->transport();

  std::printf("service_load: %llu requests over %.2f s (target %.0f rps, achieved %.0f)\n",
              static_cast<unsigned long long>(total), wall_seconds, config.rps,
              achieved_rps);
  std::printf("  transport=%s%s conns=%u shards=%u queue_cap=%zu warm=%.2f\n",
              transport_name, config.frames ? "+frames" : "",
              config.listen.empty() ? 0 : config.conns, pool->shards(),
              pool->queue_capacity(), config.warm_ratio);
  std::printf("  ok=%llu overloaded=%llu deadline=%llu failed=%llu behind=%llu\n",
              static_cast<unsigned long long>(ok_count),
              static_cast<unsigned long long>(overloaded),
              static_cast<unsigned long long>(deadline),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(behind_schedule));
  std::printf("  overload feedback: first_pass_shed=%llu retried=%llu gave_up=%llu (max %u)\n",
              static_cast<unsigned long long>(first_pass_overloaded),
              static_cast<unsigned long long>(retried),
              static_cast<unsigned long long>(gave_up), config.max_retries);
  std::printf("  sojourn   p50=%.3f ms  p95=%.3f ms  p99=%.3f ms (%s)\n",
              sojourn.p50, sojourn.p95, sojourn.p99,
              config.listen.empty() ? "server span" : "client measured");
  std::printf("  queue     p50=%.3f ms  p95=%.3f ms  p99=%.3f ms (obs histogram)\n",
              queue_wait.p50, queue_wait.p95, queue_wait.p99);
  std::printf("  execute   p50=%.3f ms  p95=%.3f ms  p99=%.3f ms (obs histogram)\n",
              execute.p50, execute.p95, execute.p99);
  std::printf("  pool: submitted=%llu executed=%llu rejected=%llu deadline=%llu"
              " parse_err=%llu shutdown=%llu (identity %s)\n",
              static_cast<unsigned long long>(pool_stats.submitted),
              static_cast<unsigned long long>(pool_stats.executed),
              static_cast<unsigned long long>(pool_stats.rejected_overload),
              static_cast<unsigned long long>(pool_stats.deadline_shed),
              static_cast<unsigned long long>(pool_stats.parse_errors),
              static_cast<unsigned long long>(pool_stats.shutdown_shed),
              pool_stats.submitted == pool_stats.resolved() ? "holds" : "BROKEN");
  std::printf("  plan cache: hits=%llu misses=%llu evictions=%llu\n",
              static_cast<unsigned long long>(service.store().plan_hits()),
              static_cast<unsigned long long>(service.store().plan_misses()),
              static_cast<unsigned long long>(service.store().evictions()));

  int exit_code = 0;
  if (!config.json_path.empty()) {
    Json j = Json::object();
    j.set("bench", Json("service_load"));
    j.set("transport", Json(std::string(transport_name)));
    j.set("binary_frames", Json(config.frames));
    j.set("connections",
          Json(static_cast<std::uint64_t>(config.listen.empty() ? 0 : config.conns)));
    j.set("target_rps", Json(config.rps));
    j.set("achieved_rps", Json(achieved_rps));
    j.set("seconds", Json(wall_seconds));
    j.set("requests", Json(total));
    j.set("shards", Json(static_cast<std::uint64_t>(pool->shards())));
    j.set("queue_capacity", Json(pool->queue_capacity()));
    j.set("warm_ratio", Json(config.warm_ratio));
    j.set("ok", Json(ok_count));
    j.set("overloaded", Json(overloaded));
    j.set("deadline_shed", Json(deadline));
    j.set("failed", Json(failed));
    j.set("behind_schedule", Json(behind_schedule));
    Json retry = Json::object();
    retry.set("max_retries", Json(static_cast<std::uint64_t>(config.max_retries)));
    retry.set("first_pass_shed", Json(first_pass_overloaded));
    retry.set("retried", Json(retried));
    retry.set("gave_up", Json(gave_up));
    j.set("retry", std::move(retry));
    j.set("sojourn", percentiles_json(sojourn));
    j.set("queue_wait", percentiles_json(queue_wait));
    j.set("execute", percentiles_json(execute));
    j.set("pool", pool_stats_json(pool_stats));
    Json store = Json::object();
    store.set("plan_hits", Json(service.store().plan_hits()));
    store.set("plan_misses", Json(service.store().plan_misses()));
    store.set("evictions", Json(service.store().evictions()));
    j.set("plan_cache", std::move(store));
    std::FILE* f = std::fopen(config.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", config.json_path.c_str());
      exit_code = 1;
    } else {
      std::fprintf(f, "%s\n", j.dump().c_str());
      std::fclose(f);
      std::printf("  snapshot -> %s\n", config.json_path.c_str());
    }
  }

  teardown();
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto num = [&](std::size_t prefix) { return std::stod(arg.substr(prefix)); };
    if (arg.rfind("--rps=", 0) == 0) {
      config.rps = num(6);
    } else if (arg.rfind("--seconds=", 0) == 0) {
      config.seconds = num(10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.shards = static_cast<unsigned>(num(9));
    } else if (arg.rfind("--queue-cap=", 0) == 0) {
      config.queue_capacity = static_cast<std::size_t>(num(12));
    } else if (arg.rfind("--warm=", 0) == 0) {
      config.warm_ratio = num(7);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      config.deadline_ms = num(14);
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = static_cast<std::uint64_t>(num(7));
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = arg.substr(7);
    } else if (arg == "--listen") {
      config.listen = "127.0.0.1:0";
    } else if (arg.rfind("--listen=", 0) == 0) {
      config.listen = arg.substr(9);
    } else if (arg.rfind("--conns=", 0) == 0) {
      config.conns = static_cast<unsigned>(num(8));
    } else if (arg == "--frames") {
      config.frames = true;
    } else if (arg == "--retry") {
      config.max_retries = 8;
    } else if (arg.rfind("--retry=", 0) == 0) {
      config.max_retries = static_cast<unsigned>(num(8));
    } else if (arg.rfind("--retry-cap-ms=", 0) == 0) {
      config.retry_cap_ms = num(15);
    } else if (arg == "--snapshot") {
      // Fixed, CI-sized settings: the committed per-PR trajectory point.
      // Retries are ON so the snapshot exercises the overload feedback
      // loop (retried/gave_up land in the committed JSON).
      config.snapshot = true;
      config.rps = 200.0;
      config.seconds = 3.0;
      config.shards = 4;
      config.queue_capacity = 64;
      if (config.max_retries == 0) config.max_retries = 8;
      if (config.json_path.empty()) config.json_path = "BENCH_service_load.json";
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "service_load — open-loop load generator for the worker-pool runtime\n"
          "  --rps=R          target submissions per second (default 500)\n"
          "  --seconds=S      run length (default 5)\n"
          "  --shards=N       worker shards (default: hardware)\n"
          "  --queue-cap=N    per-shard bounded queue (default 256)\n"
          "  --warm=F         warm (analyze) fraction of the mix (default 0.9)\n"
          "  --deadline-ms=D  attach a relative deadline to every request\n"
          "  --seed=S         mix RNG seed (default 42)\n"
          "  --listen[=H:P]   drive an in-process SocketServer over real TCP\n"
          "                   (default 127.0.0.1:0) instead of the in-process\n"
          "                   pool; sojourn is then client-measured\n"
          "  --conns=N        socket mode: client connections (default 4)\n"
          "  --frames         socket mode: length-prefixed binary frames\n"
          "  --retry[=N]      resubmit 'overloaded' requests after their\n"
          "                   retry_after_ms hint, up to N times (default 8)\n"
          "  --retry-cap-ms=C cap one retry sleep (default 1000)\n"
          "  --json=FILE      write a JSON snapshot\n"
          "  --snapshot       fixed CI settings (retry on) -> BENCH_service_load.json\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }
  return run(config);
}

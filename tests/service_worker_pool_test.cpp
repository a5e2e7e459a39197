// Tests for the sharded worker pool: content-hash affinity routing,
// admission control (bounded queues shed with a structured `overloaded`
// error carrying retry_after_ms), deadline shedding at dequeue and after
// the session mutex is won, drain semantics, and the runtime's connection
// over stdio and sockets: in-order responses, closed-loop round trips,
// trace lines, and the shutdown / EOF / blank / oversized-line contract.

#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include "netlist/iscas89.hpp"
#include "service/runtime.hpp"
#include "service/session.hpp"
#include "service/transport/server.hpp"
#include "service/worker_pool.hpp"
#include "util/fnv1a.hpp"

namespace spsta::service {
namespace {

Request parse_ok(const std::string& line) {
  auto parsed = parse_request(line);
  EXPECT_TRUE(std::holds_alternative<Request>(parsed)) << line;
  return std::get<Request>(std::move(parsed));
}

/// One client connection to the serving runtime, over stdio (the runtime
/// on a socketpair, as spsta_serviced runs it on fds 0/1) or over TCP (an
/// accepted socket of a SocketServer).
class Client {
 public:
  Client(AnalysisService& service, const ServeOptions& options, bool socket) {
    if (socket) {
      server_ = std::make_unique<transport::SocketServer>(
          service, transport::SocketServerOptions{.serve = options});
      const std::uint16_t port = server_->listen();
      thread_ = std::thread([this] { requests_ = server_->serve().requests; });
      fd_ = transport::tcp_connect("127.0.0.1", port, nullptr);
      return;
    }
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    fd_.reset(fds[0]);
    runtime_ = std::make_unique<Runtime>(service, options);
    thread_ = std::thread([this, server_fd = fds[1]] {
      const transport::ScopedFd stdio(server_fd);  // closing it ends our reads
      requests_ = runtime_->serve_connection(server_fd, server_fd).requests;
    });
  }
  ~Client() { (void)finish(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send(const std::string& bytes) {
    return transport::write_all(fd_.get(), bytes.data(), bytes.size());
  }

  /// The next reply line; nullopt at EOF or when none arrives in \p timeout.
  std::optional<std::string> recv(std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (const std::size_t nl = buffer_.find('\n'); nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      pollfd pfd{fd_.get(), POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) return std::nullopt;
      char chunk[4096];
      const ssize_t n = transport::read_some(fd_.get(), chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Ends our writes (EOF for the server), collects every remaining reply
  /// and joins the server.
  std::vector<std::string> finish() {
    std::vector<std::string> replies;
    if (!thread_.joinable()) return replies;
    ::shutdown(fd_.get(), SHUT_WR);
    while (std::optional<std::string> line = recv()) replies.push_back(*line);
    if (server_) server_->stop();
    thread_.join();
    return replies;
  }

  /// Requests the server read (valid after finish()).
  [[nodiscard]] std::uint64_t requests() const { return requests_; }

  /// The pool serving this connection, for loading it from the side.
  WorkerPool& pool() { return server_ ? server_->pool() : runtime_->pool(); }

 private:
  transport::ScopedFd fd_;
  std::string buffer_;
  std::unique_ptr<transport::SocketServer> server_;
  std::unique_ptr<Runtime> runtime_;  ///< stdio only
  std::uint64_t requests_ = 0;
  std::thread thread_;
};

TEST(ServiceWorkerPool, AffinityRoutesLoadAndItsSessionToOneShard) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 8, .queue_capacity = 16});

  // The load request routes on the content hash of what it loads...
  const std::string load_line = R"({"id":1,"cmd":"load","circuit":"s27"})";
  const unsigned load_shard = pool.route_shard(parse_ok(load_line));

  // ...and once loaded, every request naming the resulting session key
  // routes to the SAME shard: that is the affinity contract that keeps a
  // design's compiled plan hot on one worker.
  Response loaded = pool.submit(load_line).get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();
  const unsigned analyze_shard = pool.route_shard(
      parse_ok(R"({"cmd":"analyze","session":")" + key + R"("})"));
  EXPECT_EQ(analyze_shard, load_shard);

  // Identical load submitted again (a different client, same content):
  // same shard, and the session store dedups to one compiled plan.
  EXPECT_EQ(pool.route_shard(parse_ok(load_line)), load_shard);
  Response reloaded = pool.submit(load_line).get();
  ASSERT_TRUE(reloaded.ok);
  EXPECT_EQ(reloaded.body.find("session")->as_string(), key);
  EXPECT_GE(service.store().plan_hits(), 1u);
}

TEST(ServiceWorkerPool, ResponsesResolveThroughFuturesWithCorrectIds) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 4, .queue_capacity = 64});

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(
        pool.submit(R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})"));
  }
  for (int i = 0; i < 24; ++i) {
    const Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(r.ok) << r.to_line();
    EXPECT_EQ(r.id.as_number(), static_cast<double>(i));
  }
  EXPECT_EQ(pool.stats().executed, 24u);
  EXPECT_EQ(pool.stats().rejected_overload, 0u);
}

TEST(ServiceWorkerPool, FullQueueShedsWithOverloadedAndRetryAfterHint) {
  AnalysisService service;
  // One shard, minimal queue: occupy the worker with a genuinely slow
  // request (Monte Carlo with a large run count), fill the queue, then
  // every further submit must be shed immediately.
  WorkerPool pool(service, {.shards = 1, .queue_capacity = 1});

  Response loaded = pool.submit(R"({"cmd":"load","circuit":"s386"})").get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();

  const std::string slow = R"({"id":"slow","cmd":"analyze","session":")" + key +
                           R"(","engine":"mc","params":{"runs":20000}})";
  std::vector<std::future<Response>> slow_futures;
  // Enough slow requests that at least one is still queued whenever the
  // burst below arrives: worker busy + queue occupied = admission closed.
  for (int i = 0; i < 6; ++i) slow_futures.push_back(pool.submit(slow));

  std::uint64_t shed = 0;
  std::vector<std::future<Response>> burst;
  for (int i = 0; i < 32; ++i) {
    burst.push_back(
        pool.submit(R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})"));
  }
  for (auto& f : burst) {
    const Response r = f.get();
    if (r.ok) continue;
    EXPECT_EQ(r.error_code(), "overloaded");
    const Json* hint = r.body.find("retry_after_ms");
    ASSERT_NE(hint, nullptr) << r.to_line();
    EXPECT_GT(hint->as_number(), 0.0);
    ++shed;
  }
  EXPECT_GT(shed, 0u);

  // The slow submissions themselves overflow the 1-deep queue: some shed
  // too. Every admitted one completes; every response is one of the two.
  std::uint64_t slow_ok = 0, slow_shed = 0;
  for (auto& f : slow_futures) {
    const Response r = f.get();
    if (r.ok) {
      ++slow_ok;
    } else {
      EXPECT_EQ(r.error_code(), "overloaded") << r.to_line();
      ++slow_shed;
    }
  }
  EXPECT_GE(slow_ok, 1u);  // at least the one the worker was running
  EXPECT_EQ(pool.stats().rejected_overload, shed + slow_shed);
  pool.drain();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ServiceWorkerPool, StaleRequestsAreShedAtDequeue) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 2, .queue_capacity = 8});

  // Submit with an enqueue stamp far in the past and a tiny deadline: the
  // worker must shed at dequeue, not run the command.
  const auto long_ago =
      std::chrono::steady_clock::now() - std::chrono::seconds(30);
  const Response r =
      pool.submit(R"({"id":1,"cmd":"ping","deadline_ms":5})", long_ago).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code(), "deadline_exceeded");
  EXPECT_EQ(pool.stats().deadline_shed, 1u);
  EXPECT_EQ(pool.stats().executed, 0u);
}

TEST(ServiceWorkerPool, DrainWaitsForEveryAcceptedRequest) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 4, .queue_capacity = 256});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit(R"({"cmd":"ping"})"));
  }
  pool.drain();
  // After drain every accepted future is ready — no waiting in get().
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok);
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ServiceWorkerPool, MalformedLinesResolveImmediatelyWithParseError) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 2, .queue_capacity = 8});
  const Response r = pool.submit("}{ not json").get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code(), "parse_error");
}

TEST(ServiceWorkerPool, StatsIdentityHoldsAcrossEveryOutcomeClass) {
  // Every line handed to submit() must resolve through exactly one of the
  // five outcome counters: executed, rejected_overload, deadline_shed,
  // parse_errors, shutdown_shed. Drive the pool through all five and
  // assert the books balance — this is the identity the bench harness and
  // CI check on every service_load run.
  AnalysisService service;
  WorkerPool pool(service, {.shards = 1, .queue_capacity = 1});

  // deadline_shed: an already-stale request shed at dequeue (queue empty,
  // so it cannot be confused with an admission reject).
  const auto long_ago =
      std::chrono::steady_clock::now() - std::chrono::seconds(30);
  ASSERT_EQ(pool.submit(R"({"cmd":"ping","deadline_ms":5})", long_ago)
                .get()
                .error_code(),
            "deadline_exceeded");

  // parse_errors: answered at submit without touching a shard queue.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(pool.submit("}{ not json").get().error_code(), "parse_error");
  }

  // executed + rejected_overload: occupy the single worker with slow Monte
  // Carlo work, then burst past the 1-deep queue.
  Response loaded = pool.submit(R"({"cmd":"load","circuit":"s386"})").get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();
  const std::string slow = R"({"cmd":"analyze","session":")" + key +
                           R"(","engine":"mc","params":{"runs":20000}})";
  std::vector<std::future<Response>> inflight;
  for (int i = 0; i < 4; ++i) inflight.push_back(pool.submit(slow));
  for (int i = 0; i < 16; ++i) {
    inflight.push_back(pool.submit(R"({"cmd":"ping"})"));
  }

  // shutdown_shed: once accepting stops, new submissions resolve
  // immediately while everything already queued still completes.
  pool.stop_accepting();
  for (int i = 0; i < 2; ++i) {
    const Response r = pool.submit(R"({"cmd":"ping"})").get();
    EXPECT_EQ(r.error_code(), "overloaded");
    EXPECT_NE(r.body.find("message")->as_string().find("shutting down"),
              std::string::npos);
  }
  for (auto& f : inflight) (void)f.get();
  pool.drain();

  const WorkerPoolStats stats = pool.stats();
  EXPECT_GE(stats.executed, 2u);  // the load + at least one admitted slow
  EXPECT_GT(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.parse_errors, 3u);
  EXPECT_EQ(stats.shutdown_shed, 2u);
  EXPECT_EQ(stats.submitted, stats.resolved())
      << "identity broken: submitted=" << stats.submitted
      << " executed=" << stats.executed
      << " rejected=" << stats.rejected_overload
      << " deadline=" << stats.deadline_shed
      << " parse=" << stats.parse_errors
      << " shutdown=" << stats.shutdown_shed;
}

TEST(ServiceWorkerPool, PathLoadsSplitRoutingFromTheSessionTheyCreate) {
  // Documented KNOWN MISS in route_shard: a path load routes on
  // fnv1a(path) because the content is not in hand at routing time, but
  // the session it creates is keyed on the CONTENT hash — so later
  // requests naming that session generally land on a different shard.
  // This test quantifies the split and pins the contrast: text/circuit
  // loads colocate with their session, path loads need not.
  AnalysisService service;
  WorkerPool pool(service, {.shards = 16, .queue_capacity = 32});
  const unsigned n = 16;

  const std::string text{netlist::s27_bench_text()};
  const std::string dir = ::testing::TempDir();

  // Write the same netlist under several names and pick one whose path
  // hash disagrees with the content hash modulo the shard count — with 16
  // shards one of a handful of candidates always splits.
  std::string split_path;
  const std::uint64_t content_shard =
      pool.route_shard(parse_ok(R"({"cmd":"load","format":"bench","text":)" +
                                Json(text).dump() + "}"));
  for (const char* name : {"a.bench", "b.bench", "c.bench", "d.bench",
                           "e.bench", "f.bench", "g.bench", "h.bench"}) {
    const std::string candidate = dir + "/" + name;
    if (util::fnv1a(candidate) % n != content_shard) {
      split_path = candidate;
      break;
    }
  }
  ASSERT_FALSE(split_path.empty());
  {
    std::ofstream out(split_path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
  }

  const std::string path_line =
      R"({"cmd":"load","path":)" + Json(split_path).dump() + "}";
  const unsigned path_shard = pool.route_shard(parse_ok(path_line));
  EXPECT_EQ(path_shard, util::fnv1a(split_path) % n);

  Response loaded = pool.submit(path_line).get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();

  // The split: the session's traffic routes on the content hash, not the
  // path hash the load itself used.
  const unsigned session_shard = pool.route_shard(
      parse_ok(R"({"cmd":"analyze","session":")" + key + R"("})"));
  EXPECT_EQ(session_shard, content_shard);
  EXPECT_NE(session_shard, path_shard)
      << "path " << split_path << " was chosen to split, but routed with "
      << "its session — route_shard's path rule changed";

  // Contrast: an inline-text load of the identical netlist colocates with
  // the session, and dedups onto the same compiled plan either way.
  Response by_text = pool
                         .submit(R"({"cmd":"load","format":"bench","text":)" +
                                 Json(text).dump() + "}")
                         .get();
  ASSERT_TRUE(by_text.ok) << by_text.to_line();
  EXPECT_EQ(by_text.body.find("session")->as_string(), key);
  EXPECT_EQ(service.store().size(), 1u);
  pool.drain();
}

TEST(ServiceWorkerPool, DeadlineIsRecheckedAfterWinningTheSessionMutex) {
  // A request that was fresh at dequeue but burned its whole budget
  // waiting on same-session mutex contention must be shed at execute
  // start — by the handler, not by the pool's dequeue check.
  AnalysisService service;
  WorkerPool pool(service, {.shards = 2, .queue_capacity = 8});
  const Response loaded = pool.submit(R"({"id":1,"cmd":"load","circuit":"s27"})").get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();
  const std::shared_ptr<Session> session = service.store().find(key);
  ASSERT_NE(session, nullptr);

  std::future<Response> contended;
  {
    // The test plays the long-running same-session request by holding the
    // session mutex; the analyze passes the dequeue-time deadline check,
    // then blocks on the mutex until its deadline has certainly lapsed.
    const std::lock_guard<std::mutex> hold(session->mutex);
    contended = pool.submit(R"({"id":2,"cmd":"analyze","session":")" + key +
                            R"(","deadline_ms":400})");
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
  }
  const Response r = contended.get();
  EXPECT_EQ(r.error_code(), "deadline_exceeded") << r.to_line();
  EXPECT_EQ(pool.stats().deadline_shed, 0u);  // not the dequeue-side shed
  EXPECT_EQ(pool.stats().executed, 2u);
}

TEST(ServiceWorkerPool, PayloadsAreIdenticalAtOneAndFourWorkers) {
  // The determinism contract at the service layer. Wall-clock fields
  // (elapsed_ms) legitimately differ run to run, so the comparison is on
  // the analysis payload, not the raw lines.
  const auto run_at = [](unsigned shards) {
    AnalysisService service;
    WorkerPool pool(service, {.shards = shards, .queue_capacity = 16});
    const Response loaded = pool.submit(R"({"id":1,"cmd":"load","circuit":"s27"})").get();
    const std::string on = R"(,"session":")" + loaded.body.find("session")->as_string() + "\"";
    std::vector<std::future<Response>> futures;
    futures.push_back(pool.submit(R"({"id":2,"cmd":"analyze")" + on + "}"));
    futures.push_back(pool.submit(R"({"id":3,"cmd":"analyze","engine":"ssta")" + on + "}"));
    futures.push_back(pool.submit(R"({"id":4,"cmd":"query","node":"G17")" + on + "}"));
    std::vector<std::string> payloads;
    for (auto& f : futures) {
      const Response r = f.get();
      const Json* payload = r.ok ? r.body.find(r.body.find("stats") ? "stats" : "endpoints")
                                 : nullptr;
      payloads.push_back(payload != nullptr ? payload->dump() : "failed: " + r.to_line());
    }
    return payloads;
  };
  EXPECT_EQ(run_at(1), run_at(4));
}

/// The connection contract, run on both transports (param: socket?).
class ServiceConnection : public ::testing::TestWithParam<bool> {
 protected:
  AnalysisService service_;
};

INSTANTIATE_TEST_SUITE_P(Transports, ServiceConnection, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "socket" : "stdio"; });

TEST_P(ServiceConnection, PipedScriptIsAnsweredInSubmissionOrder) {
  // Shards complete out of order, but the connection writes responses
  // back in submission order, trace ids count from t-1, and a garbage line
  // gets its own parse_error slot.
  std::string script = R"({"id":0,"cmd":"load","circuit":"s27"})" "\n";
  for (int i = 1; i <= 20; ++i) {
    script += i == 10 ? std::string("total garbage\n")
                      : R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})" "\n";
  }
  script += R"({"id":21,"cmd":"shutdown"})" "\n";
  Client client(service_, {.workers = 4, .queue_capacity = 64}, GetParam());
  ASSERT_TRUE(client.send(script));
  const std::vector<std::string> replies = client.finish();

  EXPECT_TRUE(service_.shutdown_requested());
  ASSERT_EQ(replies.size(), 22u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_NE(replies[i].find(i == 10 ? "parse_error" : "\"id\":" + std::to_string(i)),
              std::string::npos)
        << replies[i];
    EXPECT_NE(replies[i].find("\"trace_id\":\"t-" + std::to_string(i + 1) + "\""),
              std::string::npos)
        << replies[i];
  }
  EXPECT_NE(replies[21].find("stopping"), std::string::npos);
}

TEST_P(ServiceConnection, ShutdownAnswersEveryEarlierRequest) {
  // Shutdown drains, it does not abandon in-flight work.
  const std::string key = hash_key(load_content_hash("circuit", "s27"));
  std::string script = R"({"id":0,"cmd":"load","circuit":"s27"})" "\n";
  for (int i = 1; i <= 3; ++i) {
    script += R"({"id":)" + std::to_string(i) + R"(,"cmd":"analyze","session":")" + key +
              R"(","engine":"ssta"})" "\n";
  }
  script += R"({"id":4,"cmd":"shutdown"})" "\n";
  Client client(service_, {.workers = 4}, GetParam());
  ASSERT_TRUE(client.send(script));
  const std::vector<std::string> replies = client.finish();
  ASSERT_EQ(replies.size(), 5u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_NE(replies[i].find("\"id\":" + std::to_string(i)), std::string::npos);
    EXPECT_NE(replies[i].find("\"ok\":true"), std::string::npos) << replies[i];
  }
  EXPECT_TRUE(service_.shutdown_requested());
}

TEST_P(ServiceConnection, ClosedLoopClientGetsEachReplyBeforeSendingTheNext) {
  // Each reply must be written as soon as it is ready, not when the
  // following request arrives.
  Client client(service_, {.workers = 2}, GetParam());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.send(R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})" "\n"));
    const std::optional<std::string> reply = client.recv(std::chrono::seconds(2));
    ASSERT_TRUE(reply.has_value()) << "no reply to request " << i << " within 2 s";
    EXPECT_NE(reply->find("\"id\":" + std::to_string(i)), std::string::npos) << *reply;
  }
  EXPECT_TRUE(client.finish().empty());
  EXPECT_EQ(client.requests(), 3u);
}

TEST_P(ServiceConnection, ShutdownIsTheLastLineRead) {
  // The ping after the shutdown arrives in the same write, yet it is
  // neither executed nor answered.
  Client client(service_, {.workers = 2}, GetParam());
  ASSERT_TRUE(client.send(R"({"id":1,"cmd":"ping"})" "\n"
                          R"({"id":2,"cmd":"shutdown"})" "\n"
                          R"({"id":3,"cmd":"ping"})" "\n"));
  const std::vector<std::string> replies = client.finish();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[1].find("\"stopping\":true"), std::string::npos) << replies[1];
  EXPECT_EQ(client.requests(), 2u);
}

TEST_P(ServiceConnection, ShedShutdownKeepsTheConnectionReading) {
  // A shutdown the pool sheds never runs, so it must not end the reads.
  // Another client fills the only shard: one analyze runs (blocked on the
  // session mutex the test holds), a second one fills the one-slot queue.
  Client client(service_, {.workers = 1, .queue_capacity = 1}, GetParam());
  WorkerPool& pool = client.pool();
  const Response loaded = pool.submit(R"({"cmd":"load","circuit":"s27"})").get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();
  const std::shared_ptr<Session> session = service_.store().find(key);
  ASSERT_NE(session, nullptr);
  const std::string analyze = R"({"cmd":"analyze","session":")" + key + "\"}";
  std::future<Response> running;
  std::future<Response> queued;
  {
    const std::lock_guard<std::mutex> hold(session->mutex);
    running = pool.submit(analyze);
    while (pool.queue_depth() != 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    queued = pool.submit(analyze);
    ASSERT_TRUE(client.send(R"({"id":1,"cmd":"shutdown"})" "\n"));
    const std::optional<std::string> shed = client.recv();
    ASSERT_TRUE(shed.has_value());
    EXPECT_NE(shed->find("overloaded"), std::string::npos) << *shed;
  }
  EXPECT_TRUE(running.get().ok);
  EXPECT_TRUE(queued.get().ok);
  ASSERT_TRUE(client.send(R"({"id":2,"cmd":"ping"})" "\n"));
  const std::optional<std::string> pong = client.recv(std::chrono::seconds(2));
  ASSERT_TRUE(pong.has_value()) << "the connection stopped reading after a shed shutdown";
  EXPECT_NE(pong->find("\"id\":2,\"ok\":true"), std::string::npos) << *pong;
  EXPECT_TRUE(client.finish().empty());
  EXPECT_EQ(client.requests(), 2u);
  EXPECT_FALSE(service_.shutdown_requested());
}

TEST_P(ServiceConnection, LoneConnectionIsThrottledNeverShed) {
  // A piped script sends everything at once. The connection pauses its
  // reads on backpressure, so a backlog many times the shard queue is
  // answered in full, never with `overloaded`.
  constexpr int kLines = 64;
  Client client(service_, {.workers = 1, .queue_capacity = 4}, GetParam());
  std::string script;
  for (int i = 1; i <= kLines; ++i) {
    script += R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})" "\n";
  }
  ASSERT_TRUE(client.send(script));
  const std::vector<std::string> replies = client.finish();
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kLines));
  for (int i = 1; i <= kLines; ++i) {
    EXPECT_NE(replies[i - 1].find("\"id\":" + std::to_string(i) + ",\"ok\":true"),
              std::string::npos)
        << replies[i - 1];
  }
  EXPECT_EQ(client.pool().stats().rejected_overload, 0u);
}

TEST_P(ServiceConnection, FinalLineWithoutNewlineIsAnsweredAtEof) {
  // A client that dies (or a pipe that closes) after writing a request but
  // before its newline still gets the answer.
  Client client(service_, {.workers = 2}, GetParam());
  ASSERT_TRUE(client.send(R"({"id":6,"cmd":"ping"})" "\n" R"({"id":7,"cmd":"ping"})"));
  const std::vector<std::string> replies = client.finish();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[1].find("\"id\":7,\"ok\":true"), std::string::npos) << replies[1];
  EXPECT_EQ(client.requests(), 2u);
  EXPECT_FALSE(service_.shutdown_requested());
}

TEST_P(ServiceConnection, BlankLinesGetNoAnswer) {
  Client client(service_, {.workers = 2}, GetParam());
  ASSERT_TRUE(client.send("\n   \n\t\r\n" R"({"id":1,"cmd":"ping"})" "\n\n \n"));
  const std::vector<std::string> replies = client.finish();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_NE(replies[0].find("\"id\":1"), std::string::npos) << replies[0];
  EXPECT_EQ(client.requests(), 1u);
}

TEST_P(ServiceConnection, OversizedLineIsAnsweredBeforeItsNewline) {
  // The cap holds before the JSON parser ever allocates: bad_request while
  // the line still streams in, its tail is discarded, and the connection
  // keeps serving.
  Client client(service_, {.workers = 1}, GetParam());
  ASSERT_TRUE(client.send(R"({"id":1,"cmd":"ping","pad":")" +
                          std::string(kMaxRequestBytes, 'x')));
  const std::optional<std::string> rejected = client.recv();
  ASSERT_TRUE(rejected.has_value()) << "no bad_request before the newline";
  EXPECT_NE(rejected->find("bad_request"), std::string::npos) << *rejected;
  ASSERT_TRUE(client.send("xxxx\"}\n" R"({"id":2,"cmd":"ping"})" "\n"));
  const std::vector<std::string> replies = client.finish();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_NE(replies[0].find("\"id\":2,\"ok\":true"), std::string::npos) << replies[0];
}

TEST_P(ServiceConnection, TraceFileGetsOneLinePerResponse) {
  // Every response gets a trace line and the next id — including the
  // bad_request the reader answers for an oversized line itself.
  const std::string path = ::testing::TempDir() + "/connection_trace_" +
                           (GetParam() ? "socket" : "stdio") + ".jsonl";
  std::remove(path.c_str());
  constexpr std::size_t kN = 6;
  constexpr std::size_t kOversized = 3;  ///< index of the oversized line
  Client client(service_, {.workers = 2, .trace_path = path}, GetParam());
  for (std::size_t i = 0; i < kN; ++i) {
    // The oversized line is answered before its newline, sent afterwards.
    ASSERT_TRUE(client.send(i == kOversized ? R"({"cmd":"ping","pad":")" +
                                                  std::string(kMaxRequestBytes, 'x')
                                            : std::string(R"({"cmd":"ping"})" "\n")));
    const std::optional<std::string> reply = client.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"trace_id\":\"t-" + std::to_string(i + 1) + "\""),
              std::string::npos)
        << *reply;
    if (i == kOversized) {
      ASSERT_TRUE(client.send("\"}\n"));
    }
  }
  client.finish();
  std::ifstream trace(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(trace, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NE(lines[i].find("\"trace_id\":\"t-" + std::to_string(i + 1) + "\""),
              std::string::npos)
        << lines[i];
  }
}

}  // namespace
}  // namespace spsta::service

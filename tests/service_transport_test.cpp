// Tests for the socket transport (ROADMAP item 1, DESIGN.md §15): the
// multi-connection listener in front of the sharded worker pool, JSON
// lines and length-prefixed binary frames side by side, the 8 MiB cap on
// the wire, per-connection shedding, and the acceptance bar for the
// binary waveform path — an n=8192-grid density fetched as a raw f64
// frame must equal the JSON-lines answer bit for bit.
// The connection contract shared with stdio (ordering, shutdown drain,
// EOF, blank and oversized lines, trace) is ServiceConnection in
// service_worker_pool_test.cpp, run over both transports.

#include <atomic>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/transport/client.hpp"
#include "service/transport/server.hpp"

namespace spsta::service::transport {
namespace {

/// A listening server on an ephemeral loopback port plus its serve thread.
class ServerFixture {
 public:
  explicit ServerFixture(SocketServerOptions options = {
                             .serve = {.workers = 2, .queue_capacity = 64}})
      : server_(service_, options) {
    port_ = server_.listen();
    thread_ = std::thread([this] { report_ = server_.serve(); });
  }

  ~ServerFixture() { stop(); }

  void stop() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] SocketServer& server() { return server_; }
  [[nodiscard]] const SocketServerReport& report() const { return report_; }

 private:
  AnalysisService service_;
  SocketServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  SocketServerReport report_;
};

Json parsed(const std::string& line) { return Json::parse(line); }

bool response_ok(const std::string& line) {
  const Json doc = parsed(line);
  const Json* ok = doc.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_code_of(const std::string& line) {
  const Json doc = parsed(line);
  const Json* error = doc.find("error");
  if (error == nullptr) return "";
  const Json* code = error->find("code");
  return code != nullptr && code->is_string() ? code->as_string() : "";
}

std::string session_of(const std::string& line) {
  const Json doc = parsed(line);
  const Json* result = doc.find("result");
  if (result == nullptr) return "";
  const Json* key = result->find("session");
  return key != nullptr && key->is_string() ? key->as_string() : "";
}

std::optional<ClientReply> request(SocketClient& client, const std::string& line) {
  if (!client.send(line)) return std::nullopt;
  return client.recv();
}

TEST(ServiceTransport, JsonLinesRoundTripOverTheSocket) {
  ServerFixture fixture;
  SocketClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fixture.port(), /*binary_frames=*/false))
      << client.error();

  auto pong = request(client, R"({"id":1,"cmd":"ping"})");
  ASSERT_TRUE(pong.has_value()) << client.error();
  EXPECT_TRUE(response_ok(pong->line)) << pong->line;

  auto loaded = request(client, R"({"id":2,"cmd":"load","circuit":"s27"})");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(response_ok(loaded->line)) << loaded->line;
  const std::string session = session_of(loaded->line);
  ASSERT_FALSE(session.empty());

  auto analyzed = request(
      client, R"({"id":3,"cmd":"analyze","session":")" + session + "\"}");
  ASSERT_TRUE(analyzed.has_value());
  EXPECT_TRUE(response_ok(analyzed->line)) << analyzed->line;
}

TEST(ServiceTransport, PipelinedRequestsComeBackInSubmissionOrder) {
  ServerFixture fixture;
  SocketClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fixture.port(), false));
  // Burst-submit with distinct ids; the per-connection reorder deque must
  // return them 0..N-1 even though shards complete out of order.
  constexpr int kN = 64;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.send(
        i % 2 == 0
            ? R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})"
            : R"({"id":)" + std::to_string(i) + R"(,"cmd":"load","circuit":"s298"})"));
  }
  for (int i = 0; i < kN; ++i) {
    auto reply = client.recv();
    ASSERT_TRUE(reply.has_value()) << i << ": " << client.error();
    const Json doc = parsed(reply->line);
    const Json* id = doc.find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(static_cast<int>(id->as_number()), i);
  }
}

TEST(ServiceTransport, BinaryFrameNegotiationAndRoundTrip) {
  ServerFixture fixture;
  SocketClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fixture.port(), /*binary_frames=*/true));
  auto pong = request(client, R"({"id":1,"cmd":"ping"})");
  ASSERT_TRUE(pong.has_value()) << client.error();
  EXPECT_TRUE(response_ok(pong->line)) << pong->line;
  client.close();
  fixture.stop();
  EXPECT_EQ(fixture.report().frame_connections, 1u);
}

TEST(ServiceTransport, InterleavedJsonAndBinaryConnections) {
  ServerFixture fixture;
  SocketClient text, binary;
  ASSERT_TRUE(text.connect("127.0.0.1", fixture.port(), false));
  ASSERT_TRUE(binary.connect("127.0.0.1", fixture.port(), true));
  // Alternate requests across the two modes against one shared pool; each
  // connection keeps its own framing and its own ordering.
  for (int i = 0; i < 8; ++i) {
    auto a = request(text, R"({"id":)" + std::to_string(i) +
                               R"(,"cmd":"load","circuit":"s344"})");
    auto b = request(binary, R"({"id":)" + std::to_string(i) +
                                 R"(,"cmd":"load","circuit":"s344"})");
    ASSERT_TRUE(a.has_value() && b.has_value());
    ASSERT_TRUE(response_ok(a->line));
    ASSERT_TRUE(response_ok(b->line));
    // Same content -> same session key across transports.
    EXPECT_EQ(session_of(a->line), session_of(b->line));
  }
}

// The acceptance bar: the full arrival density of an n=8192-grid numeric
// analysis, fetched once as inline JSON samples and once as a raw f64
// WAVEFORM frame, must be identical bit for bit (Json doubles serialize
// shortest-round-trip, so text inlining is lossless too).
TEST(ServiceTransport, DensityOverBinaryFramesMatchesJsonBitForBit) {
  ServerFixture fixture;
  // max_grid_points=8192 with a grid step far below the design's span
  // forces the grid cap, i.e. exactly n=8192 samples.
  const std::string analyze_params =
      R"("engine":"spsta_numeric","params":{"grid_dt":1e-4,"max_grid_points":8192})";

  SocketClient json_client, frame_client;
  ASSERT_TRUE(json_client.connect("127.0.0.1", fixture.port(), false));
  ASSERT_TRUE(frame_client.connect("127.0.0.1", fixture.port(), true));

  const auto query_density = [&](SocketClient& client) {
    auto loaded = request(client, R"({"id":1,"cmd":"load","circuit":"s386"})");
    EXPECT_TRUE(loaded.has_value());
    const std::string session = session_of(loaded->line);
    EXPECT_FALSE(session.empty());
    // Analyze first to learn the worst endpoint and its direction — that
    // transition is guaranteed a non-degenerate density.
    auto analyzed = request(client, R"({"id":2,"cmd":"analyze","session":")" +
                                        session + "\"," + analyze_params + "}");
    EXPECT_TRUE(analyzed.has_value());
    EXPECT_TRUE(response_ok(analyzed->line)) << analyzed->line;
    const Json analyzed_doc = parsed(analyzed->line);
    const Json* worst = analyzed_doc.find("result")->find("worst");
    EXPECT_NE(worst, nullptr);
    const std::string node = worst->find("name")->as_string();
    const std::string direction = worst->find("direction")->as_string();
    auto reply = request(client, R"({"id":3,"cmd":"query","session":")" +
                                     session + R"(","node":)" +
                                     Json(node).dump() + R"(,"density":")" +
                                     direction + "\"," + analyze_params + "}");
    EXPECT_TRUE(reply.has_value()) << client.error();
    return reply;
  };

  const auto json_reply = query_density(json_client);
  const auto frame_reply = query_density(frame_client);
  ASSERT_TRUE(json_reply.has_value() && frame_reply.has_value());
  ASSERT_TRUE(response_ok(json_reply->line)) << json_reply->line;
  ASSERT_TRUE(response_ok(frame_reply->line)) << frame_reply->line;

  // JSON-lines connection: samples inline, no sidecars.
  EXPECT_TRUE(json_reply->waveforms.empty());
  const Json json_doc = parsed(json_reply->line);
  const Json& density =
      *json_doc.find("result")->find("stats")->find("density");
  const Json* samples = density.find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(static_cast<std::size_t>(density.find("n")->as_number()), 8192u);
  ASSERT_EQ(samples->as_array().size(), 8192u);

  // Binary-frame connection: samples_wire says "frame", one f64 sidecar.
  const Json frame_doc = parsed(frame_reply->line);
  const Json& frame_density =
      *frame_doc.find("result")->find("stats")->find("density");
  EXPECT_EQ(frame_density.find("samples"), nullptr);
  ASSERT_NE(frame_density.find("samples_wire"), nullptr);
  EXPECT_EQ(frame_density.find("samples_wire")->as_string(), "frame");
  ASSERT_EQ(frame_reply->waveforms.size(), 1u);
  const std::vector<double>& wave = frame_reply->waveforms[0];
  ASSERT_EQ(wave.size(), 8192u);

  // Bit-for-bit equality between the two transports.
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const double via_json = samples->as_array()[i].as_number();
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &via_json, sizeof(a));
    std::memcpy(&b, &wave[i], sizeof(b));
    ASSERT_EQ(a, b) << "sample " << i;
  }
  // The grid metadata must agree too.
  for (const char* key : {"t0", "dt", "n", "mass"}) {
    EXPECT_EQ(density.find(key)->as_number(),
              frame_density.find(key)->as_number())
        << key;
  }
}

TEST(ServiceTransport, OversizedFrameGetsBadRequestAndConnectionSurvives) {
  ServerFixture fixture;
  SocketClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fixture.port(), true));
  std::string payload = R"({"id":1,"cmd":"ping","pad":")";
  payload.append(kMaxRequestBytes, 'x');
  payload += "\"}";
  ASSERT_TRUE(client.send(payload));
  auto reply = client.recv();
  ASSERT_TRUE(reply.has_value()) << client.error();
  EXPECT_EQ(error_code_of(reply->line), "bad_request") << reply->line;

  auto pong = request(client, R"({"id":2,"cmd":"ping"})");
  ASSERT_TRUE(pong.has_value()) << client.error();
  EXPECT_TRUE(response_ok(pong->line));
}

TEST(ServiceTransport, WaveformRequestFrameIsRejectedNotFatal) {
  ServerFixture fixture;
  // Clients only send JSON frames; a waveform REQUEST is a protocol error
  // answered structurally — and the connection keeps serving. Uses a raw
  // socket because SocketClient (correctly) cannot send waveform frames.
  std::string error;
  ScopedFd fd = tcp_connect("127.0.0.1", fixture.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  ASSERT_TRUE(write_all(fd.get(), kFrameMagic, sizeof(kFrameMagic)));
  std::string wire;
  append_waveform_frame(wire, std::vector<double>{1.0, 2.0});
  append_frame(wire, FrameKind::Json, R"({"id":2,"cmd":"ping"})");
  ASSERT_TRUE(write_all(fd.get(), wire.data(), wire.size()));

  FrameDecoder decoder;
  std::vector<Frame> frames;
  char chunk[4096];
  while (frames.size() < 2) {
    const ssize_t n = read_some(fd.get(), chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "connection closed before both replies";
    decoder.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    Frame frame;
    while (decoder.next(frame) == FrameDecoder::Status::Ready) {
      frames.push_back(frame);
    }
  }
  EXPECT_EQ(error_code_of(frames[0].payload), "bad_request") << frames[0].payload;
  EXPECT_TRUE(response_ok(frames[1].payload)) << frames[1].payload;
}

TEST(ServiceTransport, BadMagicIsAnsweredAndClosed) {
  ServerFixture fixture;
  std::string error;
  ScopedFd fd = tcp_connect("127.0.0.1", fixture.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  // NUL first byte but not the frame magic: the server answers with a
  // structured bad_request and closes (it cannot resync an unknown
  // protocol).
  const char bogus[5] = {'\0', 'B', 'O', 'G', 'S'};
  ASSERT_TRUE(write_all(fd.get(), bogus, sizeof(bogus)));
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = read_some(fd.get(), chunk, sizeof(chunk));
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_NE(received.find("bad_request"), std::string::npos) << received;
  EXPECT_NE(received.find("magic"), std::string::npos) << received;
}

TEST(ServiceTransport, ClientDisconnectMidResponseShedsOnlyItself) {
  ServerFixture fixture;
  // Victim connection vanishes with requests in flight...
  {
    SocketClient victim;
    ASSERT_TRUE(victim.connect("127.0.0.1", fixture.port(), false));
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(victim.send(R"({"id":)" + std::to_string(i) +
                              R"(,"cmd":"load","circuit":"s1238"})"));
    }
    victim.close();  // hard close, responses still being computed
  }
  // ...while a healthy connection keeps being served correctly.
  SocketClient healthy;
  ASSERT_TRUE(healthy.connect("127.0.0.1", fixture.port(), false));
  for (int i = 0; i < 8; ++i) {
    auto reply = request(healthy, R"({"id":)" + std::to_string(i) +
                                      R"(,"cmd":"load","circuit":"s27"})");
    ASSERT_TRUE(reply.has_value()) << healthy.error();
    EXPECT_TRUE(response_ok(reply->line)) << reply->line;
  }
}

TEST(ServiceTransport, EofMidFrameDropsOnlyThatConnection) {
  ServerFixture fixture;
  {
    std::string error;
    ScopedFd fd = tcp_connect("127.0.0.1", fixture.port(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    ASSERT_TRUE(write_all(fd.get(), kFrameMagic, sizeof(kFrameMagic)));
    // A truncated frame: header promising more than ever arrives.
    const std::string full = encode_frame(FrameKind::Json, R"({"cmd":"ping"})");
    ASSERT_TRUE(write_all(fd.get(), full.data(), full.size() - 4));
    // fd closes here: EOF mid-frame.
  }
  SocketClient healthy;
  ASSERT_TRUE(healthy.connect("127.0.0.1", fixture.port(), true));
  auto pong = request(healthy, R"({"id":1,"cmd":"ping"})");
  ASSERT_TRUE(pong.has_value()) << healthy.error();
  EXPECT_TRUE(response_ok(pong->line));
}

TEST(ServiceTransport, ConcurrentConnectionsHammerOneSessionKey) {
  ServerFixture fixture({.serve = {.workers = 4, .queue_capacity = 128}});
  // All connections load the same circuit (one shared session/plan) and
  // analyze it concurrently: exercises the cross-connection path through
  // one shard plus the session-store latch. TSan must stay green here.
  constexpr int kClients = 6;
  constexpr int kRequests = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      SocketClient client;
      if (!client.connect("127.0.0.1", fixture.port(), t % 2 == 0)) {
        ++failures;
        return;
      }
      auto loaded = request(client, R"({"cmd":"load","circuit":"s526"})");
      if (!loaded || !response_ok(loaded->line)) {
        ++failures;
        return;
      }
      const std::string session = session_of(loaded->line);
      for (int i = 0; i < kRequests; ++i) {
        auto reply = request(client, R"({"id":)" + std::to_string(i) +
                                         R"(,"cmd":"analyze","session":")" +
                                         session + "\"}");
        if (!reply || !response_ok(reply->line)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServiceTransport, BothEndsOfALoopbackConnectionSetNoDelay) {
  std::uint16_t port = 0;
  std::string error;
  const ScopedFd listener = tcp_listen("127.0.0.1", 0, &port, &error);
  ASSERT_TRUE(listener.valid()) << error;
  const ScopedFd client = tcp_connect("127.0.0.1", port, &error);
  ASSERT_TRUE(client.valid()) << error;
  const ScopedFd accepted(::accept(listener.get(), nullptr, nullptr));
  ASSERT_TRUE(accepted.valid());
  const auto no_delay = [](int fd) {
    int value = 0;
    socklen_t len = sizeof(value);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
    return value;
  };
  EXPECT_EQ(no_delay(accepted.get()), 0);  // accept(2) does not inherit it
  ASSERT_TRUE(set_no_delay(accepted.get()));
  EXPECT_EQ(no_delay(accepted.get()), 1);
  EXPECT_EQ(no_delay(client.get()), 1);
}

}  // namespace
}  // namespace spsta::service::transport

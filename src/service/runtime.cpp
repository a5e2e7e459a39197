#include "service/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include "obs/metrics.hpp"
#include "service/frame.hpp"
#include "service/transport/socket.hpp"

namespace spsta::service {

namespace {

/// Read chunk. Small enough to keep per-connection memory modest, large
/// enough that bulk frame payloads stream in few syscalls.
constexpr std::size_t kReadChunk = 64 * 1024;

bool blank_line(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

/// State one connection's reader shares with its writer thread; `mutex`
/// guards the deque, the unanswered count and the eof/dead flags.
struct Connection {
  int in_fd = -1;
  int out_fd = -1;
  std::size_t max_unanswered = 0;
  bool frame_mode = false;  ///< set by the reader before its first enqueue

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::future<Response>> pending;
  std::size_t unanswered = 0;  ///< submitted, response not yet written or shed
  bool eof = false;   ///< the reader submitted its last request
  bool dead = false;  ///< a write failed; responses are drained, not written
};

/// Writes responses in deque (= submission) order until the reader is done
/// and the deque is empty.
void write_loop(Connection& conn, obs::TraceLog* trace) {
  static obs::LatencyHistogram& serialize_hist =
      obs::registry().histogram("service.serialize");
  for (;;) {
    std::future<Response> next;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.cv.wait(lock, [&] { return !conn.pending.empty() || conn.eof; });
      if (conn.pending.empty()) return;  // eof and fully drained
      next = std::move(conn.pending.front());
      conn.pending.pop_front();
    }
    // Block outside the lock: shards complete out of order, the deque
    // keeps the connection's submission order.
    const Response response = next.get();
    {
      const std::lock_guard<std::mutex> lock(conn.mutex);
      --conn.unanswered;
      conn.cv.notify_all();  // the reader may be blocked on backpressure
      if (conn.dead) continue;  // drain without writing
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::string wire;
    if (conn.frame_mode) {
      append_frame(wire, FrameKind::Json, response.to_line());
      for (const std::vector<double>& waveform : response.waveforms) {
        append_waveform_frame(wire, waveform);
      }
    } else {
      wire = response.to_line();
      wire.push_back('\n');
    }
    const bool wrote = transport::write_all(conn.out_fd, wire.data(), wire.size());
    const auto serialize_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
    serialize_hist.record_ns(static_cast<std::uint64_t>(serialize_ns));
    if (trace != nullptr) {
      trace->write({response.span.trace_id, response.span.cmd, response.ok,
                    response.span.queue_ms, response.span.execute_ms,
                    static_cast<double>(serialize_ns) * 1e-6});
    }
    if (!wrote) {
      // The client is gone or unwritable: shed exactly this connection.
      // Remaining futures are drained (their work still completes and
      // resolves the pool's inflight accounting) but nothing is written.
      obs::registry().counter("service.transport.client_write_errors").add();
      {
        const std::lock_guard<std::mutex> lock(conn.mutex);
        conn.dead = true;
        conn.cv.notify_all();
      }
      // Unblocks a reader parked in read(2) on a socket; a no-op on pipes.
      // The caller closes in_fd only after this thread is joined.
      ::shutdown(conn.in_fd, SHUT_RD);
    }
  }
}

}  // namespace

Runtime::Runtime(AnalysisService& service, const ServeOptions& options)
    : service_(service),
      pool_(service, {options.workers, options.queue_capacity}),
      trace_(options.trace_path.empty()
                 ? nullptr
                 : std::make_unique<obs::TraceLog>(options.trace_path)) {
  // A client that closes its read side must surface as a failed write
  // (EPIPE), never kill the process.
  transport::ignore_sigpipe();
}

ConnectionReport Runtime::serve_connection(int in_fd, int out_fd) {
  Connection conn;
  conn.in_fd = in_fd;
  conn.out_fd = out_fd;
  // At most one shard queue's worth of unanswered requests, counting the
  // one being submitted: the requests ahead of it hold fewer slots than a
  // shard has, so a connection alone never fills one. It pauses on
  // backpressure instead of being shed with `overloaded`; only other
  // clients' load can shed it.
  conn.max_unanswered = pool_.queue_capacity();
  std::thread writer([&] { write_loop(conn, trace_.get()); });

  ConnectionReport report;
  /// Waits until fewer than max_unanswered requests are unanswered, then
  /// submits through \p make and appends its future in submission order.
  /// False once the connection is dead.
  const auto enqueue = [&](auto make) {
    std::unique_lock<std::mutex> lock(conn.mutex);
    conn.cv.wait(lock, [&] {
      return conn.unanswered < conn.max_unanswered || conn.dead;
    });
    if (conn.dead) return false;
    ++conn.unanswered;
    lock.unlock();  // parse and route without stalling the writer
    std::future<Response> future = make();
    lock.lock();
    conn.pending.push_back(std::move(future));
    conn.cv.notify_all();
    ++report.requests;
    return true;
  };
  /// Errors the reader finds itself (bad frames, oversized lines) take a
  /// slot in the in-order deque and a trace id like any pooled response.
  const auto bad_request = [&](const std::string& message) {
    return enqueue([&] { return pool_.reject(ErrorCode::BadRequest, message); });
  };
  /// Submits one request; false when the reader must stop (dead
  /// connection, or a queued `shutdown`).
  const auto submit = [&](std::string line) {
    bool shutdown = false;
    const bool queued = enqueue([&] {
      return pool_.submit(std::move(line), std::chrono::steady_clock::now(),
                          conn.frame_mode, &shutdown);
    });
    return queued && !shutdown;
  };

  std::string buffer;
  bool negotiated = false;
  bool discarding = false;  ///< inside an over-cap line, before its newline
  bool reading = true;      ///< false once no further request may be read
  bool eof = false;
  FrameDecoder decoder;
  std::vector<char> chunk(kReadChunk);

  while (reading && !stopping()) {
    const ssize_t n = transport::read_some(in_fd, chunk.data(), chunk.size());
    if (n <= 0) {
      eof = n == 0;
      break;
    }
    std::string_view bytes(chunk.data(), static_cast<std::size_t>(n));

    // The first byte picks the mode: the frame magic (which may span
    // reads) switches to binary frames, anything else is JSON lines.
    if (!negotiated && (!buffer.empty() || bytes.front() == kFrameMagic[0])) {
      buffer.append(bytes);
      if (buffer.size() < sizeof(kFrameMagic)) continue;  // magic incomplete
      if (std::memcmp(buffer.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
        bad_request("unrecognized connection magic");
        break;
      }
      conn.frame_mode = true;
      report.frame_mode = true;
      decoder.feed(std::string_view(buffer).substr(sizeof(kFrameMagic)));
      buffer.clear();
      bytes = {};  // already fed
    }
    negotiated = true;

    if (conn.frame_mode) {
      decoder.feed(bytes);
      Frame frame;
      while (reading) {
        const FrameDecoder::Status status = decoder.next(frame);
        if (status == FrameDecoder::Status::NeedMore) break;
        if (status == FrameDecoder::Status::BadFrame) {
          // Malformed frame: structured answer, connection stays up (the
          // length prefix kept the stream in sync).
          reading = bad_request(decoder.error());
        } else if (frame.kind == FrameKind::Waveform) {
          reading = bad_request("unexpected waveform frame (requests are JSON frames)");
        } else {
          reading = submit(std::move(frame.payload));
        }
      }
      continue;
    }

    // The buffered partial line holds no newline: scan only the new bytes,
    // so a long line costs linear time however many reads deliver it.
    const std::size_t scanned = buffer.size();
    buffer.append(bytes);
    std::size_t start = 0;
    for (std::size_t nl;
         reading && (nl = buffer.find('\n', std::max(start, scanned))) != std::string::npos;
         start = nl + 1) {
      const std::string_view line(buffer.data() + start, nl - start);
      if (discarding) {
        discarding = false;  // tail of an already-rejected line
      } else if (!blank_line(line)) {
        reading = submit(std::string(line));
      }
    }
    buffer.erase(0, start);
    // Cap enforcement before the newline arrives: a partial line beyond
    // kMaxRequestBytes is rejected now and discarded as it streams in, so
    // a runaway client cannot balloon the connection buffer.
    if (reading && !discarding && buffer.size() > kMaxRequestBytes) {
      reading = bad_request("request line exceeds the " +
                            std::to_string(kMaxRequestBytes) + " byte limit");
      discarding = true;
    }
    if (discarding) buffer.clear();
  }
  // A final line without a newline at EOF is still a request.
  if (reading && eof && negotiated && !conn.frame_mode && !discarding &&
      !blank_line(buffer) && !stopping()) {
    submit(std::move(buffer));
  }

  {
    const std::lock_guard<std::mutex> lock(conn.mutex);
    conn.eof = true;
    conn.cv.notify_all();
  }
  writer.join();
  return report;
}

}  // namespace spsta::service

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "netlist/delay_model.hpp"
#include "service/service.hpp"

namespace spsta_bench {

namespace transport = spsta::service::transport;
using spsta::netlist::NodeId;

namespace {

// read(2)/write(2) rather than the transport's recv/send helpers: the
// daemon's stdio is a pipe. SIGPIPE is ignored process-wide.
ssize_t read_fd(int fd, void* buffer, std::size_t size) {
  for (;;) {
    const ssize_t n = ::read(fd, buffer, size);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

bool write_fd(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Metrics, spans, percentiles.

void MetricList::set(std::string_view name, double value, std::string_view unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({std::string(name), value, std::string(unit)});
}

Json MetricList::to_json() const {
  Json j = Json::object();
  for (const Metric& m : items_) {
    Json entry = Json::object();
    entry.set("value", Json::number_or_null(m.value));
    entry.set("unit", Json(m.unit));
    j.set(m.name, std::move(entry));
  }
  return j;
}

std::uint64_t Tracer::add(std::string name, Clock::time_point start, Clock::time_point end,
                          std::uint64_t parent, std::uint64_t op) {
  spans_.push_back({std::move(name), start, end, parent, op});
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json line = Json::object();
    line.set("id", Json(i + 1));
    line.set("parent", Json(s.parent));
    line.set("op", Json(s.op));
    line.set("name", Json(s.name));
    line.set("start_us", Json(us(s.start)));
    line.set("end_us", Json(us(s.end)));
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double mean(std::span<const double> samples) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const double x : samples) {
    if (!std::isfinite(x)) continue;
    sum += x;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

QuietStats quiet_stats(std::span<const double> op_ms) {
  QuietStats out;
  if (op_ms.empty()) return out;
  struct Window {
    double p50, p95, ops_per_s;
    std::size_t ops;
  };
  std::vector<Window> windows;
  // A trailing partial window counts only when it is the only one.
  for (std::size_t begin = 0; begin < op_ms.size(); begin += kWindowOps) {
    const std::size_t size = std::min(kWindowOps, op_ms.size() - begin);
    if (size < kWindowOps && begin > 0) break;
    const std::span<const double> w = op_ms.subspan(begin, size);
    double answered = 0.0, answered_ms = 0.0;
    for (const double ms : w) {
      if (!std::isfinite(ms)) continue;
      answered += 1.0;
      answered_ms += ms;
    }
    const std::vector<double> samples(w.begin(), w.end());
    windows.push_back({percentile(samples, 0.50), percentile(samples, 0.95),
                       answered_ms > 0 ? 1e3 * answered / answered_ms : 0.0, size});
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.p50 < b.p50; });
  windows.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(kQuietShare * static_cast<double>(windows.size())))));

  std::vector<double> p50, p95, rate;
  std::size_t kept = 0;
  for (const Window& w : windows) {
    p50.push_back(w.p50);
    p95.push_back(w.p95);
    rate.push_back(w.ops_per_s);
    kept += w.ops;
  }
  out.p50_ms = median(p50);
  out.p95_ms = median(p95);
  out.ops_per_s = median(rate);
  out.kept_share = static_cast<double>(kept) / static_cast<double>(op_ms.size());
  return out;
}

double quiet_rate(std::span<const Clock::time_point> completions, Clock::time_point start,
                  Clock::time_point end, double window_s) {
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s));
  const auto full = static_cast<std::size_t>((end - start) / window);  // whole windows only
  if (full == 0) return 0.0;
  std::vector<double> counts(full, 0.0);
  for (const Clock::time_point t : completions) {
    if (t < start) continue;
    const auto w = static_cast<std::size_t>((t - start) / window);
    if (w < full) counts[w] += 1.0;
  }
  const double busiest = *std::max_element(counts.begin(), counts.end());
  double kept = 0.0, windows = 0.0;
  for (const double c : counts) {
    if (c * kQuietSlack < busiest) continue;
    kept += c;
    windows += 1.0;
  }
  return kept / (windows * window_s);
}

// ---------------------------------------------------------------------------
// Daemon child process.

namespace {

/// A close-on-exec pipe as {read end, write end}.
std::pair<ScopedFd, ScopedFd> make_pipe() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  return {ScopedFd(fds[0]), ScopedFd(fds[1])};
}

}  // namespace

Daemon::Daemon(const std::vector<std::string>& args) {
  auto [child_in, in] = make_pipe();
  auto [out, child_out] = make_pipe();
  auto [err, child_err] = make_pipe();
  std::vector<std::string> argv_storage;
  argv_storage.emplace_back(SPSTA_SERVICED_PATH);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(child_in.get(), 0);
    ::dup2(child_out.get(), 1);
    ::dup2(child_err.get(), 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  // The child's ends close when this scope ends.
  in_ = std::move(in);
  out_ = std::move(out);
  err_ = std::move(err);
}

Daemon::~Daemon() { stop(); }

std::uint16_t Daemon::listening_port() {
  static constexpr std::string_view kMarker = "listening on ";
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    const std::size_t at = err_buffer_.find(kMarker);
    const std::size_t nl = at == std::string::npos ? at : err_buffer_.find('\n', at);
    if (nl != std::string::npos) {
      const std::string spec = err_buffer_.substr(at + kMarker.size(), nl - at - kMarker.size());
      const auto host_port = transport::parse_host_port(spec);
      if (!host_port || host_port->port == 0) {
        throw std::runtime_error("spsta_serviced: bad listen line '" + spec + "'");
      }
      return host_port->port;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) throw std::runtime_error("spsta_serviced did not start listening");
    pollfd pfd{err_.get(), POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char chunk[4096];
    const ssize_t n = read_fd(err_.get(), chunk, sizeof chunk);
    if (n <= 0) throw std::runtime_error("spsta_serviced exited before listening");
    err_buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Daemon::stop() {
  if (pid_ <= 0) return true;
  in_.reset();  // stdio mode: EOF ends the serve loop
  int status = 0;
  bool exited = false;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      exited = r == pid_;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  bool clean = exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!exited) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    clean = false;
  }
  pid_ = -1;
  out_.reset();
  err_.reset();
  return clean;
}

// ---------------------------------------------------------------------------
// JSON-lines channel.

LineChannel::LineChannel(ScopedFd socket)
    : owned_(std::move(socket)), write_fd_(owned_.get()), read_fd_(owned_.get()) {}

bool LineChannel::send(std::string_view line) {
  std::string wire;
  wire.reserve(line.size() + 1);
  wire.append(line);
  wire.push_back('\n');
  return write_fd(write_fd_, wire.data(), wire.size());
}

std::optional<std::string> LineChannel::recv() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', start_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(start_, nl - start_);
      start_ = nl + 1;
      return line;
    }
    if (start_ > 0) {
      buffer_.erase(0, start_);
      start_ = 0;
    }
    char chunk[64 * 1024];
    const ssize_t n = read_fd(read_fd_, chunk, sizeof chunk);
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> LineChannel::round_trip(std::string_view line) {
  if (!send(line)) return std::nullopt;
  return recv();
}

LineChannel connect_local(std::uint16_t port) {
  std::string error;
  ScopedFd fd = transport::tcp_connect("127.0.0.1", port, &error);
  if (!fd.valid()) throw std::runtime_error("cannot connect to the daemon: " + error);
  return LineChannel(std::move(fd));
}

bool reply_ok(std::string_view line) {
  // Compact JSON: {"id":<id>,"ok":true,...}. The id is a number the
  // benchmark chose, so the first "ok" key is the envelope's.
  const std::size_t at = line.find("\"ok\":");
  return at != std::string_view::npos && line.substr(at + 5, 4) == "true";
}

std::string_view reply_payload(std::string_view line) {
  const std::size_t begin = line.find(",\"ok\":");
  const std::size_t end = line.rfind(",\"trace_id\":");
  if (begin == std::string_view::npos) return line;
  return line.substr(begin, (end == std::string_view::npos ? line.size() : end) - begin);
}

// ---------------------------------------------------------------------------
// Counters.

namespace {

void flatten_into(const Json& value, const std::string& prefix, Counters& out) {
  if (value.is_number()) {
    out[prefix] = value.as_number();
  } else if (value.is_bool()) {
    out[prefix] = value.as_bool() ? 1.0 : 0.0;
  } else if (value.is_object()) {
    for (const Json::Member& m : value.as_object()) {
      flatten_into(m.second, prefix.empty() ? m.first : prefix + "/" + m.first, out);
    }
  }
}

}  // namespace

Counters flatten(const Json& document) {
  Counters out;
  flatten_into(document, "", out);
  return out;
}

Counters diff(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    out[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

double get(const Counters& counters, const std::string& key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0.0 : it->second;
}

Counters daemon_stats(LineChannel& channel) {
  const std::optional<std::string> reply = channel.round_trip(R"({"id":0,"cmd":"stats"})");
  if (!reply || !reply_ok(*reply)) throw std::runtime_error("stats request failed");
  const Json doc = Json::parse(*reply);
  return flatten(*doc.find("result"));
}

Counters registry_stats() {
  Json doc = Json::object();
  doc.set("metrics", spsta::service::metrics_json());
  return flatten(doc);
}

double stage_total_ms(const Counters& delta, const std::string& stage) {
  return get(delta, "metrics/stages/" + stage + "/total_ms");
}

namespace {

/// Mean time per recorded request of a stage histogram between two
/// snapshots: total_ms / count (0 when nothing was recorded).
double stage_mean_ms(const Counters& delta, const std::string& stage) {
  const double count = get(delta, "metrics/stages/" + stage + "/count");
  return count > 0 ? stage_total_ms(delta, stage) / count : 0.0;
}

}  // namespace

double hit_pct(double hits, double misses) {
  return hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
}

double idle_transport_rtt_ms(LineChannel& channel) {
  constexpr int pings = 1000;
  const Counters before = daemon_stats(channel);
  double total = 0.0;
  for (int i = 0; i < pings; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::optional<std::string> reply = channel.round_trip(R"({"id":0,"cmd":"ping"})");
    if (!reply || !reply_ok(*reply)) throw std::runtime_error("ping failed");
    total += ms_between(t0, Clock::now());
  }
  const Counters delta = diff(before, daemon_stats(channel));
  // The first snapshot's own request is one of the samples; against a
  // thousand pings its weight is negligible.
  const double daemon_ms = stage_mean_ms(delta, "service.queue_wait") +
                           stage_mean_ms(delta, "service.execute") +
                           stage_mean_ms(delta, "service.serialize");
  return std::max(0.0, total / pings - daemon_ms);
}

// ---------------------------------------------------------------------------
// Bitwise checks.

namespace {

/// A node as the service renders it: probs when the engine has them, then
/// {p, mean, std} per direction.
struct Rendered {
  bool has_probs = false;
  double probs[4] = {};
  double rise[3] = {};
  double fall[3] = {};
};

Rendered render(const spsta::AnalysisResult& result, NodeId id) {
  Rendered r;
  const auto set_probs = [&](const spsta::netlist::FourValueProbs& p) {
    r.has_probs = true;
    r.probs[0] = p.p0;
    r.probs[1] = p.p1;
    r.probs[2] = p.pr;
    r.probs[3] = p.pf;
  };
  if (const auto* moment = std::get_if<spsta::core::SpstaResult>(&result)) {
    const auto& top = moment->node.at(id);
    set_probs(top.probs);
    r.rise[0] = top.rise.mass;
    r.rise[1] = top.rise.arrival.mean;
    r.rise[2] = top.rise.arrival.stddev();
    r.fall[0] = top.fall.mass;
    r.fall[1] = top.fall.arrival.mean;
    r.fall[2] = top.fall.arrival.stddev();
  } else if (const auto* canonical =
                 std::get_if<spsta::core::SpstaCanonicalResult>(&result)) {
    const auto& top = canonical->node.at(id);
    set_probs(top.probs);
    r.rise[0] = top.rise.mass;
    r.rise[1] = top.rise.arrival.mean();
    r.rise[2] = std::sqrt(top.rise.arrival.variance());
    r.fall[0] = top.fall.mass;
    r.fall[1] = top.fall.arrival.mean();
    r.fall[2] = std::sqrt(top.fall.arrival.variance());
  } else if (const auto* ssta = std::get_if<spsta::ssta::SstaResult>(&result)) {
    const auto& a = ssta->arrival.at(id);
    r.rise[0] = 1.0;
    r.rise[1] = a.rise.mean;
    r.rise[2] = a.rise.stddev();
    r.fall[0] = 1.0;
    r.fall[1] = a.fall.mean;
    r.fall[2] = a.fall.stddev();
  } else {
    throw std::logic_error("spsta_bench checks moment, canonical and ssta results only");
  }
  return r;
}

bool same_bits(const Json* value, double want) {
  if (value == nullptr || !value->is_number()) return false;
  const double got = value->as_number();
  return std::memcmp(&got, &want, sizeof got) == 0;
}

bool matches(const Json& row, const Rendered& want, std::string* why) {
  const auto direction = [&](const char* key, const double* w) {
    const Json* d = row.find(key);
    return d != nullptr && same_bits(d->find("p"), w[0]) &&
           same_bits(d->find("mean"), w[1]) && same_bits(d->find("std"), w[2]);
  };
  bool ok = direction("rise", want.rise) && direction("fall", want.fall);
  if (ok && want.has_probs) {
    const Json* p = row.find("probs");
    ok = p != nullptr && same_bits(p->find("p0"), want.probs[0]) &&
         same_bits(p->find("p1"), want.probs[1]) && same_bits(p->find("pr"), want.probs[2]) &&
         same_bits(p->find("pf"), want.probs[3]);
  }
  if (!ok && why != nullptr) *why = "node differs: " + row.dump().substr(0, 200);
  return ok;
}

}  // namespace

bool endpoints_match(const Json& result, const spsta::AnalysisResult& reference,
                     std::string* why) {
  const Json* endpoints = result.find("endpoints");
  if (endpoints == nullptr || !endpoints->is_array() || endpoints->as_array().empty()) {
    if (why != nullptr) *why = "no endpoints in the reply";
    return false;
  }
  for (const Json& row : endpoints->as_array()) {
    const Json* node = row.find("node");
    if (node == nullptr || !node->is_number()) {
      if (why != nullptr) *why = "endpoint row without a node id";
      return false;
    }
    if (!matches(row, render(reference, static_cast<NodeId>(node->as_number())), why)) {
      return false;
    }
  }
  return true;
}

bool node_matches(const Json& stats, const spsta::AnalysisResult& reference, NodeId id,
                  std::string* why) {
  const Json* node = stats.find("node");
  if (node == nullptr || !node->is_number() || node->as_number() != static_cast<double>(id)) {
    if (why != nullptr) *why = "query answered for another node";
    return false;
  }
  return matches(stats, render(reference, id), why);
}

spsta::Analyzer session_analyzer(spsta::netlist::Netlist design) {
  spsta::netlist::DelayModel delays = spsta::netlist::DelayModel::unit(design);
  std::vector<spsta::netlist::SourceStats> sources(design.timing_sources().size(),
                                                   spsta::netlist::scenario_I());
  return spsta::Analyzer(std::move(design), std::move(delays), std::move(sources));
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

std::span<const LayerSpec> layer_specs() {
  static constexpr LayerSpec kSpecs[] = {
      // Attribution: share of the mean op time, in percent.
      {"client.late_pct", "%"},
      {"transport.rtt_pct", "%"},
      {"transport.hold_pct", "%"},
      {"transport.stdio_pct", "%"},
      {"worker_pool.queue_pct", "%"},
      {"scheduler.queue_pct", "%"},
      {"service.execute_pct", "%"},
      {"protocol.encode_pct", "%"},
      {"protocol.decode_pct", "%"},
      {"compiled_design.compile_pct", "%"},
      {"moment.run_pct", "%"},
      {"ssta.run_pct", "%"},
      {"canonical.run_pct", "%"},
      {"numeric.run_pct", "%"},
      {"numeric.propagate_pct", "%"},
      {"numeric.grid_pct", "%"},
      {"mc.run_pct", "%"},
      {"mc.shards_pct", "%"},
      {"mc.merge_pct", "%"},
      {"residual_pct", "%"},
      {"trace_overhead_pct", "%"},
      // Work counts and cache outcomes.
      {"worker_pool.shed_pct", "%"},
      {"session.result_cache_hit_pct", "%"},
      {"session.plan_cache_hit_pct", "%"},
      {"session.query_cache_hit_pct", "%"},
      {"session.evictions_per_op", "count"},
      {"pattern_cache.hit_pct", "%"},
      {"incremental.cone_nodes_per_commit", "count"},
      {"incremental.settled_early_pct", "%"},
      {"conv.fft_per_run", "count"},
      {"conv.direct_per_run", "count"},
      {"conv.shift_per_run", "count"},
      {"workspace.grow_per_run", "count"},
      {"mc.runs_per_s", "1/s"},
      {"protocol.request_kb", "KB"},
      // Replays on the workload's own designs: ms per design.
      {"netlist.parse_ms", "ms"},
      {"netlist.levelize_ms", "ms"},
      {"compiled_design.compile_ms", "ms"},
      {"compiled_design.recompile_ms", "ms"},
      {"moment.propagate_ms", "ms"},
      {"ssta.run_ms", "ms"},
      {"incremental.commit_ms", "ms"},
      {"incremental.probe_ms", "ms"},
  };
  return kSpecs;
}

void set_daemon_layers(const DaemonPhase& phase, MetricList& layers) {
  const Counters& d = phase.delta;
  const double ops = static_cast<double>(phase.op_ms.size());
  const double op_mean = mean(phase.op_ms);
  if (ops == 0 || op_mean <= 0) return;
  const double total_ms = op_mean * ops;
  const auto pct_of_op = [&](double ms_per_op) { return 100.0 * ms_per_op / op_mean; };
  const auto pct_of_total = [&](double ms) { return 100.0 * ms / total_ms; };

  const double per_request = phase.requests_per_op;
  const double late = phase.late_ms / ops;
  const double queue = stage_mean_ms(d, "service.queue_wait") * per_request;
  const double execute = stage_mean_ms(d, "service.execute") * per_request;
  const double encode = stage_mean_ms(d, "service.serialize") * per_request;
  const double rtt = phase.rtt_ms * phase.round_trips_per_op;
  const double hold = op_mean - late - queue - execute - encode;

  layers.set("client.late_pct", pct_of_op(late), "%");
  layers.set("transport.rtt_pct", pct_of_op(rtt), "%");
  layers.set(phase.socket ? "transport.hold_pct" : "transport.stdio_pct", pct_of_op(hold), "%");
  layers.set(phase.socket ? "worker_pool.queue_pct" : "scheduler.queue_pct", pct_of_op(queue),
             "%");
  layers.set("service.execute_pct", pct_of_op(execute), "%");
  layers.set("protocol.encode_pct", pct_of_op(encode), "%");
  layers.set("protocol.decode_pct", pct_of_op(phase.decode_us * 1e-3 * per_request), "%");
  layers.set("residual_pct", pct_of_op(hold - rtt), "%");

  layers.set("moment.run_pct", pct_of_total(get(d, "engines/spsta_moment/wall_ms")), "%");
  layers.set("ssta.run_pct", pct_of_total(get(d, "engines/ssta/wall_ms")), "%");
  layers.set("canonical.run_pct", pct_of_total(get(d, "engines/canonical/wall_ms")), "%");
  layers.set("numeric.run_pct", pct_of_total(get(d, "engines/spsta_numeric/wall_ms")), "%");
  layers.set("mc.run_pct", pct_of_total(get(d, "engines/mc/wall_ms")), "%");

  const double requests = ops * per_request;
  layers.set("worker_pool.shed_pct",
             100.0 * get(d, "metrics/counters/service.pool.overloaded") / requests, "%");
  layers.set("session.result_cache_hit_pct",
             hit_pct(get(d, "analysis_cache/hits"), get(d, "analysis_cache/misses")), "%");
  layers.set("session.plan_cache_hit_pct",
             hit_pct(get(d, "plan_cache/plan_hits"), get(d, "plan_cache/plan_misses")), "%");
  layers.set("session.evictions_per_op", get(d, "plan_cache/evictions") / ops, "count");
  layers.set("pattern_cache.hit_pct",
             hit_pct(get(d, "pattern_cache/hits"), get(d, "pattern_cache/misses")), "%");
  layers.set("protocol.request_kb", phase.request_bytes_per_op / 1024.0, "KB");
}

}  // namespace spsta_bench

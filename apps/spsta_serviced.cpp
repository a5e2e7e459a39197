// spsta_serviced — the long-lived analysis daemon.
//
// Speaks the JSON-lines protocol over stdin/stdout, or with --listen over
// TCP connections: one request per line, one response line per request,
// in order. Every transport runs on the same sharded worker pool
// (service/runtime.hpp). Each loaded design is parsed once and held in a
// unified Analyzer (spsta_api.hpp) whose compiled analysis plan stays warm
// across requests; repeated analyses are served from the result cache and
// ECO edits ride the incremental engine. Malformed input yields structured
// error responses — nothing a client sends kills the daemon.
//
//   $ spsta_serviced [--workers=N]
//   {"id":1,"cmd":"load","circuit":"s27"}
//   {"id":1,"ok":true,"result":{"session":"...","name":"s27",...}}
//   {"id":2,"cmd":"analyze","session":"...","engine":"spsta_moment"}
//   ...
//   {"id":9,"cmd":"shutdown"}

#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "service/runtime.hpp"
#include "service/transport/server.hpp"

int main(int argc, char** argv) {
  spsta::service::ServeOptions options;
  spsta::service::StoreBudget budget;
  bool dump_metrics = false;
  std::string listen_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--listen=", 0) == 0) {
      listen_spec = arg.substr(9);
    } else if (arg.rfind("--workers=", 0) == 0 || arg.rfind("--threads=", 0) == 0) {
      // Two spellings of one value, both 10 characters long.
      options.workers = static_cast<unsigned>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--queue-cap=", 0) == 0) {
      options.queue_capacity = std::stoul(arg.substr(12));
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      budget.max_sessions = std::stoul(arg.substr(15));
    } else if (arg.rfind("--max-store-mb=", 0) == 0) {
      budget.max_bytes = std::stoul(arg.substr(15)) << 20;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
    } else if (arg == "--metrics") {
      dump_metrics = true;
    } else if (arg == "--no-metrics") {
      spsta::obs::set_enabled(false);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "spsta_serviced — JSON-lines analysis daemon over stdin/stdout\n"
          "  --listen=HOST:PORT  serve TCP connections instead of stdio; each\n"
          "                      connection speaks JSON lines or, after the\n"
          "                      \\0SPF1 magic, length-prefixed binary frames;\n"
          "                      port 0 picks one (printed to stderr)\n"
          "  --workers=N       N sharded workers with affinity routing and\n"
          "                    admission control (default: one per hardware\n"
          "                    thread, at most 16); --threads=N is the same\n"
          "  --queue-cap=N     per-worker bounded queue (default 256); a full\n"
          "                    queue sheds requests with an 'overloaded' error\n"
          "  --max-sessions=N  LRU-evict loaded designs beyond N sessions\n"
          "  --max-store-mb=N  LRU-evict beyond ~N MiB of resident sessions\n"
          "  --trace=FILE      append one JSON trace line per request to FILE\n"
          "  --metrics         dump the metrics registry to stderr at exit\n"
          "  --no-metrics      disable metric recording (zero-overhead serving)\n"
          "Protocol: see DESIGN.md §9; runtime: §13. Commands: ping load\n"
          "analyze query set_delay set_source stats unload shutdown\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  spsta::service::AnalysisService service;
  service.set_store_budget(budget);

  if (!listen_spec.empty()) {
    const auto spec = spsta::service::transport::parse_host_port(listen_spec);
    if (!spec) {
      std::fprintf(stderr, "bad --listen spec '%s' (want HOST:PORT)\n",
                   listen_spec.c_str());
      return 2;
    }
    try {
      spsta::service::transport::SocketServer server(
          service, {spec->host, spec->port, options});
      const std::uint16_t port = server.listen();
      std::fprintf(stderr, "spsta_serviced: listening on %s:%u\n",
                   spec->host.c_str(), static_cast<unsigned>(port));
      const spsta::service::transport::SocketServerReport report = server.serve();
      std::fprintf(stderr,
                   "spsta_serviced: served %llu requests over %llu connections "
                   "(%llu binary-frame) (%s)\n",
                   static_cast<unsigned long long>(report.requests),
                   static_cast<unsigned long long>(report.connections),
                   static_cast<unsigned long long>(report.frame_connections),
                   report.shutdown ? "shutdown" : "stopped");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spsta_serviced: %s\n", e.what());
      return 1;
    }
    if (dump_metrics) {
      std::fprintf(stderr, "%s\n", spsta::service::metrics_json().dump().c_str());
    }
    return 0;
  }

  spsta::service::Runtime runtime(service, options);
  const spsta::service::ConnectionReport report =
      runtime.serve_connection(/*in_fd=*/0, /*out_fd=*/1);
  std::fprintf(stderr, "spsta_serviced: served %llu requests (%s)\n",
               static_cast<unsigned long long>(report.requests),
               service.shutdown_requested() ? "shutdown" : "eof");
  if (dump_metrics) {
    std::fprintf(stderr, "%s\n", spsta::service::metrics_json().dump().c_str());
  }
  return 0;
}

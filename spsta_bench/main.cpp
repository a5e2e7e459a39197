// spsta_bench: the end-to-end benchmark of the analysis toolkit.
//
//   spsta_bench --workload=serve|eco|signoff|cold --seed=N [--seconds=S]
//               [--trace=FILE] [--check=BENCHMARK.json]
//
// The seed drives the request mix, the edit schedule, the cold designs and
// the Monte Carlo seed; the base designs are fixed, so problem size does
// not depend on it. Output: one detail line with the workload's own metric
// names, the environment stamp and any check failures, then the result
// line {"correct", "attempted", "failed", "metrics"}. Untraced, its metrics
// are the end-to-end ones. With --trace the workload runs again with the
// same seed, traced; the metrics are then the per-layer ones and the spans
// go to FILE as JSON lines. --check compares the emitted metric names and
// units with BENCHMARK.json and fails on any difference or failed check.

#include <cctype>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "service/transport/socket.hpp"
#include "stats/simd.hpp"

namespace {

using namespace spsta_bench;

struct Workload {
  const char* name;
  RunResult (*run)(const Options&, Tracer*);
};

constexpr Workload kWorkloads[] = {
    {"serve", run_serve},
    {"eco", run_eco},
    {"signoff", run_signoff},
    {"cold", run_cold},
};

/// The end-to-end metrics every workload reports, about its own op: a
/// served request (serve), a sizing iteration (eco), one circuit's
/// sign-off (signoff), a first answer on a new design (cold).
MetricList end_to_end(const RunResult& r) {
  MetricList m;
  m.set("op_p50_ms", r.e2e.p50_ms, "ms");
  m.set("op_p95_ms", r.e2e.p95_ms, "ms");
  m.set("ops_per_s", r.e2e.ops_per_s, "1/s");
  m.set("setup_s", r.setup_s, "s");
  return m;
}

/// Every declared layer metric, in declaration order; layers a workload
/// does not touch read 0.
MetricList complete_layers(const MetricList& set) {
  for (const Metric& m : set.items()) {
    bool known = false;
    for (const LayerSpec& spec : layer_specs()) known = known || m.name == spec.name;
    if (!known) throw std::logic_error("undeclared layer metric " + m.name);
  }
  MetricList out;
  for (const LayerSpec& spec : layer_specs()) {
    double value = 0.0;
    for (const Metric& m : set.items()) {
      if (m.name == spec.name) value = m.value;
    }
    out.set(spec.name, value, spec.unit);
  }
  return out;
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

/// Differences between the emitted metrics and BENCHMARK.json.
std::vector<std::string> check_against(const std::string& path, const MetricList& e2e,
                                       const MetricList* layers) {
  std::ifstream in(path);
  if (!in) return {"cannot read " + path};
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  std::vector<std::string> problems;
  const auto compare = [&](const char* section, const MetricList& emitted) {
    const Json* declared = doc.find(section);
    if (declared == nullptr || !declared->is_array()) {
      problems.push_back(std::string(section) + " missing from " + path);
      return;
    }
    for (const Json& entry : declared->as_array()) {
      const std::string name = entry.find("name")->as_string();
      const std::string unit = entry.find("unit")->as_string();
      bool found = false;
      for (const Metric& m : emitted.items()) {
        if (m.name != name) continue;
        found = true;
        if (m.unit != unit) problems.push_back(name + ": unit " + m.unit + ", declared " + unit);
      }
      if (!found) problems.push_back(name + ": declared but not emitted");
    }
    for (const Metric& m : emitted.items()) {
      if (!valid_name(m.name)) problems.push_back(m.name + ": invalid name");
      bool found = false;
      for (const Json& entry : declared->as_array()) {
        found = found || entry.find("name")->as_string() == m.name;
      }
      if (!found) problems.push_back(m.name + ": emitted but not declared in " + section);
    }
  };
  compare("end_to_end", e2e);
  if (layers != nullptr) compare("per_layer", *layers);
  return problems;
}

Json environment() {
  Json env = Json::object();
  env.set("nproc", Json(std::thread::hardware_concurrency()));
  env.set("simd", Json(spsta::stats::simd::tier_name()));
#if defined(__clang__)
  env.set("compiler", Json("clang " __clang_version__));
#elif defined(__GNUC__)
  env.set("compiler", Json("gcc " __VERSION__));
#else
  env.set("compiler", Json("unknown"));
#endif
  env.set("build_type", Json(SPSTA_BENCH_BUILD_TYPE));
  return env;
}

int usage() {
  std::fprintf(stderr,
               "usage: spsta_bench --workload=serve|eco|signoff|cold --seed=N [--seconds=S]\n"
               "                   [--trace=FILE] [--check=BENCHMARK.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  spsta::service::transport::ignore_sigpipe();
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (arg.rfind(key, 0) == 0 && arg.size() > key.size() && arg[key.size()] == '=') {
        return arg.substr(key.size() + 1);
      }
      return std::nullopt;
    };
    try {
      if (auto v = value("--workload")) {
        options.workload = *v;
      } else if (auto v = value("--seed")) {
        options.seed = std::stoull(*v);
      } else if (auto v = value("--seconds")) {
        options.seconds = std::stod(*v);
      } else if (auto v = value("--trace")) {
        options.trace_path = *v;
      } else if (auto v = value("--check")) {
        options.check_path = *v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !(options.seconds > 0)) return usage();

  try {
    const RunResult untraced = workload->run(options, nullptr);
    const MetricList e2e = end_to_end(untraced);
    std::vector<std::string> failures = untraced.failures;
    std::uint64_t attempted = untraced.attempted;
    std::uint64_t failed = untraced.failed;

    std::optional<MetricList> layers;
    if (!options.trace_path.empty()) {
      Tracer tracer;
      RunResult traced = workload->run(options, &tracer);
      traced.layers.set("trace_overhead_pct",
                        100.0 * (traced.e2e.p50_ms / untraced.e2e.p50_ms - 1.0), "%");
      layers = complete_layers(traced.layers);
      failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
      attempted += traced.attempted;
      failed += traced.failed;
      if (!tracer.write(options.trace_path)) {
        throw std::runtime_error("cannot write spans to " + options.trace_path);
      }
    }

    Json detail = Json::object();
    detail.set("bench", Json("spsta_bench"));
    detail.set("workload", Json(options.workload));
    detail.set("seed", Json(options.seed));
    detail.set("seconds", Json(options.seconds));
    detail.set("env", environment());
    detail.set("checks_ok", Json(failures.empty()));
    detail.set("attempted", Json(untraced.attempted));
    detail.set("failed", Json(untraced.failed));
    MetricList named = e2e;
    for (const Metric& m : untraced.detail.items()) named.set(m.name, m.value, m.unit);
    detail.set("metrics", named.to_json());
    MetricList diag = untraced.diag;
    diag.set("diag.quiet_share_pct", 100.0 * untraced.e2e.kept_share, "%");
    detail.set("diag", diag.to_json());
    Json failure_list = Json::array();
    for (const std::string& f : failures) failure_list.push_back(Json(f));
    detail.set("failures", std::move(failure_list));
    std::printf("%s\n", detail.dump().c_str());

    Json line = Json::object();
    line.set("correct", Json(failures.empty()));
    line.set("attempted", Json(attempted));
    line.set("failed", Json(failed));
    line.set("metrics", layers ? layers->to_json() : e2e.to_json());
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);

    if (!options.check_path.empty()) {
      std::vector<std::string> problems =
          check_against(options.check_path, e2e, layers ? &*layers : nullptr);
      problems.insert(problems.end(), failures.begin(), failures.end());
      for (const std::string& p : problems) std::fprintf(stderr, "check: %s\n", p.c_str());
      if (!problems.empty()) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spsta_bench: %s\n", e.what());
    return 1;
  }
}

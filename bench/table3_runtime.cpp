// Table 3: CPU runtime of 4-value SPSTA, min/max-separated SSTA, and
// 10K-run Monte Carlo per benchmark circuit. Engine timings use best-of-N
// wall-clock with benchmark::DoNotOptimize guarding against dead-code
// elimination; the binary then prints the Table 3 layout. Only the
// *relative* ordering (SPSTA ~ SSTA << 10K MC) is comparable to the
// paper's 2008-era absolute numbers.
//
// The Monte Carlo column is measured twice — single-threaded and with the
// pool sized by --threads (default 8) — and every parallel run is checked
// to be BIT-IDENTICAL to the single-threaded statistics (the determinism
// contract of the execution layer; see DESIGN.md). Pass --json=FILE to
// append one JSON line per invocation: a timing trajectory that can be
// tracked across commits.
//
// The "SPSTA warm" column times the compile-once/run-many path of the
// unified API: a CompiledDesign built once, then run_spsta_moment(plan)
// with the structural work and switch-pattern enumeration amortized away
// — what every analyze after the first costs an Analyzer or a service
// session. Pass --circuits=s27,s208 to restrict the circuit set (CI runs
// the two smallest).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/compiled_design.hpp"
#include "core/spsta.hpp"
#include "hier/hier_analyzer.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/generator.hpp"
#include "netlist/hier.hpp"
#include "netlist/iscas89.hpp"
#include "obs/metrics.hpp"
#include "report/table.hpp"
#include "service/service.hpp"
#include "spsta_api.hpp"
#include "ssta/ssta.hpp"
#include "stats/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Exact equality of the accumulated statistics two runs produced.
bool same_statistics(const spsta::mc::MonteCarloResult& a,
                     const spsta::mc::MonteCarloResult& b) {
  if (a.node.size() != b.node.size() || a.glitching_gates != b.glitching_gates) {
    return false;
  }
  for (std::size_t id = 0; id < a.node.size(); ++id) {
    for (int v = 0; v < 4; ++v) {
      if (a.node[id].count[v] != b.node[id].count[v]) return false;
    }
    if (a.node[id].rise_time.mean() != b.node[id].rise_time.mean() ||
        a.node[id].rise_time.variance() != b.node[id].rise_time.variance() ||
        a.node[id].fall_time.mean() != b.node[id].fall_time.mean() ||
        a.node[id].fall_time.variance() != b.node[id].fall_time.variance()) {
      return false;
    }
  }
  return true;
}

/// Per-stage wall clock of one instrumented run, read back from the obs
/// registry's stage histograms (all milliseconds).
struct StageBreakdown {
  double levelize_ms = 0.0;
  double sigprob_ms = 0.0;
  double moment_ms = 0.0;
  double mc_shards_ms = 0.0;
  double mc_merge_ms = 0.0;
  bool available = false;  ///< false under --no-metrics / compiled-out obs
};

struct CircuitTiming {
  std::string name;
  double spsta = 0.0, spsta_warm = 0.0, ssta = 0.0, mc1 = 0.0, mcN = 0.0;
  bool identical = false;
  StageBreakdown stages;
};

/// Comma-separated --circuits= selection, validated against the paper set.
std::vector<std::string> parse_circuit_filter(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string name = list.substr(pos, comma - pos);
    if (!name.empty()) out.push_back(name);
    pos = comma + 1;
  }
  return out;
}

/// One fresh instrumented run per engine against a clean registry, so the
/// stage totals describe exactly one spsta_moment run and one parallel MC
/// run (the best-of-N timing loops above would tally every repetition).
StageBreakdown measure_stages(const spsta::netlist::Netlist& n,
                              const spsta::netlist::DelayModel& d,
                              const std::vector<spsta::netlist::SourceStats>& sc,
                              const spsta::mc::MonteCarloConfig& cfg) {
  StageBreakdown out;
  if (!spsta::obs::enabled()) return out;
  spsta::obs::registry().reset_values();
  benchmark::DoNotOptimize(spsta::core::run_spsta_moment(n, d, sc));
  benchmark::DoNotOptimize(spsta::mc::run_monte_carlo(n, d, sc, cfg));
  const spsta::obs::Snapshot snap = spsta::obs::registry().snapshot();
  out.levelize_ms = snap.histogram_total_ms("stage.levelize");
  out.sigprob_ms = snap.histogram_total_ms("stage.sigprob.propagate");
  out.moment_ms = snap.histogram_total_ms("stage.moment.propagate");
  out.mc_shards_ms = snap.histogram_total_ms("stage.mc.shards");
  out.mc_merge_ms = snap.histogram_total_ms("stage.mc.merge");
  out.available = true;
  return out;
}

/// Throughput of the analysis service on one circuit, in requests/second:
/// a warm session (design parsed once, repeated analyze served from the
/// result cache) against cold one-shots (a fresh service doing load +
/// analyze per request — what shelling out to a one-shot binary costs).
struct ServiceThroughput {
  std::string circuit;
  double warm_rps = 0.0;
  double cold_rps = 0.0;
};

ServiceThroughput measure_service(const std::string& circuit) {
  using spsta::service::AnalysisService;
  namespace chrono = std::chrono;
  const std::string load_line =
      "{\"cmd\":\"load\",\"circuit\":\"" + circuit + "\"}";
  const auto analyze_line = [](const std::string& session) {
    return "{\"cmd\":\"analyze\",\"session\":\"" + session +
           "\",\"engine\":\"spsta_moment\"}";
  };

  ServiceThroughput out;
  out.circuit = circuit;

  {  // Warm: one long-lived session, cache populated by the first analyze.
    AnalysisService service;
    const auto loaded = service.execute_line(load_line);
    const std::string session = loaded.body.find("session")->as_string();
    const std::string line = analyze_line(session);
    benchmark::DoNotOptimize(service.execute_line(line));
    constexpr int kWarmRequests = 500;
    const auto t0 = chrono::steady_clock::now();
    for (int i = 0; i < kWarmRequests; ++i) {
      benchmark::DoNotOptimize(service.execute_line(line));
    }
    const double secs =
        chrono::duration<double>(chrono::steady_clock::now() - t0).count();
    out.warm_rps = kWarmRequests / std::max(secs, 1e-12);
  }

  {  // Cold: every request pays parse + levelize + full analysis.
    constexpr int kColdRequests = 10;
    const auto t0 = chrono::steady_clock::now();
    for (int i = 0; i < kColdRequests; ++i) {
      AnalysisService service;
      const auto loaded = service.execute_line(load_line);
      const std::string session = loaded.body.find("session")->as_string();
      benchmark::DoNotOptimize(service.execute_line(analyze_line(session)));
    }
    const double secs =
        chrono::duration<double>(chrono::steady_clock::now() - t0).count();
    out.cold_rps = kColdRequests / std::max(secs, 1e-12);
  }
  return out;
}

/// --grid-sweep: warm numeric-engine wall clock vs grid resolution on one
/// circuit with stochastic (sigma > 0) delays — the scaling column for the
/// kernel layer (direct O(n^2) vs FFT O(n log n); DESIGN.md §12). A tiny
/// grid_dt makes the max_grid_points cap bind, so the grid size equals the
/// requested point count exactly.
struct GridSweepPoint {
  std::size_t n = 0;
  double seconds = 0.0;         ///< auto-detected SIMD tier
  double scalar_seconds = 0.0;  ///< forced-scalar reference (same bits)
};

std::vector<GridSweepPoint> measure_grid_sweep(const std::string& circuit) {
  using namespace spsta;
  const netlist::Netlist n = netlist::make_paper_circuit(circuit);
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.1);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  const core::CompiledDesign plan(n, d);

  std::vector<GridSweepPoint> out;
  for (const std::size_t cap : {256u, 1024u, 2048u, 4096u, 8192u}) {
    core::SpstaOptions opts;
    opts.grid_dt = 1e-4;
    opts.max_grid_points = cap;
    // Warm once (pattern templates, workspace), then best-of —
    // once per dispatch tier; the scalar column is the vectorization
    // roofline (both tiers produce bit-identical results).
    GridSweepPoint p;
    p.n = cap;
    for (const bool scalar : {false, true}) {
      stats::simd::set_force_scalar(scalar);
      benchmark::DoNotOptimize(core::run_spsta_numeric(plan, sc, opts));
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(core::run_spsta_numeric(plan, sc, opts));
        best = std::min(
            best,
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count());
      }
      (scalar ? p.scalar_seconds : p.seconds) = best;
    }
    stats::simd::set_force_scalar(false);
    out.push_back(p);
  }
  return out;
}

/// --size-sweep: hierarchical composition vs flat analysis over generated
/// designs of growing flattened size (DESIGN.md §14). For each size the
/// same HierDesign is analyzed twice — composed through block models and
/// flattened through the moment engine — so the runtime columns AND the
/// composed-vs-flat accuracy columns come from one deterministic design.
struct SizeSweepPoint {
  std::size_t gates = 0, instances = 0, blocks = 0;
  double gen_s = 0.0;
  double hier_compile_s = 0.0;  ///< HierAnalyzer ctor: block compiles + graph
  double hier_cold_s = 0.0;     ///< first composed run (pays extractions)
  double hier_warm_s = 0.0;     ///< second run (every instance a cache hit)
  double flatten_s = 0.0;
  double flat_compile_s = 0.0;  ///< CompiledDesign over the flat netlist
  double flat_warm_s = 0.0;     ///< warm flat moment run (best of 2)
  std::uint64_t models_extracted = 0, model_cache_hits = 0;
  double max_prob_delta = 0.0;      ///< composed vs flat probs/mass (abs)
  double max_rel_mean_delta = 0.0;  ///< composed vs flat arrival mean (rel)
  double max_rel_std_delta = 0.0;   ///< composed vs flat arrival std (rel)
};

SizeSweepPoint measure_size_point(std::size_t total_gates) {
  using namespace spsta;
  namespace chrono = std::chrono;
  const auto tick = [] { return chrono::steady_clock::now(); };
  const auto secs = [](auto t0, auto t1) {
    return chrono::duration<double>(t1 - t0).count();
  };

  SizeSweepPoint out;
  netlist::HierGeneratorSpec spec;
  spec.total_gates = total_gates;

  auto t0 = tick();
  netlist::HierDesign design = netlist::generate_hier_circuit(spec);
  out.gen_s = secs(t0, tick());
  out.blocks = design.blocks().size();
  out.instances = design.instances().size();
  out.gates = design.expanded_gate_count();

  // Flat reference: the exact analysis the composition must reproduce.
  t0 = tick();
  const netlist::Netlist flat = design.flatten();
  out.flatten_s = secs(t0, tick());
  const netlist::DelayModel delays = netlist::DelayModel::unit(flat);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  t0 = tick();
  const core::CompiledDesign plan(flat, delays);
  out.flat_compile_s = secs(t0, tick());
  core::SpstaResult flat_result;
  double flat_best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {  // first rep warms the pattern templates
    t0 = tick();
    flat_result = core::run_spsta_moment(plan, sc);
    flat_best = std::min(flat_best, secs(t0, tick()));
  }
  out.flat_warm_s = flat_best;

  // Hierarchical composition over the same design.
  t0 = tick();
  hier::HierAnalyzer analyzer(std::move(design));
  out.hier_compile_s = secs(t0, tick());
  spsta::AnalysisRequest request;
  request.engine = Engine::SpstaMoment;
  const hier::HierReport cold = analyzer.run(request);
  out.hier_cold_s = cold.elapsed_seconds;
  out.models_extracted = cold.models_extracted;
  const hier::HierReport warm = analyzer.run(request);
  out.hier_warm_s = warm.elapsed_seconds;
  out.model_cache_hits = warm.model_cache_hits;

  // Composed-vs-flat accuracy at every top output. The flat node behind
  // hier signal "<inst>.<port>" is named "<inst>/<port>" by flatten().
  for (const std::size_t sig : warm.outputs) {
    std::string flat_name = warm.signal_names.at(sig);
    const std::size_t dot = flat_name.find('.');
    if (dot == std::string::npos) continue;  // a top input fed straight out
    flat_name[dot] = '/';
    const netlist::NodeId id = flat.find(flat_name);
    if (id == netlist::kInvalidNode) continue;
    const core::NodeTop& ref = flat_result.node.at(id);
    const hier::PortTop& got = warm.signals.at(sig);
    const auto abs_delta = [&](double a, double b) {
      out.max_prob_delta = std::max(out.max_prob_delta, std::abs(a - b));
    };
    abs_delta(got.probs.p0, ref.probs.p0);
    abs_delta(got.probs.p1, ref.probs.p1);
    abs_delta(got.probs.pr, ref.probs.pr);
    abs_delta(got.probs.pf, ref.probs.pf);
    abs_delta(got.rise.mass, ref.rise.mass);
    abs_delta(got.fall.mass, ref.fall.mass);
    const auto rel_delta = [](double a, double b) {
      return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-12});
    };
    for (const bool rising : {true, false}) {
      const core::TransitionTop& g = rising ? got.rise : got.fall;
      const core::TransitionTop& r = rising ? ref.rise : ref.fall;
      if (g.mass < 1e-12 && r.mass < 1e-12) continue;
      out.max_rel_mean_delta =
          std::max(out.max_rel_mean_delta, rel_delta(g.arrival.mean, r.arrival.mean));
      out.max_rel_std_delta = std::max(
          out.max_rel_std_delta, rel_delta(g.arrival.stddev(), r.arrival.stddev()));
    }
  }
  return out;
}

/// Comma-separated --size-sweep= gate counts (empty on parse failure).
std::vector<std::size_t> parse_size_list(const std::string& list) {
  std::vector<std::size_t> out;
  for (const std::string& item : parse_circuit_filter(list)) {
    try {
      out.push_back(std::stoull(item));
    } catch (const std::exception&) {
      return {};
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spsta;
  benchmark::Initialize(&argc, argv);

  unsigned threads = 8;
  bool grid_sweep = false;
  std::vector<std::size_t> size_sweep;
  std::string json_path;
  std::vector<std::string> circuit_filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<unsigned>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--circuits=", 0) == 0) {
      circuit_filter = parse_circuit_filter(arg.substr(11));
    } else if (arg == "--grid-sweep") {
      grid_sweep = true;
    } else if (arg == "--size-sweep") {
      size_sweep = {20000, 100000};
    } else if (arg.rfind("--size-sweep=", 0) == 0) {
      size_sweep = parse_size_list(arg.substr(13));
      if (size_sweep.empty()) {
        std::fprintf(stderr, "--size-sweep: bad gate-count list\n");
        return 2;
      }
    } else if (arg == "--no-metrics") {
      // Overhead A/B: compare wall clock against a default run to check the
      // metrics layer's cost with recording disabled.
      obs::set_enabled(false);
    }
  }
  threads = util::resolve_threads(threads);

  std::vector<std::string> circuits;
  for (std::string_view name : netlist::paper_circuit_names()) {
    if (circuit_filter.empty() ||
        std::find(circuit_filter.begin(), circuit_filter.end(), name) !=
            circuit_filter.end()) {
      circuits.emplace_back(name);
    }
  }
  if (!circuit_filter.empty() && circuits.size() != circuit_filter.size()) {
    for (const std::string& want : circuit_filter) {
      if (std::find(circuits.begin(), circuits.end(), want) == circuits.end()) {
        std::fprintf(stderr, "--circuits: unknown circuit '%s'\n", want.c_str());
      }
    }
    return 2;
  }
  if (circuits.empty()) {
    std::fprintf(stderr, "--circuits: empty selection\n");
    return 2;
  }

  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  std::vector<CircuitTiming> timings;

  report::Table table({"test", "SPSTA (s)", "SPSTA warm (s)", "warm x", "SSTA (s)",
                       "10K MC 1t (s)",
                       "10K MC " + std::to_string(threads) + "t (s)", "MC speedup",
                       "MC/SPSTA", "stages lvl/sp/mom/shard/merge (ms)"});
  bool all_identical = true;
  for (const std::string& name : circuits) {
    const netlist::Netlist n = netlist::make_paper_circuit(name);
    const netlist::DelayModel d = netlist::DelayModel::unit(n);

    const auto time_of = [](auto&& fn, int reps) {
      double best = 1e300;
      for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(
            best,
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count());
      }
      return best;
    };

    const double t_spsta = time_of(
        [&] { benchmark::DoNotOptimize(core::run_spsta_moment(n, d, sc)); }, 3);
    // Compile-once/run-many: the plan (levelization, adjacency, delay
    // span) is built outside the timed region; best-of picks a warm rep.
    // Both columns share the process-wide pattern template table.
    const core::CompiledDesign plan(n, d);
    const double t_spsta_warm = time_of(
        [&] { benchmark::DoNotOptimize(core::run_spsta_moment(plan, sc)); }, 5);
    const double t_ssta =
        time_of([&] { benchmark::DoNotOptimize(ssta::run_ssta(n, d, sc)); }, 3);

    mc::MonteCarloConfig cfg;
    cfg.runs = 10000;
    mc::MonteCarloResult r1, rN;
    const double t_mc1 = time_of([&] { r1 = mc::run_monte_carlo(n, d, sc, cfg); }, 1);
    cfg.threads = threads;
    const double t_mcN = time_of([&] { rN = mc::run_monte_carlo(n, d, sc, cfg); }, 1);
    const bool identical = same_statistics(r1, rN);
    all_identical = all_identical && identical;

    const StageBreakdown stages = measure_stages(n, d, sc, cfg);
    const std::string stage_cell =
        stages.available
            ? report::Table::num(stages.levelize_ms, 2) + "/" +
                  report::Table::num(stages.sigprob_ms, 2) + "/" +
                  report::Table::num(stages.moment_ms, 2) + "/" +
                  report::Table::num(stages.mc_shards_ms, 2) + "/" +
                  report::Table::num(stages.mc_merge_ms, 2)
            : "(metrics off)";

    timings.push_back(
        {name, t_spsta, t_spsta_warm, t_ssta, t_mc1, t_mcN, identical, stages});
    table.add_row({name, report::Table::num(t_spsta, 4),
                   report::Table::num(t_spsta_warm, 4),
                   report::Table::num(t_spsta / std::max(t_spsta_warm, 1e-9), 1) + "x",
                   report::Table::num(t_ssta, 4), report::Table::num(t_mc1, 4),
                   report::Table::num(t_mcN, 4),
                   report::Table::num(t_mc1 / std::max(t_mcN, 1e-9), 1) + "x" +
                       (identical ? "" : " (MISMATCH)"),
                   report::Table::num(t_mc1 / std::max(t_spsta, 1e-9), 0) + "x",
                   stage_cell});
  }

  std::printf("=== Table 3: CPU runtime (seconds) ===\n%s\n", table.to_string().c_str());
  std::printf("Paper's shape to reproduce: SPSTA within a small factor of SSTA,\n"
              "both orders of magnitude faster than 10K-run Monte Carlo.\n");
  std::printf("Parallel MC statistics bit-identical to single-threaded: %s\n",
              all_identical ? "yes" : "NO — determinism contract violated");

  // Service mode: what keeping the design warm in spsta_serviced buys over
  // shelling out a one-shot binary per request (largest paper circuit).
  const std::string service_circuit = circuits.back();
  const ServiceThroughput svc = measure_service(service_circuit);
  std::printf(
      "\n=== Service mode (%s, spsta_moment) ===\n"
      "warm session (cached analyze): %10.0f requests/s\n"
      "cold one-shot (load+analyze):  %10.2f requests/s\n"
      "warm/cold speedup:             %10.0fx\n",
      service_circuit.c_str(), svc.warm_rps, svc.cold_rps,
      svc.warm_rps / std::max(svc.cold_rps, 1e-12));

  // Hierarchy-vs-flat sweep: composed analysis through extracted block
  // models against the flattened moment engine on the same design.
  std::vector<SizeSweepPoint> size_points;
  if (!size_sweep.empty()) {
    report::Table hier_table(
        {"gates", "inst", "hier compile (s)", "hier cold (s)", "hier warm (s)",
         "flat compile (s)", "flat warm (s)", "warm x", "extract/hits",
         "max |dP|", "max rel dmean", "max rel dstd"});
    for (const std::size_t gates : size_sweep) {
      const SizeSweepPoint p = measure_size_point(gates);
      size_points.push_back(p);
      hier_table.add_row(
          {std::to_string(p.gates), std::to_string(p.instances),
           report::Table::num(p.hier_compile_s, 4), report::Table::num(p.hier_cold_s, 4),
           report::Table::num(p.hier_warm_s, 6),
           report::Table::num(p.flatten_s + p.flat_compile_s, 4),
           report::Table::num(p.flat_warm_s, 4),
           report::Table::num(p.flat_warm_s / std::max(p.hier_warm_s, 1e-9), 0) + "x",
           std::to_string(p.models_extracted) + "/" + std::to_string(p.model_cache_hits),
           report::Table::num(p.max_prob_delta, 14),
           report::Table::num(p.max_rel_mean_delta, 14),
           report::Table::num(p.max_rel_std_delta, 14)});
    }
    std::printf("\n=== Hierarchical size sweep (generated designs, spsta_moment) ===\n%s\n",
                hier_table.to_string().c_str());
    std::printf("hier warm composes cached block models (O(instances)); flat warm\n"
                "re-propagates every gate. Accuracy columns are composed-vs-flat\n"
                "deltas at the top outputs (contract: src/hier/block_model.hpp).\n");
  }

  std::vector<GridSweepPoint> sweep;
  if (grid_sweep) {
    const std::string sweep_circuit = circuits.back();
    sweep = measure_grid_sweep(sweep_circuit);
    std::printf("\n=== Numeric engine grid sweep (%s, gaussian delays, warm) ===\n",
                sweep_circuit.c_str());
    std::printf("%10s %12s %12s %8s\n", "grid n", "seconds", "scalar_s", "simd x");
    for (const GridSweepPoint& p : sweep) {
      std::printf("%10zu %12.4f %12.4f %7.2fx\n", p.n, p.seconds,
                  p.scalar_seconds, p.scalar_seconds / std::max(p.seconds, 1e-12));
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "a");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for append\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"table3_runtime\",\"threads\":%u,\"identical\":%s,"
                    "\"circuits\":[",
                 threads, all_identical ? "true" : "false");
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const CircuitTiming& t = timings[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"spsta_s\":%.6g,\"spsta_warm_s\":%.6g,"
                   "\"warm_speedup\":%.3g,\"ssta_s\":%.6g,"
                   "\"mc_1t_s\":%.6g,\"mc_%ut_s\":%.6g,\"mc_speedup\":%.3g",
                   i ? "," : "", t.name.c_str(), t.spsta, t.spsta_warm,
                   t.spsta / std::max(t.spsta_warm, 1e-9), t.ssta, t.mc1, threads,
                   t.mcN, t.mc1 / std::max(t.mcN, 1e-9));
      if (t.stages.available) {
        std::fprintf(f,
                     ",\"stages_ms\":{\"levelize\":%.6g,\"sigprob\":%.6g,"
                     "\"moment\":%.6g,\"mc_shards\":%.6g,\"mc_merge\":%.6g}",
                     t.stages.levelize_ms, t.stages.sigprob_ms, t.stages.moment_ms,
                     t.stages.mc_shards_ms, t.stages.mc_merge_ms);
      }
      std::fputc('}', f);
    }
    std::fprintf(f,
                 "],\"service\":{\"circuit\":\"%s\",\"warm_rps\":%.6g,"
                 "\"cold_rps\":%.6g}",
                 svc.circuit.c_str(), svc.warm_rps, svc.cold_rps);
    if (!sweep.empty()) {
      std::fprintf(f, ",\"grid_sweep\":{\"circuit\":\"%s\",\"points\":[",
                   circuits.back().c_str());
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        std::fprintf(f, "%s{\"n\":%zu,\"seconds\":%.6g,\"scalar_seconds\":%.6g}",
                     i ? "," : "", sweep[i].n, sweep[i].seconds,
                     sweep[i].scalar_seconds);
      }
      std::fprintf(f, "]}");
    }
    if (!size_points.empty()) {
      std::fprintf(f, ",\"size_sweep\":{\"engine\":\"spsta_moment\",\"points\":[");
      for (std::size_t i = 0; i < size_points.size(); ++i) {
        const SizeSweepPoint& p = size_points[i];
        std::fprintf(
            f,
            "%s{\"gates\":%zu,\"instances\":%zu,\"blocks\":%zu,"
            "\"gen_s\":%.6g,\"hier_compile_s\":%.6g,\"hier_cold_s\":%.6g,"
            "\"hier_warm_s\":%.6g,\"flatten_s\":%.6g,\"flat_compile_s\":%.6g,"
            "\"flat_warm_s\":%.6g,\"warm_speedup\":%.6g,"
            "\"models_extracted\":%llu,\"model_cache_hits\":%llu,"
            "\"max_prob_delta\":%.6g,\"max_rel_mean_delta\":%.6g,"
            "\"max_rel_std_delta\":%.6g}",
            i ? "," : "", p.gates, p.instances, p.blocks, p.gen_s, p.hier_compile_s,
            p.hier_cold_s, p.hier_warm_s, p.flatten_s, p.flat_compile_s, p.flat_warm_s,
            p.flat_warm_s / std::max(p.hier_warm_s, 1e-9),
            static_cast<unsigned long long>(p.models_extracted),
            static_cast<unsigned long long>(p.model_cache_hits), p.max_prob_delta,
            p.max_rel_mean_delta, p.max_rel_std_delta);
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("Appended timing trajectory to %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}

// signoff: the paper's evaluation as an in-process sign-off suite on 2
// threads. Each op signs off one of the 9 paper circuits: a fresh Analyzer
// per input scenario runs report::run_paper_experiment (moment SPSTA,
// SSTA and 10K-run Monte Carlo), then spsta_numeric runs with Gaussian
// sigma = 0.1 delays. Monte Carlo dominates; numeric is the only path
// through the FFT/SIMD kernel layer; the paper's accuracy claim (SPSTA
// within 6.2% / 18.6% of MC) is checked on every pass.

#include <algorithm>
#include <cstring>

#include "bench.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/iscas89.hpp"
#include "report/experiment.hpp"

namespace spsta_bench {

namespace {

using spsta::report::DirectionRow;

constexpr unsigned kThreads = 2;
constexpr std::uint64_t kMcRuns = 10000;
constexpr double kPaperMuErrPct = 6.2;
constexpr double kPaperSigmaErrPct = 18.6;

/// What signing off one circuit produced, and where its time went.
struct Signoff {
  std::vector<DirectionRow> rows;     ///< scenario I rise, fall; II rise, fall
  std::vector<double> numeric;        ///< rise/fall mean and mass per endpoint
  double compile_ms = 0, moment_ms = 0, ssta_ms = 0, mc_ms = 0, numeric_ms = 0;
  std::vector<std::pair<const char*, Clock::time_point>> marks;  ///< step ends
  Clock::time_point start;
};

Signoff sign_off(const spsta::netlist::Netlist& design, std::uint64_t mc_seed) {
  Signoff out;
  out.start = Clock::now();
  spsta::AnalyzerOptions options;
  options.threads = kThreads;
  for (const bool second : {false, true}) {
    const spsta::netlist::SourceStats scenario =
        second ? spsta::netlist::scenario_II() : spsta::netlist::scenario_I();
    Clock::time_point t0 = Clock::now();
    spsta::Analyzer analyzer(design, spsta::netlist::DelayModel::unit(design), {scenario},
                             options);
    (void)analyzer.plan();
    out.compile_ms += ms_between(t0, Clock::now());
    out.marks.emplace_back(second ? "compile.II" : "compile.I", Clock::now());

    spsta::report::ExperimentConfig config;
    config.scenario = scenario;
    config.mc_runs = kMcRuns;
    config.mc_seed = mc_seed;
    const spsta::report::CircuitExperiment e =
        spsta::report::run_paper_experiment(analyzer, config);
    out.moment_ms += e.runtime.spsta_seconds * 1e3;
    out.ssta_ms += e.runtime.ssta_seconds * 1e3;
    out.mc_ms += e.runtime.mc_seconds * 1e3;
    out.rows.push_back(e.rise);
    out.rows.push_back(e.fall);
    out.marks.emplace_back(second ? "experiment.II" : "experiment.I", Clock::now());
  }

  Clock::time_point t0 = Clock::now();
  spsta::Analyzer numeric(design, spsta::netlist::DelayModel::gaussian(design, 1.0, 0.1),
                          {spsta::netlist::scenario_I()}, options);
  (void)numeric.plan();
  out.compile_ms += ms_between(t0, Clock::now());
  spsta::AnalysisRequest request;
  request.engine = spsta::Engine::SpstaNumeric;
  const spsta::AnalysisReport report = numeric.run(request);
  out.numeric_ms = report.elapsed_seconds * 1e3;
  for (const auto ep : design.timing_endpoints()) {
    const auto& top = report.numeric().node.at(ep);
    out.numeric.insert(out.numeric.end(),
                       {top.rise.mean(), top.rise.mass(), top.fall.mean(), top.fall.mass()});
  }
  out.marks.emplace_back("numeric", Clock::now());
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_result(const Signoff& a, const Signoff& b) {
  if (a.rows.size() != b.rows.size() || a.numeric.size() != b.numeric.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const DirectionRow& x = a.rows[i];
    const DirectionRow& y = b.rows[i];
    for (const auto field : {&DirectionRow::spsta_mu, &DirectionRow::spsta_sigma,
                             &DirectionRow::spsta_p, &DirectionRow::ssta_mu,
                             &DirectionRow::ssta_sigma, &DirectionRow::mc_mu,
                             &DirectionRow::mc_sigma, &DirectionRow::mc_p}) {
      if (!same_bits(x.*field, y.*field)) return false;
    }
  }
  for (std::size_t i = 0; i < a.numeric.size(); ++i) {
    if (!same_bits(a.numeric[i], b.numeric[i])) return false;
  }
  return true;
}

}  // namespace

RunResult run_signoff(const Options& options, Tracer* tracer) {
  RunResult result;
  const auto names = spsta::netlist::paper_circuit_names();

  // Set-up: build the suite and sign off its smallest circuit once, which
  // pays every engine's and kernel's first-use cost.
  std::vector<spsta::netlist::Netlist> suite;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    suite.clear();
    for (const std::string_view name : names) {
      suite.push_back(spsta::netlist::make_paper_circuit(name));
    }
    (void)sign_off(suite.front(), options.seed);
    setups.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  result.setup_s = median(setups);

  const Counters before = tracer ? registry_stats() : Counters{};
  std::vector<Signoff> first_pass;
  std::vector<double> pass_s;
  spsta::report::ErrorSummary errors;  ///< of the first pass; later passes are bitwise equal
  double compile = 0, moment = 0, ssta = 0, mc = 0, numeric = 0;
  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options.seconds));
  // Whole passes only, so every pass weighs the circuits alike.
  while (pass_s.empty() || Clock::now() < end) {
    const Clock::time_point pass_start = Clock::now();
    std::vector<Signoff> pass;
    std::vector<DirectionRow> rows;
    for (std::size_t c = 0; c < suite.size(); ++c) {
      Signoff s = sign_off(suite[c], options.seed);
      ++result.attempted;
      result.op_ms.push_back(ms_between(s.start, s.marks.back().second));
      compile += s.compile_ms;
      moment += s.moment_ms;
      ssta += s.ssta_ms;
      mc += s.mc_ms;
      numeric += s.numeric_ms;
      rows.insert(rows.end(), s.rows.begin(), s.rows.end());
      pass.push_back(std::move(s));
    }
    const Clock::time_point pass_end = Clock::now();
    pass_s.push_back(ms_between(pass_start, pass_end) * 1e-3);
    if (tracer != nullptr) {
      const std::uint64_t pass_span = tracer->add("signoff.pass", pass_start, pass_end);
      const std::uint64_t first_op = result.op_ms.size() - pass.size() + 1;
      for (std::size_t c = 0; c < pass.size(); ++c) {
        const Signoff& s = pass[c];
        const std::uint64_t span = tracer->add("signoff." + std::string(names[c]), s.start,
                                               s.marks.back().second, pass_span, first_op + c);
        Clock::time_point from = s.start;
        for (const auto& [step, at] : s.marks) {
          tracer->add(step, from, at, span, first_op + c);
          from = at;
        }
      }
    }

    if (first_pass.empty()) {
      errors = spsta::report::summarize_errors(rows);
      first_pass = std::move(pass);
    } else {
      for (std::size_t c = 0; c < pass.size(); ++c) {
        if (!same_result(pass[c], first_pass[c])) {
          result.fail("signoff: " + std::string(names[c]) +
                      " differs between passes of one seed");
        }
      }
    }
  }
  const double mu_err = 100.0 * errors.spsta_mu;
  const double sigma_err = 100.0 * errors.spsta_sigma;
  if (!(mu_err <= kPaperMuErrPct && sigma_err <= kPaperSigmaErrPct)) {
    result.fail("signoff: SPSTA error vs MC is mu " + std::to_string(mu_err) + "%, sigma " +
                std::to_string(sigma_err) + "%, beyond the paper's 6.2% / 18.6%");
  }

  // Quiet passes: each circuit's time is the median of its passes within
  // kQuietSlack of its fastest one.
  std::vector<double> circuit_ms;
  std::size_t kept = 0;
  for (std::size_t c = 0; c < suite.size(); ++c) {
    std::vector<double> times;
    for (std::size_t i = c; i < result.op_ms.size(); i += suite.size()) {
      times.push_back(result.op_ms[i]);
    }
    const double fastest = *std::min_element(times.begin(), times.end());
    std::erase_if(times, [&](double ms) { return ms > kQuietSlack * fastest; });
    kept += times.size();
    circuit_ms.push_back(median(times));
  }
  double suite_ms = 0.0;
  for (const double ms : circuit_ms) suite_ms += ms;
  result.e2e.p50_ms = percentile(circuit_ms, 0.50);
  result.e2e.p95_ms = percentile(circuit_ms, 0.95);
  result.e2e.ops_per_s = 1e3 * static_cast<double>(suite.size()) / suite_ms;
  result.e2e.kept_share = static_cast<double>(kept) / static_cast<double>(result.op_ms.size());

  result.detail.set("signoff_suite_s", median(pass_s), "s");
  result.detail.set("signoff_mu_err_pct", mu_err, "%");
  result.detail.set("signoff_sigma_err_pct", sigma_err, "%");
  result.diag.set("diag.signoff_passes", static_cast<double>(pass_s.size()), "count");
  result.diag.set("diag.ssta_mu_err_pct", 100.0 * errors.ssta_mu, "%");
  result.diag.set("diag.ssta_sigma_err_pct", 100.0 * errors.ssta_sigma, "%");

  if (tracer != nullptr) {
    const Counters d = diff(before, registry_stats());
    double op_total = 0.0;
    for (const double ms : result.op_ms) op_total += ms;
    const auto pct = [&](double ms) { return 100.0 * ms / op_total; };
    MetricList& layers = result.layers;
    layers.set("compiled_design.compile_pct", pct(compile), "%");
    layers.set("moment.run_pct", pct(moment), "%");
    layers.set("ssta.run_pct", pct(ssta), "%");
    layers.set("mc.run_pct", pct(mc), "%");
    layers.set("numeric.run_pct", pct(numeric), "%");
    layers.set("residual_pct", pct(op_total - compile - moment - ssta - mc - numeric), "%");
    layers.set("numeric.propagate_pct", pct(stage_total_ms(d, "stage.numeric.propagate")), "%");
    layers.set("numeric.grid_pct", pct(stage_total_ms(d, "stage.numeric.grid")), "%");
    layers.set("mc.shards_pct", pct(stage_total_ms(d, "stage.mc.shards")), "%");
    layers.set("mc.merge_pct", pct(stage_total_ms(d, "stage.mc.merge")), "%");
    const double numeric_runs = static_cast<double>(result.attempted);
    for (const char* kind : {"fft", "direct", "shift"}) {
      layers.set("conv." + std::string(kind) + "_per_run",
                 get(d, "metrics/counters/stats.conv." + std::string(kind)) / numeric_runs,
                 "count");
    }
    layers.set("workspace.grow_per_run",
               get(d, "metrics/counters/stats.workspace.grow") / numeric_runs, "count");
    // Two Monte Carlo runs (one per scenario) per circuit.
    layers.set("mc.runs_per_s", 2.0 * numeric_runs * kMcRuns / (mc * 1e-3), "1/s");
    layers.set("pattern_cache.hit_pct",
               hit_pct(get(d, "metrics/counters/pattern_cache.hits"),
                       get(d, "metrics/counters/pattern_cache.misses")),
               "%");
    std::vector<std::string> texts;
    for (const auto& design : suite) texts.push_back(spsta::netlist::write_bench(design));
    replay_design_layers(texts, options.seed, layers);
  }
  return result;
}

}  // namespace spsta_bench

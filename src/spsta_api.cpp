#include "spsta_api.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

namespace spsta {

std::string_view to_string(Engine engine) noexcept {
  switch (engine) {
    case Engine::SpstaMoment:
      return "spsta_moment";
    case Engine::SpstaNumeric:
      return "spsta_numeric";
    case Engine::Canonical:
      return "canonical";
    case Engine::Ssta:
      return "ssta";
    case Engine::Mc:
      return "mc";
  }
  return "unknown";
}

std::optional<Engine> parse_engine(std::string_view name) noexcept {
  if (name == "spsta_moment") return Engine::SpstaMoment;
  if (name == "spsta_numeric") return Engine::SpstaNumeric;
  if (name == "canonical") return Engine::Canonical;
  if (name == "ssta") return Engine::Ssta;
  if (name == "mc") return Engine::Mc;
  return std::nullopt;
}

namespace {

[[noreturn]] void wrong_engine(Engine held, const char* wanted) {
  throw std::logic_error("AnalysisReport holds a " + std::string(to_string(held)) +
                         " result, not " + wanted);
}

}  // namespace

const core::SpstaResult& AnalysisReport::moment() const {
  const auto* r = std::get_if<core::SpstaResult>(&result);
  if (r == nullptr) wrong_engine(engine, "spsta_moment");
  return *r;
}

const core::SpstaNumericResult& AnalysisReport::numeric() const {
  const auto* r = std::get_if<core::SpstaNumericResult>(&result);
  if (r == nullptr) wrong_engine(engine, "spsta_numeric");
  return *r;
}

const core::SpstaCanonicalResult& AnalysisReport::canonical() const {
  const auto* r = std::get_if<core::SpstaCanonicalResult>(&result);
  if (r == nullptr) wrong_engine(engine, "canonical");
  return *r;
}

const ssta::SstaResult& AnalysisReport::ssta() const {
  const auto* r = std::get_if<ssta::SstaResult>(&result);
  if (r == nullptr) wrong_engine(engine, "ssta");
  return *r;
}

const mc::MonteCarloResult& AnalysisReport::monte_carlo() const {
  const auto* r = std::get_if<mc::MonteCarloResult>(&result);
  if (r == nullptr) wrong_engine(engine, "mc");
  return *r;
}

Analyzer::Analyzer(netlist::Netlist design, netlist::DelayModel delays,
                   std::vector<netlist::SourceStats> sources, Options options)
    : design_(std::move(design)), plan_(design_, std::move(delays)),
      sources_(std::move(sources)), options_(options) {
  const std::size_t num_sources = design_.timing_sources().size();
  if (sources_.size() != num_sources && sources_.size() != 1) {
    throw std::invalid_argument("Analyzer: source stats count mismatch (" +
                                std::to_string(sources_.size()) + " entries for " +
                                std::to_string(num_sources) + " timing sources)");
  }
}

Analyzer::Analyzer(netlist::Netlist design, Options options)
    : design_(std::move(design)), plan_(design_, netlist::DelayModel::unit(design_)),
      sources_{netlist::scenario_I()}, options_(options) {}

void Analyzer::validate(const AnalysisRequest& request) {
  const auto reject = [&](const char* field, const char* allowed) {
    throw std::invalid_argument(std::string("AnalysisRequest: ") + field +
                                " is not honored by engine '" +
                                std::string(to_string(request.engine)) +
                                "' (valid for " + allowed + " only)");
  };
  if (request.engine != Engine::SpstaNumeric) {
    if (request.grid_dt) reject("grid_dt", "spsta_numeric");
    if (request.grid_pad_sigma) reject("grid_pad_sigma", "spsta_numeric");
    if (request.max_grid_points) reject("max_grid_points", "spsta_numeric");
  }
  if (request.engine != Engine::Mc) {
    if (request.runs) reject("runs", "mc");
    if (request.seed) reject("seed", "mc");
    if (request.track_circuit_max) reject("track_circuit_max", "mc");
  }
  if (request.grid_dt && !(*request.grid_dt > 0.0)) {
    throw std::invalid_argument("AnalysisRequest: grid_dt must be > 0");
  }
  if (request.grid_pad_sigma && !(*request.grid_pad_sigma >= 0.0)) {
    throw std::invalid_argument("AnalysisRequest: grid_pad_sigma must be >= 0");
  }
  if (request.max_grid_points && *request.max_grid_points < 2) {
    throw std::invalid_argument("AnalysisRequest: max_grid_points must be >= 2");
  }
}

AnalysisReport Analyzer::run(const AnalysisRequest& request) {
  validate(request);
  const unsigned threads = request.threads.value_or(options_.threads);

  AnalysisReport report;
  report.engine = request.engine;
  const auto start = std::chrono::steady_clock::now();
  switch (request.engine) {
    case Engine::SpstaMoment:
    case Engine::SpstaNumeric: {
      core::SpstaOptions opts;
      opts.threads = threads;
      if (request.engine == Engine::SpstaNumeric) {
        const core::SpstaOptions defaults;
        opts.grid_dt = request.grid_dt.value_or(defaults.grid_dt);
        opts.grid_pad_sigma = request.grid_pad_sigma.value_or(defaults.grid_pad_sigma);
        opts.max_grid_points =
            request.max_grid_points.value_or(defaults.max_grid_points);
        report.result = core::run_spsta_numeric(plan_, sources_, opts);
      } else {
        report.result = core::run_spsta_moment(plan_, sources_, opts);
      }
      break;
    }
    case Engine::Canonical:
      report.result = core::run_spsta_canonical(plan_, sources_);
      break;
    case Engine::Ssta:
      report.result = ssta::run_ssta(plan_, sources_);
      break;
    case Engine::Mc: {
      mc::MonteCarloConfig cfg;
      cfg.threads = threads;
      cfg.runs = request.runs.value_or(cfg.runs);
      cfg.seed = request.seed.value_or(cfg.seed);
      cfg.track_circuit_max = request.track_circuit_max.value_or(false);
      report.result = mc::run_monte_carlo(plan_, sources_, cfg);
      break;
    }
  }
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return report;
}

void Analyzer::set_delay(netlist::NodeId id, const stats::Gaussian& delay) {
  plan_.set_delay(id, delay);
}

void Analyzer::set_source(std::size_t source_index, const netlist::SourceStats& stats) {
  // Source statistics are run inputs, not plan inputs.
  if (sources_.size() == 1 && source_index < design_.timing_sources().size()) {
    // A broadcast entry must be expanded before a single source can move.
    sources_.assign(design_.timing_sources().size(), sources_[0]);
  }
  if (source_index >= sources_.size()) {
    throw std::invalid_argument("Analyzer::set_source: bad source index");
  }
  sources_[source_index] = stats;
}

}  // namespace spsta

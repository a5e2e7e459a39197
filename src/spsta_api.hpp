/// \file spsta_api.hpp
/// The public face of the toolkit: one umbrella header, one `Analyzer`.
///
/// An `Analyzer` owns a design (netlist + source statistics) and the
/// `CompiledDesign` analysis plan derived from it — levelization, arena
/// adjacency and the delay model — compiled once at construction and
/// reused by every subsequent run, so repeated analyses touch zero
/// structural code. Delay edits patch the plan in place. A
/// single `AnalysisRequest` selects any engine (moment / numeric /
/// canonical SPSTA, block-based SSTA, the Monte Carlo ground truth) and
/// `run()` returns a unified `AnalysisReport`. Requests are validated
/// against the selected engine: options the engine cannot honor (e.g.
/// grid settings for the moment engine, run counts for anything but Monte
/// Carlo) are rejected with `std::invalid_argument` instead of being
/// silently ignored.
///
/// The per-engine `run_*` functions under src/core, src/ssta and src/mc
/// remain available as implementation-level entry points; results through
/// either path are bit-identical at any thread count (the repo's
/// determinism contract, tests/determinism_test.cpp).
///
/// Quick start:
///
///     spsta::Analyzer analyzer(std::move(netlist));   // unit delays,
///                                                     // scenario I inputs
///     spsta::AnalysisRequest request;
///     request.engine = spsta::Engine::SpstaMoment;
///     const spsta::AnalysisReport report = analyzer.run(request);
///     const auto& top = report.moment().node[some_id];

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "core/compiled_design.hpp"
#include "core/spsta.hpp"
#include "core/spsta_canonical.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/four_value.hpp"
#include "netlist/netlist.hpp"
#include "ssta/ssta.hpp"

namespace spsta {

/// The analysis engines one `Analyzer` dispatches to. Wire names (used by
/// the service protocol and the CLI) are "spsta_moment", "spsta_numeric",
/// "canonical", "ssta", "mc".
enum class Engine { SpstaMoment, SpstaNumeric, Canonical, Ssta, Mc };

/// Wire name of an engine.
[[nodiscard]] std::string_view to_string(Engine engine) noexcept;

/// Parses a wire name; nullopt for unknown names.
[[nodiscard]] std::optional<Engine> parse_engine(std::string_view name) noexcept;

/// One analysis request. Every field except `engine` is optional: unset
/// fields take the engine's defaults (and the Analyzer's default thread
/// count). A field set for an engine that cannot honor it is an error —
/// `Analyzer::validate` throws std::invalid_argument — so a request never
/// silently means less than it says:
///   * grid_dt / grid_pad_sigma / max_grid_points — numeric engine only
///   * runs / seed / track_circuit_max            — Monte Carlo only
///   * threads — accepted by every engine (an execution hint; results are
///     thread-count-invariant, and serial engines run on one thread).
///
/// Numeric runs execute on the fast kernel layer (DESIGN.md §12, §16):
/// each run builds its delay kernels and their FFT spectra once up front,
/// each node issues one batched convolution over both transition
/// columns, and the inner loops dispatch to a runtime-selected SIMD
/// tier that is bit-identical to the scalar reference. Two process-wide
/// knobs (not per-request fields) tune the layer:
///   * direct->FFT crossover — `stats::set_conv_crossover()`.
///     Process-wide because it must stay constant while runs are in
///     flight to keep the kernel choice a pure function of sizes;
///     changing it between runs changes rounding (not accuracy) of
///     subsequent results.
///   * SIMD tier — `SPSTA_FORCE_SCALAR=1` or
///     `stats::simd::set_force_scalar()` pins the scalar reference.
///     Tier choice never changes a result bit (the contract in
///     stats/simd.hpp), so this knob trades only speed.
/// Any fixed setting of either knob preserves thread-count bit-identity.
struct AnalysisRequest {
  Engine engine = Engine::SpstaMoment;
  std::optional<unsigned> threads;

  std::optional<double> grid_dt;
  std::optional<double> grid_pad_sigma;
  std::optional<std::size_t> max_grid_points;

  std::optional<std::uint64_t> runs;
  std::optional<std::uint64_t> seed;
  std::optional<bool> track_circuit_max;
};

/// Any engine's result.
using AnalysisResult =
    std::variant<core::SpstaResult, core::SpstaNumericResult,
                 core::SpstaCanonicalResult, ssta::SstaResult, mc::MonteCarloResult>;

/// The unified result of one `Analyzer::run`.
struct AnalysisReport {
  Engine engine = Engine::SpstaMoment;
  AnalysisResult result;
  double elapsed_seconds = 0.0;

  /// Typed accessors; each throws std::logic_error when the report holds a
  /// different engine's result.
  [[nodiscard]] const core::SpstaResult& moment() const;
  [[nodiscard]] const core::SpstaNumericResult& numeric() const;
  [[nodiscard]] const core::SpstaCanonicalResult& canonical() const;
  [[nodiscard]] const ssta::SstaResult& ssta() const;
  [[nodiscard]] const mc::MonteCarloResult& monte_carlo() const;
};

/// Analyzer construction options. (Namespace-scope rather than nested so
/// `= {}` default arguments can use its member initializers inside the
/// Analyzer class body.)
struct AnalyzerOptions {
  /// Default worker threads for requests that leave `threads` unset
  /// (0 = all hardware threads).
  unsigned threads = 1;
};

/// The unified analysis entry point: owns the design and its compiled
/// plan. It holds no cache, pool or lock: each run owns its thread pool
/// (none at `threads` = 1) and, for the numeric engine, its delay kernels.
///
/// Thread model: `run()` is safe to call concurrently — runs only read
/// the plan and the sources. ECO edits (`set_delay`, `set_source`) must
/// not race running analyses.
class Analyzer {
 public:
  using Options = AnalyzerOptions;

  /// Full construction: the Analyzer takes ownership of the netlist, delay
  /// model and per-source statistics (one entry broadcasts to all sources,
  /// as everywhere else).
  Analyzer(netlist::Netlist design, netlist::DelayModel delays,
           std::vector<netlist::SourceStats> sources, Options options = {});

  /// Paper defaults: unit gate delays, scenario-I statistics on every
  /// timing source.
  explicit Analyzer(netlist::Netlist design, Options options = {});

  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  [[nodiscard]] const netlist::Netlist& design() const noexcept { return design_; }
  [[nodiscard]] const netlist::DelayModel& delays() const noexcept {
    return plan_.delays();
  }
  [[nodiscard]] std::span<const netlist::SourceStats> sources() const noexcept {
    return sources_;
  }

  /// The compiled analysis plan, built by the constructor. The same object
  /// for the Analyzer's lifetime: `set_delay` patches it in place. It is
  /// also the owner of the delays, so an `IncrementalSpsta` built over it
  /// shares them (its delay edits are the Analyzer's).
  [[nodiscard]] core::CompiledDesign& plan() noexcept { return plan_; }

  /// Content hash of (netlist, delay model) — see
  /// CompiledDesign::content_hash.
  [[nodiscard]] std::uint64_t content_hash() const { return plan_.content_hash(); }

  /// Throws std::invalid_argument when the request sets an option its
  /// engine cannot honor, or sets a value out of range.
  static void validate(const AnalysisRequest& request);

  /// Validates and dispatches the request.
  [[nodiscard]] AnalysisReport run(const AnalysisRequest& request);

  /// ECO edits. `set_delay` forwards to CompiledDesign::set_delay: the
  /// plan's delay model is patched in place (topology is never rebuilt)
  /// and the content hash moves. `set_source` leaves the plan alone —
  /// source statistics are run inputs, not part of the plan.
  void set_delay(netlist::NodeId id, const stats::Gaussian& delay);
  void set_source(std::size_t source_index, const netlist::SourceStats& stats);

 private:
  netlist::Netlist design_;
  core::CompiledDesign plan_;  ///< points into design_: declared after it
  std::vector<netlist::SourceStats> sources_;
  Options options_;
};

}  // namespace spsta

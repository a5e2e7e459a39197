// Layer replays: the traced run's inputs fed again through the public
// layer functions in-process, so module costs are measured from outside
// the program without instrumenting src/.

#include <algorithm>

#include "bench.hpp"
#include "core/incremental_spsta.hpp"
#include "netlist/bench_io.hpp"
#include "service/protocol.hpp"
#include "stats/rng.hpp"

namespace spsta_bench {

namespace {

using spsta::core::IncrementalSpsta;
using spsta::netlist::NodeId;

double elapsed_ms(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

IncrementalSpsta::EcoEdit random_edit(spsta::stats::Xoshiro256& rng,
                                      const std::vector<NodeId>& gates) {
  return IncrementalSpsta::EcoEdit::delay_edit(
      gates[rng.uniform_index(gates.size())],
      spsta::stats::Gaussian{rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.01)});
}

}  // namespace

void replay_design_layers(std::span<const std::string> bench_texts, std::uint64_t seed,
                          MetricList& layers) {
  if (bench_texts.empty()) return;
  // At least two passes per design and eight replays in all, so one cold
  // first pass does not dominate a small design set.
  const std::size_t reps = std::max<std::size_t>(2, (8 + bench_texts.size() - 1) /
                                                        bench_texts.size());
  spsta::stats::Xoshiro256 rng(seed ^ 0x7265706c6179ull);
  double parse = 0, levelize = 0, compile = 0, recompile = 0, moment = 0, ssta = 0,
         commit = 0, probe = 0;
  std::size_t designs = 0;
  for (const std::string& text : bench_texts) {
    for (std::size_t rep = 0; rep < reps; ++rep, ++designs) {
      Clock::time_point t0 = Clock::now();
      spsta::netlist::Netlist design = spsta::netlist::parse_bench(text);
      parse += elapsed_ms(t0);

      std::vector<NodeId> gates;
      for (NodeId id = 0; id < design.node_count(); ++id) {
        if (spsta::netlist::is_combinational(design.node(id).type)) gates.push_back(id);
      }
      std::vector<NodeId> targets = design.timing_endpoints();
      targets.resize(std::min<std::size_t>(targets.size(), 8));

      Counters before = registry_stats();
      t0 = Clock::now();
      spsta::Analyzer analyzer = session_analyzer(std::move(design));
      (void)analyzer.plan();
      compile += elapsed_ms(t0);
      Counters delta = diff(before, registry_stats());
      levelize += stage_total_ms(delta, "stage.levelize");

      before = registry_stats();
      spsta::AnalysisRequest request;
      request.engine = spsta::Engine::SpstaMoment;
      (void)analyzer.run(request);
      delta = diff(before, registry_stats());
      moment += stage_total_ms(delta, "stage.moment.propagate");

      request.engine = spsta::Engine::Ssta;
      t0 = Clock::now();
      (void)analyzer.run(request);
      ssta += elapsed_ms(t0);

      {
        // The engine reads the plan's netlist, so it must go before the
        // delay edits below drop the plan.
        IncrementalSpsta engine(analyzer.plan(), analyzer.sources(), /*settle_eps=*/0.0);
        std::vector<IncrementalSpsta::EcoEdit> edits;
        for (int i = 0; i < 8; ++i) edits.push_back(random_edit(rng, gates));
        t0 = Clock::now();
        engine.begin_eco();
        for (const auto& e : edits) engine.set_delay(e.node, e.delay);
        (void)engine.commit();
        commit += elapsed_ms(t0);

        const IncrementalSpsta::EcoEdit what_if = random_edit(rng, gates);
        t0 = Clock::now();
        (void)engine.probe({&what_if, 1}, targets);
        probe += elapsed_ms(t0);
      }

      std::vector<IncrementalSpsta::EcoEdit> edits;
      for (int i = 0; i < 8; ++i) edits.push_back(random_edit(rng, gates));
      t0 = Clock::now();
      for (const auto& e : edits) analyzer.set_delay(e.node, e.delay);
      (void)analyzer.plan();
      recompile += elapsed_ms(t0);
    }
  }
  const double n = static_cast<double>(designs);
  layers.set("netlist.parse_ms", parse / n, "ms");
  layers.set("netlist.levelize_ms", levelize / n, "ms");
  layers.set("compiled_design.compile_ms", compile / n, "ms");
  layers.set("compiled_design.recompile_ms", recompile / n, "ms");
  layers.set("moment.propagate_ms", moment / n, "ms");
  layers.set("ssta.run_ms", ssta / n, "ms");
  layers.set("incremental.commit_ms", commit / n, "ms");
  layers.set("incremental.probe_ms", probe / n, "ms");
}

double replay_decode_us(std::span<const std::string> lines) {
  if (lines.empty()) return 0.0;
  std::size_t parsed = 0;
  const Clock::time_point t0 = Clock::now();
  // Repeat short line sets so the mean rests on enough samples.
  while (parsed < 2000 && ms_between(t0, Clock::now()) < 50.0) {
    for (const std::string& line : lines) {
      (void)spsta::service::parse_request(line);
      ++parsed;
    }
  }
  return 1e3 * ms_between(t0, Clock::now()) / static_cast<double>(parsed);
}

}  // namespace spsta_bench

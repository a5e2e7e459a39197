// Table 2: means, standard deviations and occurrence probabilities of the
// rising and falling arrivals on the most critical path, for (1) 4-value
// SPSTA, (2) min/max-separated SSTA and (3) 10K-run Monte Carlo, under
// the paper's two input scenarios. Ends with the aggregate error metrics
// behind the paper's headline claim (SPSTA mu/sigma within 6.2%/18.6% of
// MC versus SSTA's 13.4%/64.3%; signal probabilities within 14.28%).
//
// Circuits are the generated ISCAS'89-class suite (DESIGN.md §5): compare
// *shape* (who tracks MC, by how much) rather than absolute numbers.
//
// --json=PATH also writes every row and the error summaries, each double
// printed with %.17g, so a committed snapshot (BENCH_accuracy.json) can be
// compared value by value: accuracy against Monte Carlo is guarded like
// runtime is.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/iscas89.hpp"
#include "report/experiment.hpp"
#include "report/table.hpp"

namespace {

void write_json_row(std::FILE* f, const spsta::report::DirectionRow& row, bool last) {
  std::fprintf(f,
               "      {\"circuit\": \"%s\", \"direction\": \"%s\", "
               "\"spsta\": {\"mu\": %.17g, \"sigma\": %.17g, \"p\": %.17g}, "
               "\"ssta\": {\"mu\": %.17g, \"sigma\": %.17g}, "
               "\"mc\": {\"mu\": %.17g, \"sigma\": %.17g, \"p\": %.17g}}%s\n",
               row.circuit.c_str(), row.rising ? "r" : "f", row.spsta_mu, row.spsta_sigma,
               row.spsta_p, row.ssta_mu, row.ssta_sigma, row.mc_mu, row.mc_sigma, row.mc_p,
               last ? "" : ",");
}

void write_json_summary(std::FILE* f, const spsta::report::ErrorSummary& s) {
  std::fprintf(f,
               "    \"summary\": {\"spsta_mu\": %.17g, \"spsta_sigma\": %.17g, "
               "\"spsta_p\": %.17g, \"ssta_mu\": %.17g, \"ssta_sigma\": %.17g, "
               "\"rows_mu\": %zu, \"rows_sigma\": %zu, \"rows_p\": %zu}\n",
               s.spsta_mu, s.spsta_sigma, s.spsta_p, s.ssta_mu, s.ssta_sigma, s.rows_mu,
               s.rows_sigma, s.rows_p);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spsta;

  constexpr std::uint64_t kMcRuns = 10000;
  std::FILE* json = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      const std::string path(arg.substr(7));
      json = std::fopen(path.c_str(), "w");
      if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return 1;
      }
    }
  }
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"table2_accuracy\",\n  \"mc_runs\": %llu,\n"
                 "  \"mc_seed\": %llu,\n  \"scenarios\": [\n",
                 static_cast<unsigned long long>(kMcRuns),
                 static_cast<unsigned long long>(report::ExperimentConfig{}.mc_seed));
  }

  double sigprob_err_total = 0.0;
  std::size_t sigprob_circuits = 0;

  for (const bool second : {false, true}) {
    std::printf("=== Table 2 (%s): inputs %s ===\n", second ? "II" : "I",
                second ? "p0=0.75 p1=0.15 pr=0.02 pf=0.08 (0.1 toggle rate)"
                       : "p0=p1=pr=pf=0.25 (0.5 toggle rate)");

    report::ExperimentConfig cfg;
    cfg.scenario = second ? netlist::scenario_II() : netlist::scenario_I();
    cfg.mc_runs = kMcRuns;

    std::vector<report::DirectionRow> rows;
    report::Table table({"test", "", "SPSTA mu", "SPSTA sig", "SPSTA P", "SSTA mu",
                         "SSTA sig", "MC mu", "MC sig", "MC P"});
    for (std::string_view name : netlist::paper_circuit_names()) {
      const report::CircuitExperiment e =
          report::run_paper_experiment(netlist::make_paper_circuit(name), cfg);
      for (const report::DirectionRow* row : {&e.rise, &e.fall}) {
        table.add_row({std::string(name), row->rising ? "r" : "f",
                       report::Table::num(row->spsta_mu),
                       report::Table::num(row->spsta_sigma),
                       report::Table::num(row->spsta_p),
                       report::Table::num(row->ssta_mu),
                       report::Table::num(row->ssta_sigma),
                       report::Table::num(row->mc_mu), report::Table::num(row->mc_sigma),
                       report::Table::num(row->mc_p)});
        rows.push_back(*row);
      }
      sigprob_err_total += e.signal_prob_error;
      ++sigprob_circuits;
    }
    std::printf("%s\n", table.to_string().c_str());

    const report::ErrorSummary s = summarize_errors(rows);
    std::printf("aggregate vs MC (mean absolute relative error over %zu mu rows, "
                "%zu sigma rows):\n",
                s.rows_mu, s.rows_sigma);
    std::printf("  SPSTA: mu %.1f%%, sigma %.1f%%   (paper: 6.2%% / 18.6%%)\n",
                100.0 * s.spsta_mu, 100.0 * s.spsta_sigma);
    std::printf("  SSTA : mu %.1f%%, sigma %.1f%%   (paper: 13.4%% / 64.3%%)\n",
                100.0 * s.ssta_mu, 100.0 * s.ssta_sigma);
    std::printf("  SPSTA transition probability: %.1f%% of MC (over %zu rows)\n\n",
                100.0 * s.spsta_p, s.rows_p);
    if (json != nullptr) {
      std::fprintf(json, "  {\n    \"scenario\": \"%s\",\n    \"rows\": [\n",
                   second ? "II" : "I");
      for (std::size_t r = 0; r < rows.size(); ++r) {
        write_json_row(json, rows[r], r + 1 == rows.size());
      }
      std::fprintf(json, "    ],\n");
      write_json_summary(json, s);
      std::fprintf(json, "  }%s\n", second ? "" : ",");
    }
  }

  std::printf("mean |signal probability error| over all nets and circuits: %.2f%%"
              "   (paper: within 14.28%%)\n",
              100.0 * sigprob_err_total / static_cast<double>(sigprob_circuits));
  if (json != nullptr) {
    std::fprintf(json, "  ],\n  \"signal_prob_error\": %.17g\n}\n",
                 sigprob_err_total / static_cast<double>(sigprob_circuits));
    std::fclose(json);
  }
  return 0;
}

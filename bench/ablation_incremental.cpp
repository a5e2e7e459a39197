// Ablation bench: incremental vs from-scratch SSTA under an optimization-
// style update workload — the "efficient, incremental, suitable for
// optimization" property the paper's background claims for block-based
// engines, quantified. `--json=FILE` appends a one-line trajectory record
// (table3_runtime style) so CI can track the speedups over time.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/compiled_design.hpp"
#include "core/incremental_spsta.hpp"
#include "netlist/iscas89.hpp"
#include "report/table.hpp"
#include "ssta/ssta.hpp"
#include "stats/rng.hpp"

namespace {
double seconds(auto&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Row {
  std::string name;
  std::size_t nodes = 0;
  double full_s = 0;
  double inc_s = 0;
  double speedup = 0;
  std::uint64_t reeval = 0;
  double reeval_per_update = 0;
};
}  // namespace

int main(int argc, char** argv) {
  using namespace spsta;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: ablation_incremental [--json=FILE]\n");
      return 2;
    }
  }

  std::printf("=== Ablation: incremental vs full SSTA (100 delay updates) ===\n\n");
  report::Table table({"test", "nodes", "full x100 (s)", "incremental (s)", "speedup",
                       "nodes re-eval", "re-eval/update"});

  std::vector<Row> rows;
  for (std::string_view name : netlist::paper_circuit_names()) {
    const netlist::Netlist n = netlist::make_paper_circuit(name);
    netlist::DelayModel d = netlist::DelayModel::unit(n);
    const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};

    // The update workload: random gate-delay tweaks (as a sizer would do).
    stats::Xoshiro256 rng(2024);
    std::vector<netlist::NodeId> gates;
    for (netlist::NodeId id = 0; id < n.node_count(); ++id) {
      if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
    }
    constexpr int kUpdates = 100;
    std::vector<std::pair<netlist::NodeId, stats::Gaussian>> updates;
    for (int i = 0; i < kUpdates; ++i) {
      updates.emplace_back(gates[rng.uniform_index(gates.size())],
                           stats::Gaussian{rng.uniform(0.5, 2.0), 0.0});
    }

    // Full re-analysis per update.
    netlist::DelayModel d_full = d;
    const double t_full = seconds([&] {
      for (const auto& [id, delay] : updates) {
        d_full.set_delay(id, delay);
        volatile double sink =
            ssta::run_ssta(n, d_full, sc).arrival.back().rise.mean;
        (void)sink;
      }
    });

    // Incremental engine: the plan's engine, reading its SSTA arrivals.
    core::CompiledDesign plan(n, d);
    core::IncrementalSpsta inc(plan, sc, /*settle_eps=*/0.0);
    (void)inc.ssta();  // the initial full pass, as run_ssta would pay
    const netlist::NodeId probe = n.timing_endpoints().front();
    const double t_inc = seconds([&] {
      for (const auto& [id, delay] : updates) {
        inc.set_delay(id, delay);
        volatile double sink = inc.ssta()[probe].rise.mean;
        (void)sink;
      }
    });

    Row row;
    row.name = std::string(name);
    row.nodes = n.node_count();
    row.full_s = t_full;
    row.inc_s = t_inc;
    row.speedup = t_full / std::max(t_inc, 1e-9);
    row.reeval = inc.ssta_reevaluated();
    row.reeval_per_update = static_cast<double>(row.reeval) / kUpdates;
    rows.push_back(row);

    table.add_row({row.name, std::to_string(row.nodes),
                   report::Table::num(t_full, 4), report::Table::num(t_inc, 4),
                   report::Table::num(row.speedup, 1) + "x",
                   std::to_string(row.reeval),
                   report::Table::num(row.reeval_per_update, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Each update dirties only the changed gate's fanout cone; the\n"
              "re-eval/update column shows the cone size actually visited.\n");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "a");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for append\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"ablation_incremental\",\"updates\":100,\"circuits\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"nodes\":%zu,\"full_s\":%.6g,"
                   "\"incremental_s\":%.6g,\"speedup\":%.3g,"
                   "\"nodes_reevaluated\":%llu,\"reeval_per_update\":%.6g}",
                   i ? "," : "", r.name.c_str(), r.nodes, r.full_s, r.inc_s,
                   r.speedup, static_cast<unsigned long long>(r.reeval),
                   r.reeval_per_update);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("Appended ablation trajectory to %s\n", json_path.c_str());
  }
  return 0;
}

// ECO-storm bench for the warm-edit hot path (DESIGN.md §17): randomized
// single-edit loops vs transactional batched commits vs what-if
// probe/revert storms on the incremental moment engine, over a 10k-gate
// generated circuit and the paper's s-class circuits.
//
// The two acceptance bars CI re-checks from this bench's JSON:
//   * batched commits >= 3x the equivalent single-edit loop's throughput;
//   * probe/revert >= 5x the edit-revert-by-re-propagation baseline.
// Every storm must stay bit-identical to a fresh full analysis at
// settle_eps = 0; the exit status is nonzero on any miss.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/compiled_design.hpp"
#include "core/incremental_spsta.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas89.hpp"
#include "report/table.hpp"
#include "stats/rng.hpp"

namespace {

using namespace spsta;
using core::IncrementalSpsta;
using netlist::NodeId;

double seconds(auto&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const stats::Gaussian& a, const stats::Gaussian& b) {
  return same_bits(a.mean, b.mean) && same_bits(a.var, b.var);
}

bool same_bits(const core::TransitionTop& a, const core::TransitionTop& b) {
  return same_bits(a.mass, b.mass) && same_bits(a.arrival, b.arrival) &&
         same_bits(a.third_central, b.third_central);
}

bool same_bits(const core::NodeTop& a, const core::NodeTop& b) {
  return same_bits(a.probs.p0, b.probs.p0) && same_bits(a.probs.p1, b.probs.p1) &&
         same_bits(a.probs.pr, b.probs.pr) && same_bits(a.probs.pf, b.probs.pf) &&
         same_bits(a.rise, b.rise) && same_bits(a.fall, b.fall);
}

bool same_state(const std::vector<core::NodeTop>& a,
                const std::vector<core::NodeTop>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

netlist::Netlist build_circuit(const std::string& name) {
  if (name == "gen10k") {
    netlist::GeneratorSpec spec;
    spec.name = "gen10k";
    spec.num_inputs = 64;
    spec.num_outputs = 32;
    spec.num_gates = 10000;
    spec.target_depth = 30;
    spec.seed = 7;
    // XOR weight keeps switching activity (and therefore non-degenerate
    // transition mass) alive through 30 levels, so edits propagate deep.
    spec.weight_xor = 1.0;
    spec.weight_xnor = 0.5;
    return netlist::generate_circuit(spec);
  }
  return netlist::make_paper_circuit(name);
}

struct CircuitRow {
  std::string name;
  std::size_t nodes = 0;
  std::size_t gates = 0;
  std::size_t endpoints = 0;
  bool identical = true;
  double single_eps = 0;           ///< single-edit loop, edits/s
  double batched_eps = 0;          ///< transactional batches, edits/s
  double single_reeval_per_edit = 0;
  double batched_reeval_per_edit = 0;
  double probe_pps = 0;            ///< what-if probes/s
  double revert_pps = 0;           ///< edit+revert by re-propagation, probes/s
  double probe_reeval = 0;         ///< nodes re-evaluated per probe
  double revert_reeval = 0;        ///< nodes re-evaluated per edit+revert
};

}  // namespace

int main(int argc, char** argv) {
  std::string circuits_arg = "gen10k,s1196,s1238";
  std::string json_path;
  std::size_t num_edits = 512;
  std::size_t batch = 32;
  std::size_t num_probes = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--circuits=", 0) == 0) {
      circuits_arg = arg.substr(11);
    } else if (arg.rfind("--edits=", 0) == 0) {
      num_edits = std::stoul(arg.substr(8));
    } else if (arg.rfind("--batch=", 0) == 0) {
      batch = std::stoul(arg.substr(8));
    } else if (arg.rfind("--probes=", 0) == 0) {
      num_probes = std::stoul(arg.substr(9));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: eco_load [--circuits=a,b] [--edits=N] [--batch=K] "
                   "[--probes=M] [--json=FILE]\n");
      return 2;
    }
  }
  if (batch == 0) batch = 1;

  std::vector<std::string> circuits;
  for (std::size_t pos = 0; pos < circuits_arg.size();) {
    const std::size_t comma = circuits_arg.find(',', pos);
    const std::size_t end = comma == std::string::npos ? circuits_arg.size() : comma;
    if (end > pos) circuits.push_back(circuits_arg.substr(pos, end - pos));
    pos = end + 1;
  }

  std::printf("=== ECO storms: single edits vs transactions vs probes "
              "(%zu edits, batch %zu, %zu probes) ===\n\n",
              num_edits, batch, num_probes);
  report::Table table({"circuit", "nodes", "single e/s", "batched e/s", "speedup",
                       "probe/s", "revert/s", "speedup", "identical"});

  std::vector<CircuitRow> rows;
  bool all_identical = true;
  for (const std::string& name : circuits) {
    const netlist::Netlist design = build_circuit(name);
    const netlist::DelayModel unit = netlist::DelayModel::unit(design);
    const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
    const std::vector<NodeId> endpoints = design.timing_endpoints();

    CircuitRow row;
    row.name = name;
    row.nodes = design.node_count();
    row.gates = design.gate_count();
    row.endpoints = endpoints.size();

    std::vector<NodeId> gates;
    for (NodeId id = 0; id < design.node_count(); ++id) {
      if (netlist::is_combinational(design.node(id).type)) gates.push_back(id);
    }

    // One fixed randomized edit schedule shared by the single-edit loop and
    // the batched transactions, so both converge to the same final state.
    stats::Xoshiro256 rng(2026);
    std::vector<IncrementalSpsta::EcoEdit> edits;
    edits.reserve(num_edits);
    for (std::size_t i = 0; i < num_edits; ++i) {
      edits.push_back(IncrementalSpsta::EcoEdit::delay_edit(
          gates[rng.uniform_index(gates.size())],
          stats::Gaussian{rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.01)}));
    }

    // --- Single-edit loop: one cone walk (and one endpoint read) per edit.
    core::CompiledDesign single_plan(design, unit);
    IncrementalSpsta single(single_plan, sc, /*settle_eps=*/0.0);
    const double t_single = seconds([&] {
      for (std::size_t i = 0; i < edits.size(); ++i) {
        single.set_delay(edits[i].node, edits[i].delay);
        volatile double sink =
            single.node(endpoints[i % endpoints.size()]).rise.arrival.mean;
        (void)sink;
      }
    });
    row.single_eps = static_cast<double>(num_edits) / t_single;
    row.single_reeval_per_edit =
        static_cast<double>(single.nodes_reevaluated()) / static_cast<double>(num_edits);

    // --- Transactional batches: K edits merge into one frontier, one wave.
    core::CompiledDesign batched_plan(design, unit);
    IncrementalSpsta batched(batched_plan, sc, /*settle_eps=*/0.0);
    const double t_batched = seconds([&] {
      for (std::size_t start = 0; start < edits.size(); start += batch) {
        const std::size_t end = std::min(edits.size(), start + batch);
        batched.begin_eco();
        for (std::size_t i = start; i < end; ++i) {
          batched.set_delay(edits[i].node, edits[i].delay);
        }
        (void)batched.commit();
        for (std::size_t i = start; i < end; ++i) {
          volatile double sink =
              batched.node(endpoints[i % endpoints.size()]).rise.arrival.mean;
          (void)sink;
        }
      }
    });
    row.batched_eps = static_cast<double>(num_edits) / t_batched;
    row.batched_reeval_per_edit = static_cast<double>(batched.nodes_reevaluated()) /
                                  static_cast<double>(num_edits);

    // --- Bit-identity: both storms and a fresh full engine over the final
    // delays must agree bitwise (settle_eps == 0).
    netlist::DelayModel final_delays = unit;
    for (const auto& e : edits) final_delays.set_delay(e.node, e.delay);
    core::CompiledDesign fresh_plan(design, final_delays);
    IncrementalSpsta fresh(fresh_plan, sc, /*settle_eps=*/0.0);
    row.identical = same_state(single.flush(), fresh.flush()) &&
                    same_state(batched.flush(), fresh.flush());

    // --- Probe storm: what-if edits answered from a backward-cone wave +
    // undo log, vs the classic edit / read / revert-edit / read loop that
    // pays two full re-propagations. Targets rotate over a small endpoint
    // set (a sizer watching its critical outputs), so backward masks stay
    // memoized.
    const std::size_t watch = std::min<std::size_t>(endpoints.size(), 8);
    std::vector<IncrementalSpsta::EcoEdit> probe_edits;
    probe_edits.reserve(num_probes);
    for (std::size_t i = 0; i < num_probes; ++i) {
      probe_edits.push_back(IncrementalSpsta::EcoEdit::delay_edit(
          gates[rng.uniform_index(gates.size())],
          stats::Gaussian{rng.uniform(0.5, 2.0), 0.0}));
    }

    core::CompiledDesign prober_plan(design, unit);
    IncrementalSpsta prober(prober_plan, sc, /*settle_eps=*/0.0);
    const std::vector<core::NodeTop> before = prober.flush();  // copy

    // Sanity: a probe answers exactly what commit-then-query would.
    bool probes_match = true;
    for (std::size_t i = 0; i < std::min<std::size_t>(num_probes, 4); ++i) {
      const NodeId target = endpoints[i % watch];
      const auto probed = prober.probe({&probe_edits[i], 1}, {&target, 1});
      prober.set_delay(probe_edits[i].node, probe_edits[i].delay);
      probes_match =
          probes_match && same_bits(prober.node(target), probed.tops.front());
      prober.set_delay(probe_edits[i].node, stats::Gaussian{1.0, 0.0});
      (void)prober.flush();
    }
    row.identical = row.identical && probes_match &&
                    same_state(prober.flush(), before);

    const std::uint64_t reeval_before_probe = prober.nodes_reevaluated();
    const double t_probe = seconds([&] {
      for (std::size_t i = 0; i < num_probes; ++i) {
        const NodeId target = endpoints[i % watch];
        const auto probed = prober.probe({&probe_edits[i], 1}, {&target, 1});
        volatile double sink = probed.tops.front().rise.arrival.mean;
        (void)sink;
      }
    });
    row.probe_pps = static_cast<double>(num_probes) / t_probe;
    row.probe_reeval =
        static_cast<double>(prober.nodes_reevaluated() - reeval_before_probe) /
        static_cast<double>(num_probes);
    // Probes must leave the engine bitwise untouched.
    row.identical = row.identical && same_state(prober.flush(), before);

    core::CompiledDesign reverter_plan(design, unit);
    IncrementalSpsta reverter(reverter_plan, sc, /*settle_eps=*/0.0);
    const std::uint64_t reeval_before_revert = reverter.nodes_reevaluated();
    const double t_revert = seconds([&] {
      for (std::size_t i = 0; i < num_probes; ++i) {
        const NodeId target = endpoints[i % watch];
        reverter.set_delay(probe_edits[i].node, probe_edits[i].delay);
        volatile double sink = reverter.node(target).rise.arrival.mean;
        reverter.set_delay(probe_edits[i].node, stats::Gaussian{1.0, 0.0});
        sink = reverter.node(target).rise.arrival.mean;
        (void)sink;
      }
    });
    row.revert_pps = static_cast<double>(num_probes) / t_revert;
    row.revert_reeval =
        static_cast<double>(reverter.nodes_reevaluated() - reeval_before_revert) /
        static_cast<double>(num_probes);
    row.identical = row.identical && same_state(reverter.flush(), before);

    all_identical = all_identical && row.identical;
    table.add_row({row.name, std::to_string(row.nodes),
                   report::Table::num(row.single_eps, 0),
                   report::Table::num(row.batched_eps, 0),
                   report::Table::num(row.batched_eps / std::max(row.single_eps, 1e-9), 1) + "x",
                   report::Table::num(row.probe_pps, 0),
                   report::Table::num(row.revert_pps, 0),
                   report::Table::num(row.probe_pps / std::max(row.revert_pps, 1e-9), 1) + "x",
                   row.identical ? "yes" : "NO"});
    rows.push_back(row);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("single: one cone wave + endpoint read per edit; batched: %zu-edit\n"
              "transactions (one merged wave each); probe: backward-cone wave +\n"
              "undo-log revert vs edit/read/revert/read re-propagation.\n",
              batch);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "a");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for append\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"bench\":\"eco_load\",\"edits\":%zu,\"batch\":%zu,"
                 "\"probes\":%zu,\"identical\":%s,\"circuits\":[",
                 num_edits, batch, num_probes,
                 all_identical ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CircuitRow& r = rows[i];
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"nodes\":%zu,\"gates\":%zu,\"endpoints\":%zu,"
          "\"identical\":%s,\"single_edit_eps\":%.6g,\"batched_eps\":%.6g,"
          "\"batch_speedup\":%.3g,\"single_reeval_per_edit\":%.6g,"
          "\"batched_reeval_per_edit\":%.6g,\"probe_pps\":%.6g,"
          "\"edit_revert_pps\":%.6g,\"probe_speedup\":%.3g,"
          "\"probe_reeval_per_probe\":%.6g,\"revert_reeval_per_probe\":%.6g}",
          i ? "," : "", r.name.c_str(), r.nodes, r.gates, r.endpoints,
          r.identical ? "true" : "false", r.single_eps, r.batched_eps,
          r.batched_eps / std::max(r.single_eps, 1e-9), r.single_reeval_per_edit,
          r.batched_reeval_per_edit, r.probe_pps, r.revert_pps,
          r.probe_pps / std::max(r.revert_pps, 1e-9), r.probe_reeval,
          r.revert_reeval);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("Appended ECO trajectory to %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}

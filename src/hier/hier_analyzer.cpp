#include "hier/hier_analyzer.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace spsta::hier {

const PortTop* HierReport::find(std::string_view name) const {
  const auto it = std::find(signal_names.begin(), signal_names.end(), name);
  if (it == signal_names.end()) return nullptr;
  return &signals[static_cast<std::size_t>(it - signal_names.begin())];
}

HierAnalyzer::HierAnalyzer(netlist::HierDesign design, HierAnalyzerOptions options)
    : design_(std::move(design)), options_(options) {
  design_.validate();
  if (options_.shared_models != nullptr) {
    models_ = options_.shared_models;
  } else {
    own_models_ = std::make_unique<BlockModelCache>();
    models_ = own_models_.get();
  }
  if (options_.shared_blocks != nullptr) {
    library_ = options_.shared_blocks;
  } else {
    own_library_ = std::make_unique<BlockLibrary>();
    library_ = own_library_.get();
  }

  // Compile (or re-find) every unique block through the library.
  compiled_.reserve(design_.blocks().size());
  for (const netlist::Netlist& block : design_.blocks()) {
    compiled_.push_back(library_->intern(block));
  }

  topo_ = design_.topo_instances();

  // Top-level signal layout: top inputs first, then each instance's output
  // ports in instance declaration order.
  const auto& instances = design_.instances();
  signal_names_ = design_.top_inputs();
  instance_output_base_.resize(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const netlist::Netlist& block = design_.blocks()[instances[i].block];
    instance_output_base_[i] = signal_names_.size();
    for (const netlist::NodeId out : block.primary_outputs()) {
      signal_names_.push_back(instances[i].name + "." + block.node(out).name);
    }
  }
  signal_count_ = signal_names_.size();

  instance_inputs_.resize(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    instance_inputs_[i].reserve(instances[i].inputs.size());
    for (const std::string& sig : instances[i].inputs) {
      const auto ref = design_.resolve(sig);  // validate() guarantees success
      instance_inputs_[i].push_back(ref->is_top_input()
                                        ? ref->index
                                        : instance_output_base_[ref->instance] + ref->index);
    }
  }
  output_signals_.reserve(design_.top_outputs().size());
  for (const std::string& out : design_.top_outputs()) {
    const auto ref = design_.resolve(out);
    output_signals_.push_back(ref->is_top_input()
                                  ? ref->index
                                  : instance_output_base_[ref->instance] + ref->index);
  }
}

void HierAnalyzer::validate(const AnalysisRequest& request) {
  Analyzer::validate(request);
  if (request.engine != Engine::SpstaMoment && request.engine != Engine::SpstaNumeric) {
    throw std::invalid_argument(
        "hier: only spsta_moment and spsta_numeric support block-model composition");
  }
}

std::size_t HierAnalyzer::approx_bytes() const noexcept {
  std::size_t total = 4096;
  for (const auto& block : compiled_) total += block->approx_bytes();
  total += signal_count_ * (sizeof(PortTop) + 32);
  total += design_.instances().size() * 64;
  return total;
}

HierReport HierAnalyzer::run(const AnalysisRequest& request) {
  const netlist::SourceStats scenario = netlist::scenario_I();
  return run(request, std::span<const netlist::SourceStats>(&scenario, 1));
}

HierReport HierAnalyzer::run(const AnalysisRequest& request,
                             std::span<const netlist::SourceStats> top_sources) {
  validate(request);
  if (top_sources.size() != 1 && top_sources.size() != design_.top_inputs().size()) {
    throw std::invalid_argument(
        "hier: top_sources must have one entry (broadcast) or one per top input");
  }
  core::SpstaOptions opts;
  opts.threads = request.threads.value_or(options_.threads);
  if (request.grid_dt) opts.grid_dt = *request.grid_dt;
  if (request.grid_pad_sigma) opts.grid_pad_sigma = *request.grid_pad_sigma;
  if (request.max_grid_points) opts.max_grid_points = *request.max_grid_points;

  const auto t0 = std::chrono::steady_clock::now();
  HierReport report;
  report.engine = request.engine;
  report.signal_names = signal_names_;
  report.signals.assign(signal_count_, PortTop{});
  report.outputs = output_signals_;

  // Seed top inputs exactly the way the flat engines seed timing sources:
  // normalized probs, transition masses = pr/pf, source arrival Gaussians.
  for (std::size_t t = 0; t < design_.top_inputs().size(); ++t) {
    const netlist::SourceStats& st =
        top_sources.size() == 1 ? top_sources[0] : top_sources[t];
    PortTop& top = report.signals[t];
    top.probs = st.probs.normalized();
    top.rise = {top.probs.pr, st.rise_arrival, 0.0};
    top.fall = {top.probs.pf, st.fall_arrival, 0.0};
  }

  std::vector<netlist::SourceStats> sources;
  for (const std::size_t i : topo_) {
    const netlist::HierInstance& inst = design_.instances()[i];
    const CompiledBlock& block = *compiled_[inst.block];
    const std::size_t ports = block.design.primary_inputs().size();
    const std::size_t nsources = block.plan.timing_sources().size();

    // Block sources are primary inputs first, then DFF outputs (the
    // Netlist::timing_sources order the engines require).
    sources.assign(nsources, top_sources[0]);
    for (std::size_t j = 0; j < ports; ++j) {
      const PortTop& driver = report.signals[instance_inputs_[i][j]];
      sources[j].probs = driver.probs;
      sources[j].rise_arrival = driver.rise.arrival;
      sources[j].fall_arrival = driver.fall.arrival;
    }

    // Mean-shift normalization (moment engine, register-free blocks): the
    // weighted-sum recursion and Clark MAX/MIN commute with a common time
    // shift, so the model is extracted at relative arrivals and shifted
    // back — one cache entry serves every congruent instance.
    double shift = 0.0;
    const bool shiftable =
        request.engine == Engine::SpstaMoment && block.design.dffs().empty();
    if (shiftable) {
      bool any = false;
      for (std::size_t j = 0; j < ports; ++j) {
        const netlist::SourceStats& s = sources[j];
        if (s.probs.pr > 0.0) {
          shift = any ? std::min(shift, s.rise_arrival.mean) : s.rise_arrival.mean;
          any = true;
        }
        if (s.probs.pf > 0.0) {
          shift = any ? std::min(shift, s.fall_arrival.mean) : s.fall_arrival.mean;
          any = true;
        }
      }
      if (shift != 0.0) {
        for (std::size_t j = 0; j < ports; ++j) {
          sources[j].rise_arrival.mean -= shift;
          sources[j].fall_arrival.mean -= shift;
        }
      }
    }

    const std::uint64_t signature =
        model_signature(block.hash, request.engine, opts, sources);
    std::shared_ptr<const BlockTimingModel> model = models_->find(signature);
    if (model == nullptr) {
      auto fresh = std::make_shared<BlockTimingModel>(
          extract_block_model(block.plan, request.engine, sources, opts));
      fresh->signature = signature;
      models_->insert(fresh);
      model = std::move(fresh);
      ++report.models_extracted;
    } else {
      ++report.model_cache_hits;
    }

    const std::size_t base = instance_output_base_[i];
    for (std::size_t p = 0; p < model->outputs.size(); ++p) {
      PortTop out = model->outputs[p];
      if (shift != 0.0) {
        out.rise.arrival.mean += shift;
        out.fall.arrival.mean += shift;
      }
      report.signals[base + p] = std::move(out);
    }
  }

  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  obs::registry().counter("hier.analyses").add();
  return report;
}

}  // namespace spsta::hier

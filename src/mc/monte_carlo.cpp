#include "mc/monte_carlo.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

#include "core/compiled_design.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace spsta::mc {

using netlist::FourValue;
using netlist::GateType;
using netlist::NodeId;

netlist::FourValueProbs NodeEstimate::probs() const noexcept {
  const double total = static_cast<double>(count[0] + count[1] + count[2] + count[3]);
  // No samples: return the uninformative uniform estimate, not "P0 = 1".
  if (total <= 0.0) return {0.25, 0.25, 0.25, 0.25};
  return {static_cast<double>(count[static_cast<int>(FourValue::Zero)]) / total,
          static_cast<double>(count[static_cast<int>(FourValue::One)]) / total,
          static_cast<double>(count[static_cast<int>(FourValue::Rise)]) / total,
          static_cast<double>(count[static_cast<int>(FourValue::Fall)]) / total};
}

double NodeEstimate::rise_probability() const noexcept {
  const double total = static_cast<double>(count[0] + count[1] + count[2] + count[3]);
  return total <= 0.0
             ? 0.0
             : static_cast<double>(count[static_cast<int>(FourValue::Rise)]) / total;
}

double NodeEstimate::fall_probability() const noexcept {
  const double total = static_cast<double>(count[0] + count[1] + count[2] + count[3]);
  return total <= 0.0
             ? 0.0
             : static_cast<double>(count[static_cast<int>(FourValue::Fall)]) / total;
}

double NodeEstimate::raw_edge_rate() const noexcept {
  const double total = static_cast<double>(count[0] + count[1] + count[2] + count[3]);
  return total <= 0.0 ? 0.0 : static_cast<double>(raw_edges) / total;
}

double MonteCarloResult::empirical_yield(double period) const {
  if (runs == 0) return 1.0;
  const auto it = std::upper_bound(circuit_max_samples.begin(),
                                   circuit_max_samples.end(), period);
  const auto met = static_cast<std::uint64_t>(it - circuit_max_samples.begin());
  return static_cast<double>(met + quiet_runs) / static_cast<double>(runs);
}

namespace {

/// Per-chunk partial result. Chunks cover contiguous run-index ranges in a
/// layout that depends only on the total run count, and the final merge
/// walks chunks in index order — so the accumulated statistics are
/// bit-identical no matter how many threads processed the chunks.
struct ChunkAccum {
  std::vector<NodeEstimate> node;
  std::uint64_t glitching_gates = 0;
  std::optional<stats::Histogram> histogram;
  stats::RunningMoments circuit_max;
  std::uint64_t quiet_runs = 0;
  std::vector<double> circuit_max_samples;
};

/// Runs per block: one bit of a machine word per run.
constexpr std::size_t kLanes = 64;
/// Widest gate the engine accepts.
constexpr std::size_t kMaxFanin = 64;
constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Calls f(lane) for every set bit of \p mask, lowest lane (earliest run)
/// first.
template <class F>
void for_each_lane(std::uint64_t mask, F&& f) {
  while (mask != 0) {
    f(static_cast<std::size_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

[[nodiscard]] std::uint64_t lanes_in(std::uint64_t mask) {
  return static_cast<std::uint64_t>(std::popcount(mask));
}

/// One chunk's simulator. It runs a block of up to 64 consecutive run
/// indices at once; lane l of every word carries run `first + l`.
///  * Four-value logic is two bit-planes per node: plane_[2*id] holds the
///    initial and plane_[2*id+1] the final value. A lane transitions where
///    they differ.
///  * Arrival times live in per-node lane arrays (time_[id*64 + l]),
///    meaningful only on transitioning lanes. So do the sampled gate
///    delays, and only when some delay varies.
/// Every run still draws from its own (seed, run) stream in the order a
/// run-at-a-time simulation would, and every gate lane computes the value,
/// arrival and edge count the run-at-a-time event sweep would, so the
/// results are bitwise those of simulating one run at a time.
class BlockSim {
 public:
  BlockSim(const core::CompiledDesign& plan,
           std::span<const netlist::SourceStats> source_stats,
           std::span<const double> base_rise, std::span<const double> base_fall,
           bool delays_fixed)
      : plan_(plan),
        source_stats_(source_stats),
        base_rise_(base_rise),
        base_fall_(base_fall),
        delays_fixed_(delays_fixed),
        plane_(2 * plan.node_count(), 0),
        time_(kLanes * plan.node_count()) {
    if (!delays_fixed_) {
      rise_delay_.resize(kLanes * plan.node_count());
      fall_delay_.resize(kLanes * plan.node_count());
    }
  }

  /// Simulates runs [first, first + lanes); adds their raw edges to \p acc.
  void simulate(std::uint64_t seed, std::uint64_t first, std::size_t lanes,
                ChunkAccum& acc) {
    lanes_ = lanes;
    valid_ = lanes == kLanes ? kAllLanes : (std::uint64_t{1} << lanes) - 1;
    draw(seed, first, acc);
    for (NodeId id : plan_.levelization().order) {
      if (plan_.combinational(id)) eval_gate(id, acc);
    }
  }

  /// Adds the block's observations to \p acc. Counts are popcounts. Every
  /// order-sensitive accumulator (Welford, histogram, circuit max) is fed
  /// its samples lane by lane in run order: the sequence a run-at-a-time
  /// loop feeds it.
  void accumulate(const MonteCarloConfig& config, ChunkAccum& acc) {
    for (NodeId id = 0; id < plan_.node_count(); ++id) {
      const std::uint64_t i = plane_[2 * id];
      const std::uint64_t f = plane_[2 * id + 1];
      NodeEstimate& est = acc.node[id];
      est.count[static_cast<int>(FourValue::Zero)] += lanes_in(~i & ~f & valid_);
      est.count[static_cast<int>(FourValue::One)] += lanes_in(i & f & valid_);
      est.count[static_cast<int>(FourValue::Rise)] += lanes_in(~i & f & valid_);
      est.count[static_cast<int>(FourValue::Fall)] += lanes_in(i & ~f & valid_);
      const double* t = &time_[id * kLanes];
      for_each_lane(~i & f & valid_, [&](std::size_t l) { est.rise_time.add(t[l]); });
      for_each_lane(i & ~f & valid_, [&](std::size_t l) { est.fall_time.add(t[l]); });
    }
    const std::span<const NodeId> endpoints = plan_.timing_endpoints();
    for (std::size_t l = 0; l < lanes_; ++l) {
      if (acc.histogram) {
        const NodeId h = *config.histogram_node;
        if (moves(h, l) && rises(h, l)) acc.histogram->add(time_[h * kLanes + l]);
      }
      if (config.track_circuit_max) {
        bool any = false;
        double latest = 0.0;
        for (NodeId ep : endpoints) {
          if (!moves(ep, l)) continue;
          const double t = time_[ep * kLanes + l];
          if (!any || t > latest) latest = t;
          any = true;
        }
        if (any) {
          acc.circuit_max.add(latest);
          acc.circuit_max_samples.push_back(latest);
        } else {
          ++acc.quiet_runs;
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t glitching_gates() const { return glitching_gates_; }

 private:
  [[nodiscard]] std::uint64_t moves(NodeId id) const {
    return (plane_[2 * id] ^ plane_[2 * id + 1]) & valid_;
  }
  [[nodiscard]] bool moves(NodeId id, std::size_t lane) const {
    return ((moves(id) >> lane) & 1) != 0;
  }
  [[nodiscard]] bool rises(NodeId id, std::size_t lane) const {
    return ((plane_[2 * id + 1] >> lane) & 1) != 0;
  }

  void draw(std::uint64_t seed, std::uint64_t first, ChunkAccum& acc) {
    static constexpr std::array<FourValue, 4> kValues{FourValue::Zero, FourValue::One,
                                                      FourValue::Rise, FourValue::Fall};
    const std::span<const NodeId> sources = plan_.timing_sources();
    const netlist::DelayModel& delays = plan_.delays();
    for (NodeId src : sources) plane_[2 * src] = plane_[2 * src + 1] = 0;
    for (std::size_t l = 0; l < lanes_; ++l) {
      // One RNG stream per run, seeded by (seed, run index): which thread
      // and which lane execute the run is immaterial to what it draws.
      stats::Xoshiro256 rng = stats::Xoshiro256::for_stream(seed, first + l);
      const std::uint64_t bit = std::uint64_t{1} << l;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const netlist::SourceStats& st =
            source_stats_.size() == 1 ? source_stats_[0] : source_stats_[i];
        const std::array<double, 4> weights{st.probs.p0, st.probs.p1, st.probs.pr,
                                            st.probs.pf};
        const NodeId src = sources[i];
        switch (kValues[rng.categorical(weights)]) {
          case FourValue::Zero:
            break;
          case FourValue::One:
            plane_[2 * src] |= bit;
            plane_[2 * src + 1] |= bit;
            break;
          case FourValue::Rise:
            plane_[2 * src + 1] |= bit;
            time_[src * kLanes + l] =
                rng.normal(st.rise_arrival.mean, st.rise_arrival.stddev());
            break;
          case FourValue::Fall:
            plane_[2 * src] |= bit;
            time_[src * kLanes + l] =
                rng.normal(st.fall_arrival.mean, st.fall_arrival.stddev());
            break;
        }
      }
      // Re-sample variational gate delays (per direction; only one applies
      // per gate per cycle, so independent draws are fine).
      if (!delays_fixed_) {
        for (NodeId id = 0; id < plan_.node_count(); ++id) {
          const stats::Gaussian& dr = delays.delay(id, true);
          const stats::Gaussian& df = delays.delay(id, false);
          rise_delay_[id * kLanes + l] =
              dr.var > 0.0 ? rng.normal(dr.mean, dr.stddev()) : dr.mean;
          fall_delay_[id * kLanes + l] =
              df.var > 0.0 ? rng.normal(df.mean, df.stddev()) : df.mean;
        }
      }
    }
    for (NodeId src : sources) acc.node[src].raw_edges += lanes_in(moves(src));
  }

  /// Evaluates gate \p id on every lane: its two planes, its arrival on
  /// transitioning lanes, and its raw edges and glitches.
  void eval_gate(NodeId id, ChunkAccum& acc) {
    const GateType type = plan_.type(id);
    const std::span<const NodeId> fanins = plan_.fanins(id);
    std::uint64_t init = 0;
    std::uint64_t fin = 0;
    std::uint64_t raw = 0;
    const auto invert = [](bool on) { return on ? kAllLanes : 0; };

    switch (type) {
      case GateType::Const1:
        init = fin = kAllLanes;
        break;
      case GateType::Buf:
      case GateType::Not:
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor: {
        // Fold in the AND domain: OR-family inputs are complemented (De
        // Morgan), so the controlling value reads 0 and moving toward it
        // reads as a fall. BUF/NOT are one-input AND/NAND.
        const std::uint64_t flip = invert(type == GateType::Or || type == GateType::Nor);
        std::uint64_t all_i = kAllLanes;
        std::uint64_t all_f = kAllLanes;
        std::uint64_t no_ctrl = kAllLanes;
        std::uint64_t rising = 0;
        std::uint64_t falling = 0;
        for (NodeId f : fanins) {
          const std::uint64_t i = plane_[2 * f] ^ flip;
          const std::uint64_t v = plane_[2 * f + 1] ^ flip;
          all_i &= i;
          all_f &= v;
          no_ctrl &= i | v;
          rising |= ~i & v;
          falling |= i & ~v;
        }
        // With no static controlling input, lanes whose inputs all move
        // one way move the output exactly once (Table 1): at the first
        // input toward the controlling value, at the last one away from
        // it. Lanes moving both ways start and end at the controlling
        // value; they pulse iff the last rise precedes the first fall in
        // (time, input position) order.
        const std::uint64_t m = (all_i ^ all_f) & valid_;
        const std::uint64_t mixed = no_ctrl & rising & falling & valid_;
        for_each_lane(m | mixed, [&](std::size_t l) {
          best_[l] = ((rising >> l) & 1) != 0 ? -kInf : kInf;
        });
        for_each_lane(mixed, [&](std::size_t l) { first_fall_[l] = kInf; });
        // Mixed lanes where some fall comes before some rise in that order.
        std::uint64_t no_pulse = 0;
        for (NodeId f : fanins) {
          const std::uint64_t i = plane_[2 * f] ^ flip;
          const std::uint64_t v = plane_[2 * f + 1] ^ flip;
          const double* t = &time_[f * kLanes];
          // MAX; on equal times the later input is the later event.
          for_each_lane(~i & v & m, [&](std::size_t l) {
            if (!(t[l] < best_[l])) best_[l] = t[l];
          });
          // MIN; on equal times the earlier input is the earlier event.
          for_each_lane(i & ~v & m, [&](std::size_t l) {
            if (t[l] < best_[l]) best_[l] = t[l];
          });
          // A rise at or after an earlier input's fall, or a fall before
          // an earlier input's rise, leaves the output at the controlling
          // value throughout.
          for_each_lane(~i & v & mixed, [&](std::size_t l) {
            if (!(t[l] < first_fall_[l])) no_pulse |= std::uint64_t{1} << l;
            if (!(t[l] < best_[l])) best_[l] = t[l];
          });
          for_each_lane(i & ~v & mixed, [&](std::size_t l) {
            if (t[l] < best_[l]) no_pulse |= std::uint64_t{1} << l;
            if (t[l] < first_fall_[l]) first_fall_[l] = t[l];
          });
        }
        const std::uint64_t pulses = lanes_in(mixed & ~no_pulse);
        raw = lanes_in(m) + 2 * pulses;
        glitching_gates_ += pulses;
        const std::uint64_t out_flip = flip ^ invert(netlist::is_inverting(type));
        init = all_i ^ out_flip;
        fin = all_f ^ out_flip;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        // Every input event flips the output. It settles at the last
        // switching input when an odd number switch, and it glitches
        // whenever two or more do (bit-sliced count: once, twice).
        std::uint64_t once = 0;
        std::uint64_t twice = 0;
        for (NodeId f : fanins) {
          const std::uint64_t sw = moves(f);
          twice |= once & sw;
          once |= sw;
          raw += lanes_in(sw);
          init ^= plane_[2 * f];
          fin ^= plane_[2 * f + 1];
        }
        const std::uint64_t m = (init ^ fin) & valid_;
        glitching_gates_ += lanes_in(twice);
        for_each_lane(m, [&](std::size_t l) { best_[l] = -kInf; });
        for (NodeId f : fanins) {
          const double* t = &time_[f * kLanes];
          for_each_lane(moves(f) & m, [&](std::size_t l) {
            if (!(t[l] < best_[l])) best_[l] = t[l];
          });
        }
        init ^= invert(type == GateType::Xnor);
        fin ^= invert(type == GateType::Xnor);
        break;
      }
      default:  // Const0
        break;
    }

    plane_[2 * id] = init;
    plane_[2 * id + 1] = fin;
    acc.node[id].raw_edges += raw;
    const std::size_t stride = delays_fixed_ ? 0 : 1;
    const double* rise = delays_fixed_ ? &base_rise_[id] : &rise_delay_[id * kLanes];
    const double* fall = delays_fixed_ ? &base_fall_[id] : &fall_delay_[id * kLanes];
    double* out = &time_[id * kLanes];
    for_each_lane(moves(id), [&](std::size_t l) {
      out[l] = best_[l] + (((fin >> l) & 1) != 0 ? rise[l * stride] : fall[l * stride]);
    });
  }

  const core::CompiledDesign& plan_;
  std::span<const netlist::SourceStats> source_stats_;
  std::span<const double> base_rise_;
  std::span<const double> base_fall_;
  bool delays_fixed_;

  std::size_t lanes_ = 0;
  std::uint64_t valid_ = 0;  ///< lanes carrying a run of this block
  std::vector<std::uint64_t> plane_;
  std::vector<double> time_;
  std::vector<double> rise_delay_;
  std::vector<double> fall_delay_;
  /// The gate being evaluated: its settled transition time before the gate
  /// delay, on lanes where it transitions; on mixed-direction lanes, its
  /// latest rise so far.
  std::array<double, kLanes> best_{};
  /// Its earliest fall so far, on mixed-direction lanes.
  std::array<double, kLanes> first_fall_{};
  /// Gates whose output pulsed (changed and returned), over all blocks.
  std::uint64_t glitching_gates_ = 0;
};

}  // namespace

MonteCarloResult run_monte_carlo(const core::CompiledDesign& plan,
                                 std::span<const netlist::SourceStats> source_stats,
                                 const MonteCarloConfig& config) {
  plan.check_source_stats(source_stats, "run_monte_carlo");
  const netlist::DelayModel& delays = plan.delays();
  const std::size_t node_count = plan.node_count();

  MonteCarloResult result;
  result.node.resize(node_count);
  result.runs = config.runs;
  if (config.histogram_node) {
    result.histogram.emplace(config.histogram_lo, config.histogram_hi,
                             config.histogram_bins);
  }

  // Shared read-only baseline: mean delays, and whether any vary.
  std::vector<double> base_rise(node_count);
  std::vector<double> base_fall(node_count);
  bool delays_fixed = true;
  for (NodeId id = 0; id < node_count; ++id) {
    base_rise[id] = delays.delay(id, true).mean;
    base_fall[id] = delays.delay(id, false).mean;
    if (delays.delay(id, true).var > 0.0 || delays.delay(id, false).var > 0.0) {
      delays_fixed = false;
    }
    // The run-at-a-time simulator, which defines the results, stops at 64.
    if (plan.combinational(id) && plan.fanins(id).size() > kMaxFanin) {
      throw std::invalid_argument("run_monte_carlo: fanin too large");
    }
  }

  // Chunk layout: a function of `runs` alone (never of the thread count).
  // At least 256 runs per chunk bounds accumulator memory; at most 32
  // chunks bounds it from the other side while keeping 8+ threads busy.
  // Inside a chunk, runs go in blocks of 64 (the last one partial).
  static constexpr std::uint64_t kMinChunkRuns = 256;
  static constexpr std::uint64_t kMaxChunks = 32;
  const std::uint64_t chunk_runs =
      std::max(kMinChunkRuns, (config.runs + kMaxChunks - 1) / kMaxChunks);
  const std::size_t num_chunks =
      config.runs == 0 ? 0
                       : static_cast<std::size_t>((config.runs + chunk_runs - 1) / chunk_runs);
  std::vector<ChunkAccum> chunks(num_chunks);

  const auto run_chunk = [&](std::size_t c) {
    ChunkAccum& acc = chunks[c];
    acc.node.resize(node_count);
    if (config.histogram_node) {
      acc.histogram.emplace(config.histogram_lo, config.histogram_hi,
                            config.histogram_bins);
    }

    BlockSim sim(plan, source_stats, base_rise, base_fall, delays_fixed);
    const std::uint64_t first = static_cast<std::uint64_t>(c) * chunk_runs;
    const std::uint64_t last = std::min(config.runs, first + chunk_runs);
    for (std::uint64_t block = first; block < last; block += kLanes) {
      sim.simulate(config.seed, block,
                   static_cast<std::size_t>(std::min<std::uint64_t>(kLanes, last - block)),
                   acc);
      sim.accumulate(config, acc);
    }
    acc.glitching_gates = sim.glitching_gates();
  };

  {
    static obs::LatencyHistogram& shard_hist =
        obs::registry().histogram("stage.mc.shards");
    const obs::StageTimer timer(shard_hist);
    util::ThreadPool pool(config.threads);
    pool.for_each_index(num_chunks, run_chunk);
  }

  static obs::LatencyHistogram& merge_hist =
      obs::registry().histogram("stage.mc.merge");
  const obs::StageTimer merge_timer(merge_hist);
  // Ordered merge: chunk index order == run order, independent of threads.
  for (const ChunkAccum& acc : chunks) {
    for (NodeId id = 0; id < node_count; ++id) {
      NodeEstimate& est = result.node[id];
      const NodeEstimate& part = acc.node[id];
      for (int v = 0; v < 4; ++v) est.count[v] += part.count[v];
      est.raw_edges += part.raw_edges;
      est.rise_time.merge(part.rise_time);
      est.fall_time.merge(part.fall_time);
    }
    result.glitching_gates += acc.glitching_gates;
    if (result.histogram && acc.histogram) result.histogram->merge(*acc.histogram);
    result.circuit_max.merge(acc.circuit_max);
    result.quiet_runs += acc.quiet_runs;
    result.circuit_max_samples.insert(result.circuit_max_samples.end(),
                                      acc.circuit_max_samples.begin(),
                                      acc.circuit_max_samples.end());
  }
  std::sort(result.circuit_max_samples.begin(), result.circuit_max_samples.end());
  return result;
}

MonteCarloResult run_monte_carlo(const netlist::Netlist& design,
                                 const netlist::DelayModel& delays,
                                 std::span<const netlist::SourceStats> source_stats,
                                 const MonteCarloConfig& config) {
  return run_monte_carlo(core::CompiledDesign(design, delays), source_stats, config);
}

}  // namespace spsta::mc

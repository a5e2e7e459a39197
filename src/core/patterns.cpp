#include "core/patterns.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace spsta::core {

using netlist::FourValue;
using netlist::FourValueProbs;
using netlist::GateType;

namespace {

/// Settled-time operation for a homogeneous switching set. Inputs moving
/// toward the gate's controlling value decide the output at the *first*
/// event (MIN); inputs moving away decide at the *last* (MAX). Parity and
/// single-input gates settle at the last event (MAX).
SettleOp settle_op(GateType type, bool inputs_rising) {
  if (netlist::has_controlling_value(type)) {
    const bool toward_controlling = inputs_rising == netlist::controlling_value(type);
    return toward_controlling ? SettleOp::Min : SettleOp::Max;
  }
  return SettleOp::Max;
}

/// Gate families with an O(1) output rule over running input counts; the
/// enumeration walk below keeps the counts incrementally so leaves cost
/// O(1) instead of re-evaluating the gate over all n inputs. First covers
/// Buf/Not, which follow input 0 and ignore any extra inputs (matching
/// eval_gate).
enum class Family : std::uint8_t { AllOnes, AnyOne, Parity, First, Generic };

struct FamilySpec {
  Family family = Family::Generic;
  bool invert = false;
};

FamilySpec classify(GateType type) {
  switch (type) {
    case GateType::Buf:
      return {Family::First, false};
    case GateType::Not:
      return {Family::First, true};
    case GateType::And:
      return {Family::AllOnes, false};
    case GateType::Nand:
      return {Family::AllOnes, true};
    case GateType::Or:
      return {Family::AnyOne, false};
    case GateType::Nor:
      return {Family::AnyOne, true};
    case GateType::Xor:
      return {Family::Parity, false};
    case GateType::Xnor:
      return {Family::Parity, true};
    default:
      return {Family::Generic, false};
  }
}

constexpr FourValue kValues[4] = {FourValue::Zero, FourValue::One, FourValue::Rise,
                                  FourValue::Fall};

/// Leaf slot of a glitch-filtered assignment: it contributes to no pattern.
constexpr std::uint32_t kDropped = ~std::uint32_t{0};

/// A gate's support signature: the gate type, the fanin count and, per
/// input, a 4-bit mask of which of kValues have nonzero probability.
struct Signature {
  std::uint64_t masks = 0;  ///< input i at bits [4i, 4i + 4)
  std::uint32_t head = 0;   ///< (gate type << 5) | fanin count
  friend bool operator==(const Signature&, const Signature&) = default;
};

struct SignatureHash {
  std::size_t operator()(const Signature& s) const noexcept {
    const std::uint64_t h = (s.masks * 0x9E3779B97F4A7C15ULL) ^
                            (std::uint64_t{s.head} * 0xC2B2AE3D27D4EB4FULL);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// The probability-independent part of an enumeration: the patterns with
/// zero weights, and the pattern each depth-first leaf of the joint
/// support lands in.
struct Template {
  std::vector<SwitchPattern> skeleton;  ///< ascending key order, weights 0
  std::vector<std::uint32_t> slot;      ///< per leaf: skeleton index or kDropped

  [[nodiscard]] std::size_t bytes() const noexcept {
    // Payload plus a flat allowance for the map node and bucket.
    return sizeof(Signature) + sizeof(Template) + 4 * sizeof(void*) +
           skeleton.capacity() * sizeof(SwitchPattern) +
           slot.capacity() * sizeof(std::uint32_t);
  }
};

/// A gate's inputs split into the signature and the nonzero
/// probabilities, in kValues order — the only heap-free view replay needs.
struct Support {
  Signature sig;
  std::size_t n = 0;
  std::array<std::uint8_t, 16> count{};
  std::array<std::array<FourValue, 4>, 16> value{};
  std::array<std::array<double, 4>, 16> prob{};
  std::size_t combos = 1;  ///< number of depth-first leaves
};

/// Depth-first walk over the joint support in kValues order, recording the
/// (switching_mask, rising_mask, output direction) key of every leaf. The
/// key packs the tuple ordering so sorted keys give the emitted order.
struct SupportWalker {
  GateType type;
  FamilySpec spec;
  const Support* support = nullptr;

  std::uint32_t switching = 0;
  std::uint32_t rising = 0;
  std::size_t init_zeros = 0;
  std::size_t fin_zeros = 0;
  bool init_parity = false;  ///< parity of initial ones
  bool fin_parity = false;
  std::array<FourValue, 16> assignment{};

  /// Distinct keys in first-seen order, and each leaf's index into them.
  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> leaf_ids;

  void walk(std::size_t i) {
    const std::size_t n = support->n;
    if (i == n) {
      emit();
      return;
    }
    for (std::size_t c = 0; c < support->count[i]; ++c) {
      const FourValue v = support->value[i][c];
      const bool iv = netlist::initial_value(v);
      const bool fv = netlist::final_value(v);
      assignment[i] = v;
      init_zeros += iv ? 0 : 1;
      fin_zeros += fv ? 0 : 1;
      init_parity ^= iv;
      fin_parity ^= fv;
      const std::uint32_t bit = 1u << i;
      if (v == FourValue::Rise) {
        switching |= bit;
        rising |= bit;
      } else if (v == FourValue::Fall) {
        switching |= bit;
      }
      walk(i + 1);
      switching &= ~bit;
      rising &= ~bit;
      init_zeros -= iv ? 0 : 1;
      fin_zeros -= fv ? 0 : 1;
      init_parity ^= iv;
      fin_parity ^= fv;
    }
  }

  void emit() {
    const std::size_t n = support->n;
    bool oi = false, of = false;
    switch (spec.family) {
      case Family::AllOnes:
        oi = init_zeros == 0;
        of = fin_zeros == 0;
        break;
      case Family::AnyOne:
        oi = init_zeros < n;
        of = fin_zeros < n;
        break;
      case Family::Parity:
        oi = init_parity;
        of = fin_parity;
        break;
      case Family::First:
        oi = netlist::initial_value(assignment[0]);
        of = netlist::final_value(assignment[0]);
        break;
      case Family::Generic: {
        std::array<bool, 16> vi{}, vf{};
        for (std::size_t j = 0; j < n; ++j) {
          vi[j] = netlist::initial_value(assignment[j]);
          vf[j] = netlist::final_value(assignment[j]);
        }
        oi = netlist::eval_gate(type, std::span<const bool>(vi.data(), n));
        of = netlist::eval_gate(type, std::span<const bool>(vf.data(), n));
        break;
      }
    }
    if (spec.invert) {
      oi = !oi;
      of = !of;
    }
    if (oi == of) {  // constant output: glitch-filtered, no transition
      leaf_ids.push_back(kDropped);
      return;
    }
    // Tuple order (switching, rising, output_rising), packed ascending.
    const std::uint64_t key = (static_cast<std::uint64_t>(switching) << 17) |
                              (static_cast<std::uint64_t>(rising) << 1) |
                              static_cast<std::uint64_t>(of);
    const auto [it, fresh] = ids.try_emplace(key, static_cast<std::uint32_t>(keys.size()));
    if (fresh) keys.push_back(key);
    leaf_ids.push_back(it->second);
  }
};

Template build_template(GateType type, const Support& support) {
  SupportWalker w;
  w.type = type;
  w.spec = classify(type);
  w.support = &support;
  w.leaf_ids.reserve(support.combos);
  w.walk(0);

  // Rank the distinct keys, then point every leaf at its key's rank.
  std::vector<std::uint32_t> order(w.keys.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return w.keys[a] < w.keys[b]; });
  std::vector<std::uint32_t> rank(order.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;

  Template t;
  t.skeleton.reserve(order.size());
  for (const std::uint32_t k : order) {
    const std::uint64_t key = w.keys[k];
    SwitchPattern p;
    p.output_rising = (key & 1u) != 0;
    p.switching_mask = static_cast<std::uint32_t>(key >> 17);
    p.rising_mask = static_cast<std::uint32_t>((key >> 1) & 0xFFFFu);
    // Homogeneous sets take the family op; mixed-direction sets (parity
    // gates only) settle at the last event.
    const bool all_rising = p.rising_mask == p.switching_mask;
    const bool all_falling = p.rising_mask == 0;
    if (all_rising || all_falling) {
      p.op = settle_op(type, all_rising);
    } else {
      p.op = SettleOp::Max;
    }
    t.skeleton.push_back(p);
  }
  t.slot = std::move(w.leaf_ids);
  for (std::uint32_t& s : t.slot) {
    if (s != kDropped) s = rank[s];
  }
  return t;
}

/// Writes the weights of \p t under \p support into \p out. The leaves are
/// visited in the walker's order with the walker's prefix products
/// (1.0, then weight * p at each level), and each pattern's weight starts
/// at 0.0 and receives its leaves' += in that order — exactly the
/// accumulate-by-key arithmetic of a direct walk, so the bits match.
void replay(const Template& t, const Support& support, std::vector<SwitchPattern>& out) {
  out.assign(t.skeleton.begin(), t.skeleton.end());
  if (out.empty()) return;
  const std::size_t n = support.n;
  std::array<double, 17> prefix;
  std::array<std::uint8_t, 16> choice{};
  prefix[0] = 1.0;
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] * support.prob[i][0];
  for (const std::uint32_t s : t.slot) {
    if (s != kDropped) out[s].weight += prefix[n];
    // Advance the odometer (last input fastest) and refresh the prefix
    // products from the first input that moved.
    std::size_t i = n;
    while (i > 0 && ++choice[i - 1] == support.count[i - 1]) choice[--i] = 0;
    if (i == 0) break;
    for (std::size_t j = i - 1; j < n; ++j) {
      prefix[j + 1] = prefix[j] * support.prob[j][choice[j]];
    }
  }
}

/// Signature -> template, bounded by kPatternTableBudgetBytes. Entries are
/// never erased, so a stored template's address stays valid for the life
/// of the process and replay runs outside the lock.
class TemplateTable {
 public:
  void patterns(GateType type, const Support& support, std::vector<SwitchPattern>& out) {
    static obs::Counter& hit_counter = obs::registry().counter("pattern_cache.hits");
    static obs::Counter& miss_counter = obs::registry().counter("pattern_cache.misses");
    const Template* stored = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = map_.find(support.sig);
      if (it != map_.end()) stored = it->second.get();
    }
    if (stored != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter.add();
      replay(*stored, support, out);
      return;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter.add();
    // Build outside the lock: a template is a pure function of its
    // signature, so concurrent builders produce identical templates and
    // whichever insert wins is immaterial.
    auto built = std::make_unique<const Template>(build_template(type, support));
    const Template* use = built.get();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = map_.find(support.sig);
      if (it != map_.end()) {
        use = it->second.get();
      } else if (bytes_ + built->bytes() <= kPatternTableBudgetBytes) {
        bytes_ += built->bytes();
        map_.emplace(support.sig, std::move(built));
      } else {
        unstored_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    replay(*use, support, out);
  }

  PatternTableStats stats() {
    PatternTableStats s;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      s.entries = map_.size();
      s.bytes = bytes_;
    }
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.unstored = unstored_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<Signature, std::unique_ptr<const Template>, SignatureHash> map_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> unstored_{0};
};

TemplateTable& table() {
  static TemplateTable instance;
  return instance;
}

}  // namespace

void enumerate_switch_patterns(GateType type, std::span<const FourValueProbs> inputs,
                               std::vector<SwitchPattern>& out) {
  out.clear();
  const std::size_t n = inputs.size();
  if (n > 16) {
    throw std::invalid_argument("enumerate_switch_patterns: fanin > 16 unsupported");
  }
  if (type == GateType::Const0 || type == GateType::Const1) return;

  // Support pruning — the fanin-cap hang fix: the walk covers only the
  // joint assignments with nonzero probability instead of all 4^n codes,
  // so a wide gate with sparse four-value support enumerates in
  // micro/milliseconds. A genuinely dense joint support is rejected
  // instead of silently looping for minutes.
  static constexpr std::size_t kMaxSupportCombos = std::size_t{1} << 26;
  Support support;
  support.n = n;
  support.sig.head = (static_cast<std::uint32_t>(type) << 5) | static_cast<std::uint32_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t& k = support.count[i];
    for (std::size_t b = 0; b < 4; ++b) {
      const double p = inputs[i].prob(kValues[b]);
      if (p > 0.0) {
        support.sig.masks |= std::uint64_t{1} << (4 * i + b);
        support.value[i][k] = kValues[b];
        support.prob[i][k] = p;
        ++k;
      }
    }
    if (k == 0) return;  // impossible input: empty support
    if (support.combos > kMaxSupportCombos / k) {
      throw std::invalid_argument(
          "enumerate_switch_patterns: joint input support exceeds 2^26 "
          "assignments; reduce fanin or prune input probabilities");
    }
    support.combos *= k;
  }
  table().patterns(type, support, out);
}

std::vector<SwitchPattern> enumerate_switch_patterns(
    GateType type, std::span<const FourValueProbs> inputs) {
  std::vector<SwitchPattern> out;
  enumerate_switch_patterns(type, inputs, out);
  return out;
}

PatternTableStats pattern_table_stats() { return table().stats(); }

}  // namespace spsta::core

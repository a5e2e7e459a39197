// Tests for switching-scenario enumeration — the WEIGHTED SUM's terms.
// Key invariant: pattern weights for each output direction sum exactly to
// the four-value transition probabilities (paper Eq. 11 vs Eq. 9/10).

#include "core/patterns.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "sigprob/four_value_prop.hpp"
#include "stats/rng.hpp"

namespace spsta::core {
namespace {

using netlist::FourValueProbs;
using netlist::GateType;

TEST(Patterns, TwoInputAndMatchesEquation12) {
  // Paper Eq. 12: phi_r(y) = Pr1*P1_2*phi(x1) + P1_1*Pr2*phi(x2)
  //                        + Pr1*Pr2*phi(MAX).
  const FourValueProbs p{0.25, 0.25, 0.25, 0.25};
  const std::vector<FourValueProbs> inputs{p, p};
  const auto patterns = enumerate_switch_patterns(GateType::And, inputs);

  double w_single_rise = 0.0, w_double_rise = 0.0;
  for (const SwitchPattern& sp : patterns) {
    if (!sp.output_rising) continue;
    const int k = __builtin_popcount(sp.switching_mask);
    if (k == 1) {
      w_single_rise += sp.weight;
      EXPECT_EQ(sp.rising_mask, sp.switching_mask);  // single riser
    } else {
      EXPECT_EQ(sp.op, SettleOp::Max);
      w_double_rise += sp.weight;
    }
  }
  EXPECT_NEAR(w_single_rise, 2.0 * 0.25 * 0.25, 1e-12);  // Pr*P1 twice
  EXPECT_NEAR(w_double_rise, 0.25 * 0.25, 1e-12);        // Pr*Pr
}

TEST(Patterns, AndFallUsesMin) {
  const FourValueProbs p{0.25, 0.25, 0.25, 0.25};
  const auto patterns =
      enumerate_switch_patterns(GateType::And, std::vector{p, p});
  for (const SwitchPattern& sp : patterns) {
    if (sp.output_rising) continue;
    if (__builtin_popcount(sp.switching_mask) >= 2) {
      EXPECT_EQ(sp.rising_mask, 0u);  // falling set
      EXPECT_EQ(sp.op, SettleOp::Min);
    }
  }
}

TEST(Patterns, OrDirectionsAreDual) {
  const FourValueProbs p{0.25, 0.25, 0.25, 0.25};
  const auto patterns = enumerate_switch_patterns(GateType::Or, std::vector{p, p});
  for (const SwitchPattern& sp : patterns) {
    if (__builtin_popcount(sp.switching_mask) < 2) continue;
    if (sp.output_rising) {
      EXPECT_EQ(sp.op, SettleOp::Min);  // first riser sets an OR
    } else {
      EXPECT_EQ(sp.op, SettleOp::Max);  // last faller clears it
    }
  }
}

TEST(Patterns, XorAlwaysSettlesAtLastEvent) {
  const FourValueProbs p{0.1, 0.2, 0.4, 0.3};
  const auto patterns = enumerate_switch_patterns(GateType::Xor, std::vector{p, p, p});
  for (const SwitchPattern& sp : patterns) {
    EXPECT_EQ(sp.op, SettleOp::Max);
    EXPECT_GT(__builtin_popcount(sp.switching_mask), 0);
  }
}

TEST(Patterns, GlitchScenariosExcluded) {
  // AND with one rising and one falling input yields no output transition,
  // so no pattern may carry that switching combination.
  const FourValueProbs p{0.25, 0.25, 0.25, 0.25};
  const auto patterns = enumerate_switch_patterns(GateType::And, std::vector{p, p});
  for (const SwitchPattern& sp : patterns) {
    if (sp.switching_mask == 0b11u) {
      EXPECT_TRUE(sp.rising_mask == 0b11u || sp.rising_mask == 0u)
          << "mixed-direction AND scenario should have been glitch-filtered";
    }
  }
}

// The load-bearing invariant across gate types, fanins and distributions.
class PatternWeightSum
    : public ::testing::TestWithParam<std::tuple<GateType, std::size_t, std::uint64_t>> {};

TEST_P(PatternWeightSum, WeightsSumToTransitionProbabilities) {
  const auto [type, fanin, seed] = GetParam();
  stats::Xoshiro256 rng(seed);
  std::vector<FourValueProbs> inputs(fanin);
  for (auto& p : inputs) {
    p = FourValueProbs{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()}
            .normalized();
  }
  const auto patterns = enumerate_switch_patterns(type, inputs);
  double rise = 0.0, fall = 0.0;
  for (const SwitchPattern& sp : patterns) {
    ASSERT_GT(sp.weight, 0.0);
    ASSERT_NE(sp.switching_mask, 0u);
    ASSERT_EQ(sp.rising_mask & ~sp.switching_mask, 0u);
    (sp.output_rising ? rise : fall) += sp.weight;
  }
  const FourValueProbs expected = sigprob::gate_four_value(type, inputs);
  EXPECT_NEAR(rise, expected.pr, 1e-10);
  EXPECT_NEAR(fall, expected.pf, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, PatternWeightSum,
    ::testing::Combine(::testing::Values(GateType::And, GateType::Nand, GateType::Or,
                                         GateType::Nor, GateType::Xor, GateType::Xnor,
                                         GateType::Not, GateType::Buf),
                       ::testing::Values<std::size_t>(1, 2, 3, 4),
                       ::testing::Values<std::uint64_t>(2, 19, 77)));

TEST(Patterns, RejectsWideGates) {
  std::vector<FourValueProbs> wide(17);
  EXPECT_THROW((void)enumerate_switch_patterns(GateType::And, wide),
               std::invalid_argument);
}

TEST(Patterns, WideSparseFaninEnumeratesFast) {
  // Regression for the fanin-cap hang: enumeration used to iterate all
  // 4^n codes regardless of support, so a 12-input gate walked 16.7M
  // combinations (and 14+ inputs ran for minutes). With support pruning
  // this 12-input gate has 4 * 2^11 = 8192 joint assignments and must
  // finish in milliseconds; ctest's timeout catches a reintroduced hang.
  std::vector<FourValueProbs> inputs(12, FourValueProbs{0.6, 0.4, 0.0, 0.0});
  inputs[0] = FourValueProbs{0.2, 0.2, 0.3, 0.3};  // the only switching input
  const auto patterns = enumerate_switch_patterns(GateType::And, inputs);
  double rise = 0.0, fall = 0.0;
  for (const SwitchPattern& sp : patterns) {
    EXPECT_EQ(sp.switching_mask, 1u);  // only input 0 can switch
    (sp.output_rising ? rise : fall) += sp.weight;
  }
  const FourValueProbs expected = sigprob::gate_four_value(GateType::And, inputs);
  EXPECT_NEAR(rise, expected.pr, 1e-12);
  EXPECT_NEAR(fall, expected.pf, 1e-12);
}

TEST(Patterns, RejectsDenseJointSupportInsteadOfHanging) {
  // 16 inputs with full four-value support: 4^16 = 2^32 joint assignments
  // exceed the 2^26 cap, which must be reported as an error up front — not
  // discovered as a multi-minute enumeration.
  std::vector<FourValueProbs> dense(16, FourValueProbs{0.25, 0.25, 0.25, 0.25});
  EXPECT_THROW((void)enumerate_switch_patterns(GateType::And, dense),
               std::invalid_argument);
}

TEST(Patterns, ImpossibleInputYieldsNoPatterns) {
  // An input with an all-zero support (invalid distribution) cannot occur;
  // the enumeration returns no scenarios rather than fabricating weights.
  std::vector<FourValueProbs> inputs{FourValueProbs{0.0, 0.0, 0.0, 0.0},
                                     FourValueProbs{0.25, 0.25, 0.25, 0.25}};
  EXPECT_TRUE(enumerate_switch_patterns(GateType::And, inputs).empty());
}

// ---------------------------------------------------------------------------
// Template replay vs the direct enumeration it replaced.
//
// reference_enumerate is the accumulate-by-key walker the template table
// replaced, kept here as the oracle: a depth-first walk over each input's
// nonzero four-values in (0, 1, R, F) order with prefix products, `+=` into
// a per-key accumulator at every transitioning leaf, keys emitted in
// ascending (switching, rising, output_rising) order. The output rule goes
// through eval_gate at every leaf, independent of the family shortcuts.

SettleOp reference_op(GateType type, const SwitchPattern& p) {
  const bool all_rising = p.rising_mask == p.switching_mask;
  const bool all_falling = p.rising_mask == 0;
  if (!(all_rising || all_falling) || !netlist::has_controlling_value(type)) {
    return SettleOp::Max;
  }
  return all_rising == netlist::controlling_value(type) ? SettleOp::Min : SettleOp::Max;
}

std::vector<SwitchPattern> reference_enumerate(GateType type,
                                               std::span<const FourValueProbs> inputs) {
  using netlist::FourValue;
  const std::size_t n = inputs.size();
  if (n > 16) {
    throw std::invalid_argument("enumerate_switch_patterns: fanin > 16 unsupported");
  }
  if (type == GateType::Const0 || type == GateType::Const1) return {};
  constexpr FourValue kValues[4] = {FourValue::Zero, FourValue::One, FourValue::Rise,
                                    FourValue::Fall};
  std::vector<std::vector<std::pair<FourValue, double>>> support(n);
  std::size_t combos = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (FourValue v : kValues) {
      if (inputs[i].prob(v) > 0.0) support[i].emplace_back(v, inputs[i].prob(v));
    }
    if (support[i].empty()) return {};
    if (combos > (std::size_t{1} << 26) / support[i].size()) {
      throw std::invalid_argument(
          "enumerate_switch_patterns: joint input support exceeds 2^26 "
          "assignments; reduce fanin or prune input probabilities");
    }
    combos *= support[i].size();
  }

  std::map<std::tuple<std::uint32_t, std::uint32_t, bool>, double> acc;
  std::vector<FourValue> assignment(n);
  const auto walk = [&](const auto& self, std::size_t i, double weight) -> void {
    if (i == n) {
      std::array<bool, 16> vi{}, vf{};
      std::uint32_t switching = 0, rising = 0;
      for (std::size_t j = 0; j < n; ++j) {
        vi[j] = netlist::initial_value(assignment[j]);
        vf[j] = netlist::final_value(assignment[j]);
        if (assignment[j] == FourValue::Rise) rising |= 1u << j;
        if (vi[j] != vf[j]) switching |= 1u << j;
      }
      const bool oi = netlist::eval_gate(type, std::span<const bool>(vi.data(), n));
      const bool of = netlist::eval_gate(type, std::span<const bool>(vf.data(), n));
      if (oi != of) acc[{switching, rising, of}] += weight;
      return;
    }
    for (const auto& [v, p] : support[i]) {
      assignment[i] = v;
      self(self, i + 1, weight * p);
    }
  };
  walk(walk, 0, 1.0);

  std::vector<SwitchPattern> patterns;
  for (const auto& [key, weight] : acc) {
    SwitchPattern p;
    p.weight = weight;
    p.switching_mask = std::get<0>(key);
    p.rising_mask = std::get<1>(key);
    p.output_rising = std::get<2>(key);
    p.op = reference_op(type, p);
    patterns.push_back(p);
  }
  return patterns;
}

void expect_bitwise_equal(const std::vector<SwitchPattern>& got,
                          const std::vector<SwitchPattern>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(std::memcmp(&got[k].weight, &want[k].weight, sizeof(double)), 0)
        << what << " pattern " << k << ": " << got[k].weight << " vs " << want[k].weight;
    EXPECT_EQ(got[k].switching_mask, want[k].switching_mask) << what << " pattern " << k;
    EXPECT_EQ(got[k].rising_mask, want[k].rising_mask) << what << " pattern " << k;
    EXPECT_EQ(got[k].output_rising, want[k].output_rising) << what << " pattern " << k;
    EXPECT_EQ(got[k].op, want[k].op) << what << " pattern " << k;
  }
}

/// Random distribution over a random nonempty support; \p tiny mixes in
/// probabilities of 1e-300 whose products underflow to zero.
FourValueProbs random_input(stats::Xoshiro256& rng, bool tiny) {
  std::array<double, 4> q{};
  while (q[0] + q[1] + q[2] + q[3] == 0.0) {
    for (double& x : q) {
      const double u = rng.uniform();
      x = u < 0.35 ? 0.0 : (tiny && u < 0.5 ? 1e-300 : rng.uniform());
    }
  }
  return {q[0], q[1], q[2], q[3]};
}

constexpr GateType kMultiInputTypes[] = {GateType::And, GateType::Nand, GateType::Or,
                                         GateType::Nor, GateType::Xor,  GateType::Xnor};

std::size_t joint_support(std::span<const FourValueProbs> inputs) {
  std::size_t combos = 1;
  for (const FourValueProbs& p : inputs) {
    combos *= (p.p0 > 0.0) + (p.p1 > 0.0) + (p.pr > 0.0) + (p.pf > 0.0);
  }
  return combos;
}

TEST(PatternTemplates, ReplayIsBitwiseEqualToReferenceEnumeration) {
  stats::Xoshiro256 rng(20261017);
  std::vector<SwitchPattern> scratch;  // reused across calls, as the engines do
  const auto check = [&](GateType type, const std::vector<FourValueProbs>& inputs,
                         const std::string& what) {
    enumerate_switch_patterns(type, inputs, scratch);
    expect_bitwise_equal(scratch, reference_enumerate(type, inputs), what);
    expect_bitwise_equal(enumerate_switch_patterns(type, inputs),
                         reference_enumerate(type, inputs), what + " (vector)");
  };
  for (const bool tiny : {false, true}) {
    for (std::size_t fanin = 1; fanin <= 12; ++fanin) {
      for (const GateType type : kMultiInputTypes) {
        for (int trial = 0; trial < 6; ++trial) {
          std::vector<FourValueProbs> inputs(fanin);
          do {
            for (auto& p : inputs) p = random_input(rng, tiny);
          } while (joint_support(inputs) > (std::size_t{1} << 15));
          check(type, inputs,
                std::string(netlist::to_string(type)) + " fanin " + std::to_string(fanin) +
                    (tiny ? " tiny" : ""));
        }
      }
    }
    // Buf/Not follow input 0 at any fanin; Const0/Const1 have no scenarios.
    for (const GateType type :
         {GateType::Buf, GateType::Not, GateType::Const0, GateType::Const1}) {
      for (std::size_t fanin = 1; fanin <= 3; ++fanin) {
        std::vector<FourValueProbs> inputs(fanin);
        for (auto& p : inputs) p = random_input(rng, tiny);
        check(type, inputs, std::string(netlist::to_string(type)));
      }
    }
  }
}

TEST(PatternTemplates, UnderflowedWeightsSurviveAsZero) {
  // Three inputs at 1e-300 switching: the product underflows to +0.0, and
  // the scenario is kept with that weight, exactly like the direct walk.
  const FourValueProbs tiny{0.5, 0.5 - 1e-300, 1e-300, 0.0};
  const std::vector<FourValueProbs> inputs{tiny, tiny, tiny};
  const auto patterns = enumerate_switch_patterns(GateType::And, inputs);
  expect_bitwise_equal(patterns, reference_enumerate(GateType::And, inputs), "underflow");
  const auto all_rise = std::find_if(patterns.begin(), patterns.end(), [](const auto& p) {
    return p.switching_mask == 0b111u && p.rising_mask == 0b111u;
  });
  ASSERT_NE(all_rise, patterns.end());
  EXPECT_EQ(all_rise->weight, 0.0);
}

TEST(PatternTemplates, EmptySupportAndThrowsMatchReference) {
  const FourValueProbs full{0.25, 0.25, 0.25, 0.25};
  const FourValueProbs empty{0.0, 0.0, 0.0, 0.0};
  for (const GateType type : kMultiInputTypes) {
    const std::vector<FourValueProbs> inputs{full, empty, full};
    EXPECT_TRUE(enumerate_switch_patterns(type, inputs).empty());
    EXPECT_TRUE(reference_enumerate(type, inputs).empty());
  }
  const auto message = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  const std::vector<FourValueProbs> wide(17, full);
  const std::vector<FourValueProbs> dense(14, full);
  for (const auto* inputs : {&wide, &dense}) {
    const std::string got =
        message([&] { (void)enumerate_switch_patterns(GateType::Nand, *inputs); });
    EXPECT_NE(got, "(no throw)");
    EXPECT_EQ(got, message([&] { (void)reference_enumerate(GateType::Nand, *inputs); }));
  }
}

TEST(PatternTemplates, OneSignatureReplaysAnyProbabilities) {
  // Same support masks, fresh probabilities each time: after the first
  // call every lookup is a hit, and every replay matches the reference.
  stats::Xoshiro256 rng(7);
  const PatternTableStats before = pattern_table_stats();
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<FourValueProbs> inputs(5);
    for (auto& p : inputs) {
      p = FourValueProbs{rng.uniform() + 0.01, rng.uniform() + 0.01, 0.0,
                         rng.uniform() + 0.01};
    }
    inputs[2].pr = trial % 2 == 0 ? 1e-300 : rng.uniform() + 0.01;  // still > 0
    expect_bitwise_equal(enumerate_switch_patterns(GateType::Xnor, inputs),
                         reference_enumerate(GateType::Xnor, inputs),
                         "trial " + std::to_string(trial));
  }
  const PatternTableStats after = pattern_table_stats();
  EXPECT_GE(after.hits - before.hits, 19u);
  EXPECT_LE(after.misses - before.misses, 1u);
}

TEST(PatternTemplates, TableStaysInBudgetAndStaysExactPastIt) {
  // 3-value support on all 12 inputs: 3^12 = 531441 leaves, about 2 MiB
  // per template, so 24 distinct signatures (which value each input
  // lacks) overflow the budget. Every result stays exact regardless.
  constexpr std::size_t kTemplateBytes = 531441 * sizeof(std::uint32_t);
  constexpr std::size_t kSignatures = kPatternTableBudgetBytes / kTemplateBytes + 8;
  const PatternTableStats before = pattern_table_stats();
  stats::Xoshiro256 rng(99);
  std::vector<SwitchPattern> out;
  for (std::size_t s = 0; s < kSignatures; ++s) {
    std::vector<FourValueProbs> inputs(12);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::array<double, 4> q{rng.uniform() + 0.01, rng.uniform() + 0.01,
                              rng.uniform() + 0.01, rng.uniform() + 0.01};
      q[(s >> (2 * (i % 6))) & 3u] = 0.0;  // distinct masks for s < 4^6
      inputs[i] = {q[0], q[1], q[2], q[3]};
    }
    enumerate_switch_patterns(GateType::Or, inputs, out);
    expect_bitwise_equal(out, reference_enumerate(GateType::Or, inputs),
                         "signature " + std::to_string(s));
    EXPECT_LE(pattern_table_stats().bytes, kPatternTableBudgetBytes);
  }
  const PatternTableStats after = pattern_table_stats();
  EXPECT_EQ(after.misses - before.misses, kSignatures);
  EXPECT_GT(after.unstored, before.unstored);
  EXPECT_LE(after.bytes, kPatternTableBudgetBytes);
}

}  // namespace
}  // namespace spsta::core

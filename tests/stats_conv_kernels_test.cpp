// Tests for the fast numeric kernel layer (DESIGN.md §12, §16): FFT vs
// direct convolution agreement through the batched `conv_execute` entry
// point, discretized delay kernels, precomputed kernel spectra,
// batched-vs-single and SIMD-vs-scalar bit-identity, edge-fold mass
// accounting, the crossover knob, and workspace reuse (the allocation
// probe behind the "zero steady-state allocation" contract).

#include "stats/conv_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "stats/piecewise.hpp"
#include "stats/rng.hpp"
#include "stats/simd.hpp"
#include "stats/workspace.hpp"

namespace spsta::stats {
namespace {

/// Textbook O(n^2) reference convolution (scale folded in).
std::vector<double> naive_conv(const std::vector<double>& a,
                               const std::vector<double>& b, double scale) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += scale * a[i] * b[j];
    }
  }
  return out;
}

std::vector<double> random_density(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform();
  return v;
}

double linf(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

/// Single-column Dense convolution through the v2 entry point.
void conv_dense(std::span<const double> a, std::span<const double> b,
                double scale, std::span<double> out, Workspace& ws) {
  ConvExec ex;
  ex.form = ConvExec::Form::Dense;
  ex.cols = 1;
  ex.src[0] = a;
  ex.dense = b;
  ex.scale = scale;
  ex.dst[0] = out;
  ex.ws = &ws;
  conv_execute(ex);
}

/// Single-column Delay application through the v2 entry point.
void apply_delay(std::span<const double> in, const DelayKernel& k,
                 std::span<double> out, Workspace& ws) {
  ConvExec ex;
  ex.cols = 1;
  ex.src[0] = in;
  ex.kernel[0] = &k;
  ex.dst[0] = out;
  ex.ws = &ws;
  conv_execute(ex);
}

/// RAII crossover override so a failing assertion can't leak a knob
/// setting into later tests.
struct CrossoverGuard {
  explicit CrossoverGuard(std::size_t points) { set_conv_crossover(points); }
  ~CrossoverGuard() { set_conv_crossover(0); }
};

/// RAII scalar-tier override (restores auto-detection on exit).
struct ScalarGuard {
  ScalarGuard() { simd::set_force_scalar(true); }
  ~ScalarGuard() { simd::set_force_scalar(false); }
};

TEST(ConvKernels, SelectionIsPureFunctionOfSizes) {
  const CrossoverGuard guard(100);
  EXPECT_EQ(select_conv_kernel(64, 64), ConvKernelChoice::Fft);
  EXPECT_EQ(select_conv_kernel(40, 40), ConvKernelChoice::Direct);  // 79 < 100
  // A short FIR against a long signal stays direct regardless of length.
  EXPECT_EQ(select_conv_kernel(100000, kMinFftOperand - 1), ConvKernelChoice::Direct);
  EXPECT_EQ(select_conv_kernel(0, 64), ConvKernelChoice::Direct);
}

TEST(ConvKernels, CrossoverKnobRestoresDefault) {
  const std::size_t before = conv_crossover();
  set_conv_crossover(7);
  EXPECT_EQ(conv_crossover(), 7u);
  set_conv_crossover(0);
  EXPECT_EQ(conv_crossover(), before);
}

TEST(ConvKernels, FftMatchesDirectAcrossSizes) {
  // Odd, even, prime, and power-of-two operand sizes; mixed shapes.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {17, 17}, {127, 128}, {129, 64}, {251, 251}, {509, 33}, {1024, 1024}};
  Workspace& ws = Workspace::local();
  for (const auto& [na, nb] : shapes) {
    const std::vector<double> a = random_density(na, 11 * na + nb);
    const std::vector<double> b = random_density(nb, 13 * nb + na);
    const std::vector<double> ref = naive_conv(a, b, 0.05);

    std::vector<double> fft_out(na + nb - 1, -1.0);
    {
      const CrossoverGuard force_fft(1);
      conv_dense(a, b, 0.05, fft_out, ws);
    }
    std::vector<double> direct_out(na + nb - 1, -1.0);
    {
      const CrossoverGuard force_direct(1u << 30);
      conv_dense(a, b, 0.05, direct_out, ws);
    }
    EXPECT_LE(linf(fft_out, ref), 1e-9) << na << "x" << nb;
    EXPECT_LE(linf(direct_out, ref), 1e-12) << na << "x" << nb;
  }
}

TEST(ConvKernels, ZeroDensityConvolvesToZero) {
  Workspace& ws = Workspace::local();
  const std::vector<double> zeros(100, 0.0);
  const std::vector<double> b = random_density(100, 3);
  std::vector<double> out(199, -1.0);
  const CrossoverGuard force_fft(1);
  conv_dense(zeros, b, 1.0, out, ws);
  for (double v : out) EXPECT_EQ(v, 0.0);
}

TEST(ConvKernels, SingleBinActsAsScaledShift) {
  Workspace& ws = Workspace::local();
  const std::vector<double> delta = {2.0};
  const std::vector<double> b = random_density(64, 5);
  std::vector<double> out(64, -1.0);
  conv_dense(delta, b, 0.5, out, ws);
  for (std::size_t j = 0; j < b.size(); ++j) EXPECT_DOUBLE_EQ(out[j], b[j]);
}

TEST(ConvKernels, ExactShiftKernelForDeterministicDelay) {
  const double dt = 0.25;
  const DelayKernel k = make_delay_kernel({1.125, 0.0}, dt);
  ASSERT_TRUE(k.exact_shift);
  EXPECT_EQ(k.shift, 4);           // floor(1.125 / 0.25) = 4
  EXPECT_NEAR(k.frac, 0.5, 1e-12); // 1.125/0.25 - 4 = 0.5

  // Applying it splits each sample between bins shift and shift+1.
  Workspace& ws = Workspace::local();
  const std::vector<double> in = {0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::vector<double> out(in.size(), 0.0);
  apply_delay(in, k, out, ws);
  EXPECT_DOUBLE_EQ(out[5], 0.5);
  EXPECT_DOUBLE_EQ(out[6], 0.5);
  EXPECT_NEAR(std::accumulate(out.begin(), out.end(), 0.0), 1.0, 1e-12);
}

TEST(ConvKernels, SubGridSigmaDegradesToExactShift) {
  // A +-8 sigma window narrower than one step must not alias to a spike.
  const DelayKernel k = make_delay_kernel({1.0, 1e-8}, 0.05);
  EXPECT_TRUE(k.exact_shift);
  EXPECT_EQ(k.shift, 20);
}

TEST(ConvKernels, GaussianKernelMassIsUnit) {
  const DelayKernel k = make_delay_kernel({2.0, 0.04}, 0.01);
  ASSERT_FALSE(k.exact_shift);
  double mass = 0.0;
  for (double t : k.taps) mass += t;
  EXPECT_NEAR(mass, 1.0, 1e-6);  // dt-weighted pdf taps sum to ~1
}

TEST(ConvKernels, ApplyDelayKernelFftMatchesDirect) {
  const DelayKernel k = make_delay_kernel({1.0, 0.01}, 0.01);
  ASSERT_FALSE(k.exact_shift);
  ASSERT_GE(k.size(), kMinFftOperand);
  Workspace& ws = Workspace::local();
  const std::vector<double> in = random_density(400, 17);
  std::vector<double> direct_out(600, 0.0);
  std::vector<double> fft_out(600, 0.0);
  {
    const CrossoverGuard force_direct(1u << 30);
    apply_delay(in, k, direct_out, ws);
  }
  {
    const CrossoverGuard force_fft(1);
    apply_delay(in, k, fft_out, ws);
  }
  EXPECT_LE(linf(fft_out, direct_out), 1e-9);
}

TEST(ConvKernels, PrecomputedSpectrumIsBitIdenticalToOnTheFly) {
  // Cached kernel spectra change cost, never bits: the same application
  // with and without a precomputed spectrum must agree exactly.
  DelayKernel cached = make_delay_kernel({1.0, 0.01}, 0.01);
  const DelayKernel fresh = cached;
  ASSERT_FALSE(cached.exact_shift);
  Workspace& ws = Workspace::local();
  const CrossoverGuard force_fft(1);
  // Odd/prime input lengths exercise padding in the half-size real FFT.
  for (const std::size_t n : {127u, 251u, 400u, 1024u}) {
    const std::vector<double> in = random_density(n, 1000 + n);
    const std::size_t fft_n = delay_fft_size(n, fresh);
    ASSERT_GT(fft_n, 0u);
    precompute_kernel_spectrum(cached, fft_n, ws);
    ASSERT_EQ(cached.spec_n, fft_n);
    std::vector<double> out_fresh(n, 0.0), out_cached(n, 0.0);
    apply_delay(in, fresh, out_fresh, ws);
    apply_delay(in, cached, out_cached, ws);
    EXPECT_EQ(0, std::memcmp(out_fresh.data(), out_cached.data(),
                             n * sizeof(double)))
        << "n=" << n;
  }
}

TEST(ConvKernels, BatchedDelayMatchesSingleColumnBitwise) {
  // A batched call is the same math column by column: results must be
  // bit-identical to individual single-column calls, for 1..kMaxCols
  // columns, odd/prime grid sizes, and mixed per-column kernels.
  Workspace& ws = Workspace::local();
  DelayKernel wide = make_delay_kernel({1.0, 0.01}, 0.01);
  const DelayKernel narrow = make_delay_kernel({0.5, 0.0025}, 0.01);
  const DelayKernel shift = make_delay_kernel({0.25, 0.0}, 0.01);
  const DelayKernel* kernels[] = {&wide, &narrow, &shift, &wide};
  const CrossoverGuard force_fft(1);
  for (const std::size_t n : {127u, 251u, 509u, 1024u}) {
    // Precompute one spectrum to mix cached and on-the-fly columns.
    precompute_kernel_spectrum(wide, delay_fft_size(n, wide), ws);
    for (std::size_t cols = 1; cols <= ConvExec::kMaxCols; ++cols) {
      std::vector<std::vector<double>> src, batched, single;
      for (std::size_t c = 0; c < cols; ++c) {
        src.push_back(random_density(n, 31 * n + c));
        batched.emplace_back(n, 0.0);
        single.emplace_back(n, 0.0);
      }
      ConvExec ex;
      ex.cols = cols;
      ex.ws = &ws;
      for (std::size_t c = 0; c < cols; ++c) {
        ex.src[c] = src[c];
        ex.dst[c] = batched[c];
        ex.kernel[c] = kernels[c];
      }
      conv_execute(ex);
      for (std::size_t c = 0; c < cols; ++c) {
        apply_delay(src[c], *kernels[c], single[c], ws);
      }
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(0, std::memcmp(batched[c].data(), single[c].data(),
                                 n * sizeof(double)))
            << "n=" << n << " cols=" << cols << " c=" << c;
      }
    }
  }
}

TEST(ConvKernels, SimdMatchesScalarBitwise) {
  // The dispatch contract (simd.hpp): every tier computes the identical
  // per-element operation DAG, so results agree bit for bit. On hardware
  // without a vector tier both runs take the scalar path and the test
  // degenerates to (still meaningful) determinism.
  Workspace& ws = Workspace::local();
  const DelayKernel k = make_delay_kernel({1.0, 0.01}, 0.01);
  const CrossoverGuard force_fft(1);
  for (const std::size_t n : {127u, 251u, 400u, 1024u, 4096u}) {
    const std::vector<double> a = random_density(n, 7 * n);
    const std::vector<double> b = random_density(n, 9 * n);
    std::vector<double> dense_simd(2 * n - 1), dense_scalar(2 * n - 1);
    std::vector<double> delay_simd(n, 0.0), delay_scalar(n, 0.0);
    simd::set_force_scalar(false);
    conv_dense(a, b, 0.05, dense_simd, ws);
    apply_delay(a, k, delay_simd, ws);
    {
      const ScalarGuard scalar;
      conv_dense(a, b, 0.05, dense_scalar, ws);
      apply_delay(a, k, delay_scalar, ws);
    }
    EXPECT_EQ(0, std::memcmp(dense_simd.data(), dense_scalar.data(),
                             dense_simd.size() * sizeof(double)))
        << "dense n=" << n;
    EXPECT_EQ(0, std::memcmp(delay_simd.data(), delay_scalar.data(),
                             n * sizeof(double)))
        << "delay n=" << n;
  }
}

TEST(ConvKernels, ForcedScalarDispatchPinsScalarTier) {
  const char* detected = simd::tier_name();
  {
    const ScalarGuard scalar;
    EXPECT_STREQ(simd::tier_name(), "scalar");
    EXPECT_STREQ(simd::ops().name, "scalar");
  }
  // Restored to the auto-detected tier afterwards.
  EXPECT_STREQ(simd::tier_name(), detected);
}

TEST(ConvKernels, ConvExecuteValidatesDescriptors) {
  Workspace& ws = Workspace::local();
  const std::vector<double> a = random_density(8, 1);
  std::vector<double> out(15, 0.0);

  ConvExec no_ws;
  no_ws.cols = 1;
  no_ws.src[0] = a;
  no_ws.dst[0] = out;
  no_ws.kernel[0] = nullptr;
  EXPECT_THROW(conv_execute(no_ws), std::invalid_argument);

  ConvExec no_kernel;
  no_kernel.cols = 1;
  no_kernel.src[0] = a;
  no_kernel.dst[0] = out;
  no_kernel.ws = &ws;
  EXPECT_THROW(conv_execute(no_kernel), std::invalid_argument);

  ConvExec bad_cols;
  bad_cols.form = ConvExec::Form::Dense;
  bad_cols.cols = ConvExec::kMaxCols + 1;
  bad_cols.ws = &ws;
  EXPECT_THROW(conv_execute(bad_cols), std::invalid_argument);

  ConvExec bad_size;
  bad_size.form = ConvExec::Form::Dense;
  bad_size.cols = 1;
  bad_size.src[0] = a;
  bad_size.dense = a;
  bad_size.dst[0] = std::span<double>(out.data(), 14);  // want 15
  bad_size.ws = &ws;
  EXPECT_THROW(conv_execute(bad_size), std::invalid_argument);
}

TEST(ConvKernels, EdgeMassFoldsInsteadOfDropping) {
  // A kernel shifted past the end of a short grid folds into the last bin.
  obs::Counter& clipped = obs::registry().counter("stats.conv.clipped");
  const std::uint64_t before = clipped.value();
  Workspace& ws = Workspace::local();
  const DelayKernel k = make_delay_kernel({5.0, 0.0}, 1.0);  // shift by 5
  const std::vector<double> in = {0.0, 1.0, 1.0, 0.0};
  std::vector<double> out(4, 0.0);
  apply_delay(in, k, out, ws);
  // All mass lands past the grid; conservation folds it into out.back().
  EXPECT_DOUBLE_EQ(out[3], 2.0);
  EXPECT_DOUBLE_EQ(out[0] + out[1] + out[2], 0.0);
  EXPECT_GT(clipped.value(), before);
}

TEST(ConvKernels, PiecewiseConvolveFoldsClippedTail) {
  // Operands sized so the capped output grid (2^16 points) cannot hold the
  // full support: the clipped tail must fold into the last bin, bumping
  // the obs counter, and the product mass must be conserved.
  obs::Counter& clipped = obs::registry().counter("stats.conv.clipped");
  const GridSpec g{0.0, 1.0, 40000};
  std::vector<double> va(g.n, 0.0);
  std::vector<double> vb(g.n, 0.0);
  // Uniform blocks positioned so part of the sum's support passes the cap.
  std::fill(va.begin() + 30000, va.end(), 1e-3);
  std::fill(vb.begin() + 30000, vb.end(), 1e-3);
  const PiecewiseDensity a(g, std::move(va));
  const PiecewiseDensity b(g, std::move(vb));
  const std::uint64_t before = clipped.value();
  const PiecewiseDensity c = PiecewiseDensity::convolve(a, b);
  EXPECT_GT(clipped.value(), before);
  EXPECT_EQ(c.grid().n, std::size_t{1} << 16);
  // Sample-sum conservation (the fold is in sample units): sum(c) ==
  // dt * sum(a) * sum(b) up to round-off.
  double sc = 0.0;
  for (double v : c.values()) sc += v;
  EXPECT_NEAR(sc, 1e-3 * 10000 * 1e-3 * 10000, 1e-9);
}

TEST(ConvKernels, WorkspaceWarmRunsDoNotGrow) {
  Workspace& ws = Workspace::local();
  const std::vector<double> a = random_density(777, 23);
  const std::vector<double> b = random_density(500, 29);
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  const CrossoverGuard force_fft(1);
  conv_dense(a, b, 1.0, out, ws);  // warm-up: may grow buffers + plan
  const std::uint64_t grows_after_warm = ws.grows();
  for (int rep = 0; rep < 5; ++rep) conv_dense(a, b, 1.0, out, ws);
  EXPECT_EQ(ws.grows(), grows_after_warm);  // steady state allocates nothing
  EXPECT_GT(ws.reuses(), 0u);
}

TEST(ConvKernels, WarmDelayPathDoesNotGrow) {
  // The half-size real-FFT path (work lanes, half-spectra, staging) must
  // also reach zero steady-state allocation after one warm call.
  Workspace& ws = Workspace::local();
  const DelayKernel k = make_delay_kernel({1.0, 0.01}, 0.01);
  const std::vector<double> in = random_density(400, 31);
  std::vector<double> out(600, 0.0);
  const CrossoverGuard force_fft(1);
  apply_delay(in, k, out, ws);  // warm-up
  const std::uint64_t grows_after_warm = ws.grows();
  for (int rep = 0; rep < 5; ++rep) apply_delay(in, k, out, ws);
  EXPECT_EQ(ws.grows(), grows_after_warm);
  EXPECT_GT(ws.reuses(), 0u);
}

}  // namespace
}  // namespace spsta::stats

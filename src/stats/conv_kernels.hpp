/// \file conv_kernels.hpp
/// The fast numeric kernel layer under the piecewise-density operations
/// (DESIGN.md §12, §16): size-dispatched direct/FFT linear convolution
/// and precomputable discretized gate-delay kernels, behind one
/// span-based batched entry point (`conv_execute`).
///
/// The reference implementation of SUM-with-delay paid an O(n^2) direct
/// convolution (plus fresh heap allocation) per node x pattern — the
/// histogram-propagation cost the grid-based SSTA literature identifies as
/// the scaling bottleneck. This layer keeps the direct loop for small
/// operands and switches to a radix-2 FFT once the operands pass a
/// crossover, with every buffer drawn from a caller-supplied `Workspace`
/// so steady-state convolutions allocate nothing. Delay-kernel
/// applications use a half-size real-input FFT (two real samples per
/// complex lane) and can reuse a kernel half-spectrum precomputed once
/// per (kernel, transform size) — the per-node batching win the v2 API
/// exists for.
///
/// Determinism contract: the kernel choice is a pure function of operand
/// SIZES (never of thread id, timing, or data), and each kernel is a pure
/// function of its inputs — so results are bit-identical at any thread
/// count and across reruns. The batched form runs each column through
/// exactly the single-column math (columns share only the plan and the
/// kernel spectrum, which are themselves value-identical however they are
/// produced), so batched and per-column results are bit-identical; the
/// SIMD tiers are bit-identical to scalar by the contract in simd.hpp.
/// FFT and direct results agree to ~1e-12 L-inf on normalized densities
/// (tests assert <= 1e-9).

#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "stats/gaussian.hpp"

namespace spsta::stats {

class Workspace;

/// Which convolution kernel `select_conv_kernel` picked.
enum class ConvKernelChoice { Direct, Fft };

/// Current direct->FFT crossover: the FFT path engages when the padded
/// output length (na + nb - 1) is at least this AND the smaller operand
/// has at least `kMinFftOperand` points (a short FIR against a long signal
/// is linear-time already and stays direct). The default is calibrated by
/// bench/conv_kernels_bench; `set_conv_crossover()` overrides it.
[[nodiscard]] std::size_t conv_crossover() noexcept;

/// Overrides the crossover at runtime (0 restores the built-in default).
/// Takes effect for subsequent convolutions; intended for benchmarks and
/// tests — not thread-safe against in-flight convolutions.
void set_conv_crossover(std::size_t points) noexcept;

/// Operands smaller than this never take the FFT path.
inline constexpr std::size_t kMinFftOperand = 16;

/// The kernel the layer will use for operand sizes (na, nb) — a pure
/// function of sizes and the crossover knob only.
[[nodiscard]] ConvKernelChoice select_conv_kernel(std::size_t na,
                                                  std::size_t nb) noexcept;

/// A gate delay's impulse response discretized on a fixed grid step `dt`:
/// applying it to a density sampled at grid points maps X to X + delay on
/// the SAME grid. Taps carry the dt quadrature weight, so application is
/// a plain FIR. A (near-)deterministic delay (sigma == 0, or a +-sigmas
/// window narrower than one grid step) is represented as an exact
/// fractional shift instead of a near-delta kernel.
struct DelayKernel {
  bool exact_shift = false;
  std::ptrdiff_t shift = 0;  ///< floor(mean / dt) (exact-shift form)
  double frac = 0.0;         ///< mean/dt - shift, in [0, 1)
  std::ptrdiff_t first = 0;  ///< grid offset of taps[0] relative to the input index
  std::vector<double> taps;  ///< dt * normal_pdf((first + m) * dt; mean, sigma)

  /// Optional precomputed half-spectrum of `taps` at real-FFT size
  /// `spec_n` (a power of two; 0 = none): `spec_re/spec_im[k]` hold
  /// rfft(taps zero-padded to spec_n)[k] for k <= spec_n / 2. Built by
  /// `precompute_kernel_spectrum` with the exact function the on-the-fly
  /// path uses, so cached and fresh spectra are bit-identical — a cached
  /// spectrum changes cost, never results.
  std::size_t spec_n = 0;
  std::vector<double> spec_re;
  std::vector<double> spec_im;

  /// Number of FIR taps (0 for the exact-shift form).
  [[nodiscard]] std::size_t size() const noexcept { return taps.size(); }
};

/// Builds the discretized kernel of \p g on step \p dt, covering
/// mean +- sigmas * stddev. \p dt must be > 0.
[[nodiscard]] DelayKernel make_delay_kernel(const Gaussian& g, double dt,
                                            double sigmas = 8.0);

/// The real-FFT transform size the delay path uses for input length
/// \p n_in against \p k (the smallest power of two covering the full
/// linear-convolution length). 0 when the pair would not take the FFT
/// path (exact shift, or sizes below the crossover).
[[nodiscard]] std::size_t delay_fft_size(std::size_t n_in,
                                         const DelayKernel& k) noexcept;

/// Precomputes `k`'s half-spectrum for real-FFT size \p fft_n (power of
/// two >= 2 * kMinFftOperand), so subsequent `conv_execute` calls at that
/// size skip the kernel transform. No-op for exact-shift kernels. \p ws
/// supplies the plan and scratch; the stored spectrum is independent of
/// which workspace built it.
void precompute_kernel_spectrum(DelayKernel& k, std::size_t fft_n,
                                Workspace& ws);

/// One batched convolution request: up to `kMaxCols` source columns on a
/// shared grid, transformed by one rule, written into per-column
/// destinations. The two forms:
///
///  * `Dense` — dst[c] = scale * (src[c] (*) dense), overwriting dst[c],
///    which must have size src[c].size() + dense.size() - 1. Negative
///    round-off from the FFT path is clamped to 0 so densities stay
///    non-negative. (The PiecewiseDensity::convolve operator.)
///
///  * `Delay` — dst[c] += src[c] applied through *kernel[c] on the same
///    grid (dst[c].size() may differ from src[c].size()). Contributions
///    past either end of dst fold into the nearest edge bin — mass is
///    never silently dropped — and each fold bumps the obs counter
///    `stats.conv.clipped`. (The SUM-with-delay operator.)
///
/// Columns are independent: a batched call is bit-identical to `cols`
/// single-column calls, column by column. All-zero source columns are
/// skipped (Delay) or zero-filled (Dense) exactly. The workspace is
/// borrowed for the duration of the call per the contract in
/// workspace.hpp.
struct ConvExec {
  static constexpr std::size_t kMaxCols = 4;
  enum class Form { Dense, Delay };

  Form form = Form::Delay;
  std::size_t cols = 0;
  std::array<std::span<const double>, kMaxCols> src{};
  std::array<std::span<double>, kMaxCols> dst{};
  std::span<const double> dense{};                      ///< Dense second operand
  std::array<const DelayKernel*, kMaxCols> kernel{};    ///< Delay per-column kernels
  double scale = 1.0;                                   ///< Dense only
  Workspace* ws = nullptr;
};

/// Executes one descriptor. Throws std::invalid_argument on a malformed
/// descriptor (no workspace, cols out of range, size mismatches, missing
/// kernel/dense operand).
void conv_execute(const ConvExec& ex);

}  // namespace spsta::stats

/// \file workspace.hpp
/// Per-thread scratch arena for the numeric kernel layer.
///
/// The level-parallel numeric engine evaluates thousands of gates per run,
/// and every evaluation needs a handful of grid-length buffers (scenario
/// folds, CDF products, convolution spectra). Allocating them per node is
/// exactly the steady-state churn DESIGN.md §12 forbids, so each worker
/// thread owns one `Workspace`: a set of grow-only double buffers plus a
/// cache of FFT plans (bit-reversal permutation + twiddle tables) keyed by
/// transform size. After the first node of a run warms the arena, the
/// level loop performs zero heap allocations.
///
/// Ownership and threading contract (kernel API v2): a `Workspace` is
/// owned by exactly one thread at a time and is NOT internally
/// synchronized — callers pass `Workspace&` explicitly down the kernel
/// call chain (`conv_execute`, the engine fold loops) so no inner loop
/// pays a thread_local lookup. `Workspace::local()` returns the calling
/// thread's arena for casual callers and as the default of the
/// convenience overloads; engines resolve it once per task and thread the
/// reference through. Two threads must never share one workspace
/// concurrently; handing a workspace off between tasks on the same thread
/// is free (every buffer is fully overwritten before use).
///
/// Determinism: a workspace is pure scratch — every buffer is fully
/// overwritten before use, and plans are value-identical for equal sizes —
/// so which thread's arena serves a node can never change a result bit.
/// Growth/reuse totals are mirrored to the obs counters
/// `stats.workspace.grow` / `stats.workspace.reuse` (the allocation probe
/// tests assert the grow counter stays flat across warm runs).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace spsta::stats {

class Workspace {
 public:
  /// General-purpose scratch slots available to callers. The convolution
  /// kernels use private FFT buffers (below), never these, so an engine
  /// may hold any slot across a conv_* call.
  static constexpr std::size_t kSlots = 8;

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (thread-local; created on first use and
  /// kept for the thread's lifetime, so repeated runs from one calling
  /// thread, or waves on an incremental engine's pool, reuse warm buffers;
  /// a run's own pool workers start cold). Resolve once per task, then
  /// pass the reference down — see the threading contract above.
  [[nodiscard]] static Workspace& local();

  /// Scratch buffer for \p slot, sized to exactly \p n doubles. Contents
  /// are unspecified — callers overwrite. Capacity only grows.
  [[nodiscard]] std::span<double> scratch(std::size_t slot, std::size_t n);

  /// Iterative radix-2 FFT plan for power-of-two size \p n: bit-reversal
  /// permutation, forward twiddles exp(-2*pi*i*k/n), and two derived
  /// tables the v2 kernels read:
  ///   * per-stage unit-stride twiddles (bitwise copies of the master
  ///     table at each stage's stride), so the SIMD butterflies load
  ///     contiguously instead of gathering, and
  ///   * double-size twiddles w_{2n}^k for k <= n, the pack/unpack phase
  ///     factors of the half-size real-input FFT driver (`conv_execute`'s
  ///     delay path runs a size-n complex FFT to transform 2n real
  ///     samples).
  struct FftPlan {
    std::size_t n = 0;
    std::vector<std::uint32_t> bitrev;
    std::vector<double> wre;  ///< cos(-2*pi*k/n), k < n/2
    std::vector<double> wim;  ///< sin(-2*pi*k/n), k < n/2
    /// Stage s (butterfly length 2^(s+1)) occupies
    /// [stage_offset(s), stage_offset(s) + 2^s): stage_wre[off + k] is a
    /// bitwise copy of wre[k * (n >> (s+1))], so the stage-table FFT is
    /// bit-identical to the strided master-table FFT.
    std::vector<double> stage_wre;  ///< total n - 1 entries
    std::vector<double> stage_wim;
    std::vector<double> half_wre;  ///< cos(-pi*k/n), k <= n
    std::vector<double> half_wim;  ///< sin(-pi*k/n), k <= n

    [[nodiscard]] static constexpr std::size_t stage_offset(std::size_t s) noexcept {
      return (std::size_t{1} << s) - 1;
    }
  };

  /// Cached plan for size \p n (must be a power of two >= 2).
  [[nodiscard]] const FftPlan& fft_plan(std::size_t n);

  /// Private FFT work buffers (real/imag lanes), sized to \p n. The first
  /// pair holds packed complex lanes, the second half-spectra; both are
  /// owned by `conv_execute` for the duration of one call.
  [[nodiscard]] std::span<double> fft_re(std::size_t n);
  [[nodiscard]] std::span<double> fft_im(std::size_t n);
  [[nodiscard]] std::span<double> fft_re2(std::size_t n);
  [[nodiscard]] std::span<double> fft_im2(std::size_t n);
  /// Private staging for an on-the-fly kernel half-spectrum (used when a
  /// `DelayKernel` carries no precomputed spectrum for the call's size).
  [[nodiscard]] std::span<double> spec_re(std::size_t n);
  [[nodiscard]] std::span<double> spec_im(std::size_t n);
  /// Private staging buffer for full-length convolution results.
  [[nodiscard]] std::span<double> conv_tmp(std::size_t n);

  /// Buffer requests served without growing (warm hits).
  [[nodiscard]] std::uint64_t reuses() const noexcept { return reuses_; }
  /// Buffer requests that had to grow a slot (cold misses).
  [[nodiscard]] std::uint64_t grows() const noexcept { return grows_; }

 private:
  [[nodiscard]] std::span<double> sized(std::vector<double>& buf, std::size_t n);

  std::array<std::vector<double>, kSlots> slots_;
  std::vector<double> fft_re_;
  std::vector<double> fft_im_;
  std::vector<double> fft_re2_;
  std::vector<double> fft_im2_;
  std::vector<double> spec_re_;
  std::vector<double> spec_im_;
  std::vector<double> conv_tmp_;
  std::vector<std::unique_ptr<FftPlan>> plans_;  ///< indexed by log2(n)
  std::uint64_t reuses_ = 0;
  std::uint64_t grows_ = 0;
};

}  // namespace spsta::stats

#include "stats/conv_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "stats/normal.hpp"
#include "stats/simd.hpp"
#include "stats/workspace.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SPSTA_RESTRICT __restrict__
#else
#define SPSTA_RESTRICT
#endif

namespace spsta::stats {

namespace {

/// Default direct->FFT crossover on the padded output length, measured by
/// bench/conv_kernels_bench on the CI-class hardware this repo targets
/// (see DESIGN.md §12): at 512 output points the radix-2 FFT already beats
/// the direct loop ~1.7x (8us vs 14us) and the gap widens monotonically;
/// below ~256 the direct loop's cache friendliness wins.
constexpr std::size_t kDefaultCrossover = 512;

std::atomic<std::size_t>& crossover_override() noexcept {
  static std::atomic<std::size_t> v{0};  // 0 = use the default
  return v;
}

obs::Counter& fft_counter() {
  static obs::Counter& c = obs::registry().counter("stats.conv.fft");
  return c;
}
obs::Counter& direct_counter() {
  static obs::Counter& c = obs::registry().counter("stats.conv.direct");
  return c;
}
obs::Counter& shift_counter() {
  static obs::Counter& c = obs::registry().counter("stats.conv.shift");
  return c;
}
obs::Counter& clip_counter() {
  static obs::Counter& c = obs::registry().counter("stats.conv.clipped");
  return c;
}

/// Iterative radix-2 Cooley-Tukey on split re/im lanes. Stage twiddles
/// come from the plan's unit-stride per-stage tables (bitwise copies of
/// the master table, so results match the legacy strided walk exactly);
/// the butterflies go through the dispatched SIMD tier. No output
/// scaling — callers of the inverse fold 1/N into their final write.
void fft_inplace(const Workspace::FftPlan& p, double* SPSTA_RESTRICT re,
                 double* SPSTA_RESTRICT im, bool inverse) {
  const simd::Ops& v = simd::ops();
  const std::size_t n = p.n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = p.bitrev[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  const double sign = inverse ? -1.0 : 1.0;
  std::size_t s = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++s) {
    const std::size_t half = len >> 1;
    const double* wr = p.stage_wre.data() + Workspace::FftPlan::stage_offset(s);
    const double* wi = p.stage_wim.data() + Workspace::FftPlan::stage_offset(s);
    for (std::size_t start = 0; start < n; start += len) {
      v.butterfly(re + start, im + start, re + start + half, im + start + half,
                  wr, wi, sign, half);
    }
  }
}

/// Half-spectrum of real \p x zero-padded to size 2M (M = plan.n):
/// writes X[k] = DFT_{2M}(x)[k] for k = 0..M into (xr, xi), computing one
/// size-M complex FFT of the even/odd pack z[j] = x[2j] + i*x[2j+1] and
/// recombining with the plan's double-size twiddles. (zre, zim) are
/// length-M work lanes; (xr, xi) are length M+1 and must not alias them.
void rfft_forward(std::span<const double> x, const Workspace::FftPlan& plan,
                  double* SPSTA_RESTRICT zre, double* SPSTA_RESTRICT zim,
                  double* SPSTA_RESTRICT xr, double* SPSTA_RESTRICT xi) {
  const std::size_t m = plan.n;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t e = 2 * j;
    zre[j] = e < x.size() ? x[e] : 0.0;
    zim[j] = e + 1 < x.size() ? x[e + 1] : 0.0;
  }
  fft_inplace(plan, zre, zim, /*inverse=*/false);
  const std::size_t mask = m - 1;
  for (std::size_t k = 0; k <= m; ++k) {
    const std::size_t ka = k & mask;
    const std::size_t kb = (m - k) & mask;
    const double ar = zre[ka], ai = zim[ka];
    const double br = zre[kb], bi = -zim[kb];
    // Even/odd sample spectra: Ze = (Z(k) + conj(Z(M-k)))/2,
    // Zo = -i * (Z(k) - conj(Z(M-k)))/2; X(k) = Ze + w_{2M}^k * Zo.
    const double zer = 0.5 * (ar + br), zei = 0.5 * (ai + bi);
    const double zor = 0.5 * (ai - bi), zoi = -0.5 * (ar - br);
    const double wr = plan.half_wre[k], wi = plan.half_wim[k];
    xr[k] = zer + (wr * zor - wi * zoi);
    xi[k] = zei + (wr * zoi + wi * zor);
  }
}

/// Inverse of `rfft_forward`: consumes the half-spectrum (yr, yi) of
/// length M+1 and leaves the 2M real samples interleaved in (zre, zim) —
/// sample 2j in zre[j], sample 2j+1 in zim[j] — scaled by M (the caller
/// folds 1/M into its final write, like the dense path folds 1/N).
void rfft_inverse(const Workspace::FftPlan& plan, const double* SPSTA_RESTRICT yr,
                  const double* SPSTA_RESTRICT yi, double* SPSTA_RESTRICT zre,
                  double* SPSTA_RESTRICT zim) {
  const std::size_t m = plan.n;
  for (std::size_t k = 0; k < m; ++k) {
    const double ar = yr[k], ai = yi[k];
    const double br = yr[m - k], bi = -yi[m - k];
    const double yer = 0.5 * (ar + br), yei = 0.5 * (ai + bi);
    const double dr = 0.5 * (ar - br), di = 0.5 * (ai - bi);
    const double wr = plan.half_wre[k], wi = plan.half_wim[k];
    // Zo = w_{2M}^{-k} * (Y(k) - conj(Y(M-k)))/2; pack Z' = Ze + i*Zo.
    const double yor = dr * wr + di * wi;
    const double yoi = di * wr - dr * wi;
    zre[k] = yer - yoi;
    zim[k] = yei + yor;
  }
  fft_inplace(plan, zre, zim, /*inverse=*/true);
}

/// FFT linear convolution with the real-pack trick: one forward transform
/// of z = a + i*b yields both spectra (A(k) = (Z(k) + conj(Z(N-k)))/2,
/// B(k) = (Z(k) - conj(Z(N-k)))/(2i)); their product inverts to the
/// convolution in the real lane. (The dense form's two operands are both
/// fresh per call, so the pack trick — not the half-size rfft — is the
/// cheapest transform count here.)
void conv_fft(std::span<const double> a, std::span<const double> b, double scale,
              std::span<double> out, Workspace& ws) {
  const std::size_t len = a.size() + b.size() - 1;
  const std::size_t n = std::bit_ceil(len);
  const Workspace::FftPlan& plan = ws.fft_plan(n);
  const std::span<double> re = ws.fft_re(n);
  const std::span<double> im = ws.fft_im(n);
  std::copy(a.begin(), a.end(), re.begin());
  std::fill(re.begin() + static_cast<std::ptrdiff_t>(a.size()), re.end(), 0.0);
  std::copy(b.begin(), b.end(), im.begin());
  std::fill(im.begin() + static_cast<std::ptrdiff_t>(b.size()), im.end(), 0.0);

  fft_inplace(plan, re.data(), im.data(), /*inverse=*/false);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const std::size_t k2 = (n - k) & (n - 1);
    const double zr1 = re[k], zi1 = im[k];
    const double zr2 = re[k2], zi2 = im[k2];
    const double ar = 0.5 * (zr1 + zr2), ai = 0.5 * (zi1 - zi2);
    const double br = 0.5 * (zi1 + zi2), bi = 0.5 * (zr2 - zr1);
    const double cr = ar * br - ai * bi;
    const double ci = ar * bi + ai * br;
    re[k] = cr;
    im[k] = ci;
    re[k2] = cr;
    im[k2] = -ci;
  }
  fft_inplace(plan, re.data(), im.data(), /*inverse=*/true);

  const double norm = scale / static_cast<double>(n);
  for (std::size_t k = 0; k < len; ++k) {
    // Round-off can leave tiny negative values; densities stay >= 0.
    out[k] = std::max(0.0, re[k] * norm);
  }
}

void conv_direct(std::span<const double> a, std::span<const double> b, double scale,
                 std::span<double> out) {
  const simd::Ops& v = simd::ops();
  std::fill(out.begin(), out.end(), 0.0);
  const double* SPSTA_RESTRICT bp = b.data();
  const std::size_t nb = b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double w = scale * a[i];
    if (w == 0.0) continue;
    v.axpy(bp, w, out.data() + i, nb);
  }
}

[[nodiscard]] bool all_zero(std::span<const double> v) noexcept {
  return std::all_of(v.begin(), v.end(), [](double x) { return x == 0.0; });
}

/// out[i + offset] += w * in[i], folding out-of-range contributions into
/// the nearest edge bin. Returns the folded mass (in density-value units).
double axpy_shifted(std::span<const double> in, double w, std::ptrdiff_t offset,
                    std::span<double> out) {
  if (w == 0.0) return 0.0;
  const auto n_in = static_cast<std::ptrdiff_t>(in.size());
  const auto n_out = static_cast<std::ptrdiff_t>(out.size());
  const std::ptrdiff_t i_lo = std::clamp<std::ptrdiff_t>(-offset, 0, n_in);
  const std::ptrdiff_t i_hi = std::clamp<std::ptrdiff_t>(n_out - offset, i_lo, n_in);
  double folded = 0.0;
  double head = 0.0, tail = 0.0;
  for (std::ptrdiff_t i = 0; i < i_lo; ++i) head += in[static_cast<std::size_t>(i)];
  for (std::ptrdiff_t i = i_hi; i < n_in; ++i) tail += in[static_cast<std::size_t>(i)];
  if (head != 0.0) {
    out[0] += w * head;
    folded += w * head;
  }
  if (tail != 0.0) {
    out[out.size() - 1] += w * tail;
    folded += w * tail;
  }
  simd::ops().axpy(in.data() + i_lo, w, out.data() + offset + i_lo,
                   static_cast<std::size_t>(i_hi - i_lo));
  return folded;
}

/// SUM-with-delay via the half-size real FFT: forward-transform the
/// input, multiply by the kernel's half-spectrum (precomputed when the
/// kernel carries one for this size, else computed here with the very
/// same function — bit-identical either way), invert, clamp round-off
/// negatives, and edge-fold into `out` at the kernel's grid offset.
/// `spec_cache` carries the last on-the-fly spectrum across the columns
/// of one batched call so a repeated kernel transforms once.
struct SpectrumCache {
  const DelayKernel* kernel = nullptr;
  std::size_t fft_n = 0;
};

double conv_delay_fft(std::span<const double> in, const DelayKernel& k,
                      std::span<double> out, Workspace& ws,
                      SpectrumCache& spec_cache) {
  const std::size_t full = in.size() + k.taps.size() - 1;
  const std::size_t n = std::bit_ceil(full);
  const std::size_t m = n / 2;
  const Workspace::FftPlan& plan = ws.fft_plan(m);
  const std::span<double> zre = ws.fft_re(m);
  const std::span<double> zim = ws.fft_im(m);
  const std::span<double> xr = ws.fft_re2(m + 1);
  const std::span<double> xi = ws.fft_im2(m + 1);

  const double* hr;
  const double* hi;
  if (k.spec_n == n) {
    hr = k.spec_re.data();
    hi = k.spec_im.data();
  } else {
    const std::span<double> sr = ws.spec_re(m + 1);
    const std::span<double> si = ws.spec_im(m + 1);
    if (spec_cache.kernel != &k || spec_cache.fft_n != n) {
      rfft_forward(k.taps, plan, zre.data(), zim.data(), sr.data(), si.data());
      spec_cache.kernel = &k;
      spec_cache.fft_n = n;
    }
    hr = sr.data();
    hi = si.data();
  }

  rfft_forward(in, plan, zre.data(), zim.data(), xr.data(), xi.data());
  for (std::size_t q = 0; q <= m; ++q) {
    const double a = xr[q], b = xi[q];
    xr[q] = a * hr[q] - b * hi[q];
    xi[q] = a * hi[q] + b * hr[q];
  }
  rfft_inverse(plan, xr.data(), xi.data(), zre.data(), zim.data());

  const double norm = 1.0 / static_cast<double>(m);
  const std::span<double> tmp = ws.conv_tmp(full);
  for (std::size_t j = 0; j < full; ++j) {
    const double v = (j & 1u) ? zim[j >> 1] : zre[j >> 1];
    // Round-off can leave tiny negative values; densities stay >= 0.
    tmp[j] = std::max(0.0, v * norm);
  }
  return axpy_shifted(tmp, 1.0, k.first, out);
}

/// One Delay column: exact shift / FFT / direct, per the size dispatch.
/// Returns the edge-folded mass.
double apply_delay_column(std::span<const double> in, const DelayKernel& k,
                          std::span<double> out, Workspace& ws,
                          SpectrumCache& spec_cache) {
  double folded = 0.0;
  if (k.exact_shift) {
    shift_counter().add();
    folded += axpy_shifted(in, 1.0 - k.frac, k.shift, out);
    if (k.frac != 0.0) folded += axpy_shifted(in, k.frac, k.shift + 1, out);
  } else if (select_conv_kernel(in.size(), k.taps.size()) == ConvKernelChoice::Fft) {
    fft_counter().add();
    folded += conv_delay_fft(in, k, out, ws, spec_cache);
  } else {
    direct_counter().add();
    const simd::Ops& v = simd::ops();
    const auto n_out = static_cast<std::ptrdiff_t>(out.size());
    const auto taps = static_cast<std::ptrdiff_t>(k.taps.size());
    const double* SPSTA_RESTRICT tp = k.taps.data();
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double w = in[i];
      if (w == 0.0) continue;
      const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(i) + k.first;
      const std::ptrdiff_t m_lo = std::clamp<std::ptrdiff_t>(-base, 0, taps);
      const std::ptrdiff_t m_hi = std::clamp<std::ptrdiff_t>(n_out - base, m_lo, taps);
      double head = 0.0, tail = 0.0;
      for (std::ptrdiff_t m = 0; m < m_lo; ++m) head += tp[m];
      for (std::ptrdiff_t m = m_hi; m < taps; ++m) tail += tp[m];
      if (head != 0.0) {
        out[0] += w * head;
        folded += w * head;
      }
      if (tail != 0.0) {
        out[out.size() - 1] += w * tail;
        folded += w * tail;
      }
      v.axpy(tp + m_lo, w, out.data() + base + m_lo,
             static_cast<std::size_t>(m_hi - m_lo));
    }
  }
  return folded;
}

[[noreturn]] void bad_exec(const char* what) {
  throw std::invalid_argument(std::string("conv_execute: ") + what);
}

}  // namespace

std::size_t conv_crossover() noexcept {
  const std::size_t v = crossover_override().load(std::memory_order_relaxed);
  return v != 0 ? v : kDefaultCrossover;
}

void set_conv_crossover(std::size_t points) noexcept {
  crossover_override().store(points, std::memory_order_relaxed);
}

ConvKernelChoice select_conv_kernel(std::size_t na, std::size_t nb) noexcept {
  if (na == 0 || nb == 0) return ConvKernelChoice::Direct;
  if (std::min(na, nb) < kMinFftOperand) return ConvKernelChoice::Direct;
  return (na + nb - 1) >= conv_crossover() ? ConvKernelChoice::Fft
                                           : ConvKernelChoice::Direct;
}

DelayKernel make_delay_kernel(const Gaussian& g, double dt, double sigmas) {
  if (!(dt > 0.0)) throw std::invalid_argument("make_delay_kernel: dt must be > 0");
  DelayKernel k;
  const double sd = g.stddev();
  const double pad = sigmas * sd;
  if (sd == 0.0 || pad < dt) {
    // Degenerate (or sub-grid) delay: an exact fractional shift preserves
    // mass and shape where a near-delta sampled kernel would alias.
    k.exact_shift = true;
    const double pos = g.mean / dt;
    const double base = std::floor(pos);
    k.shift = static_cast<std::ptrdiff_t>(base);
    k.frac = std::clamp(pos - base, 0.0, 1.0);
    if (k.frac == 1.0) {  // pos rounded up against floor's result
      ++k.shift;
      k.frac = 0.0;
    }
    return k;
  }
  k.first = static_cast<std::ptrdiff_t>(std::ceil((g.mean - pad) / dt));
  const auto last = static_cast<std::ptrdiff_t>(std::floor((g.mean + pad) / dt));
  k.taps.resize(static_cast<std::size_t>(last - k.first + 1));
  for (std::size_t m = 0; m < k.taps.size(); ++m) {
    const double t = static_cast<double>(k.first + static_cast<std::ptrdiff_t>(m)) * dt;
    k.taps[m] = dt * normal_pdf(t, g.mean, sd);
  }
  return k;
}

std::size_t delay_fft_size(std::size_t n_in, const DelayKernel& k) noexcept {
  if (k.exact_shift || n_in == 0 || k.taps.empty()) return 0;
  if (select_conv_kernel(n_in, k.taps.size()) != ConvKernelChoice::Fft) return 0;
  return std::bit_ceil(n_in + k.taps.size() - 1);
}

void precompute_kernel_spectrum(DelayKernel& k, std::size_t fft_n, Workspace& ws) {
  if (k.exact_shift || k.taps.empty() || fft_n == 0) return;
  if (!std::has_single_bit(fft_n) || fft_n < 2 * kMinFftOperand) {
    throw std::invalid_argument(
        "precompute_kernel_spectrum: fft_n must be a power of two >= 32");
  }
  if (k.taps.size() > fft_n) {
    throw std::invalid_argument("precompute_kernel_spectrum: taps exceed fft_n");
  }
  const std::size_t m = fft_n / 2;
  const Workspace::FftPlan& plan = ws.fft_plan(m);
  k.spec_re.resize(m + 1);
  k.spec_im.resize(m + 1);
  rfft_forward(k.taps, plan, ws.fft_re(m).data(), ws.fft_im(m).data(),
               k.spec_re.data(), k.spec_im.data());
  k.spec_n = fft_n;
}

void conv_execute(const ConvExec& ex) {
  if (ex.ws == nullptr) bad_exec("null workspace");
  if (ex.cols == 0 || ex.cols > ConvExec::kMaxCols) bad_exec("bad column count");
  Workspace& ws = *ex.ws;

  if (ex.form == ConvExec::Form::Dense) {
    if (ex.dense.empty()) bad_exec("empty dense operand");
    for (std::size_t c = 0; c < ex.cols; ++c) {
      if (ex.src[c].empty()) bad_exec("empty source column");
      if (ex.dst[c].size() != ex.src[c].size() + ex.dense.size() - 1) {
        bad_exec("dst must have size n_src + n_dense - 1");
      }
    }
    const bool dense_zero = all_zero(ex.dense);
    for (std::size_t c = 0; c < ex.cols; ++c) {
      const std::span<const double> a = ex.src[c];
      const std::span<double> out = ex.dst[c];
      if (ex.scale == 0.0 || dense_zero || all_zero(a)) {
        // Exact zero for a zero operand: the FFT pack trick would
        // otherwise leak ~1e-15 of the other operand's round-off.
        std::fill(out.begin(), out.end(), 0.0);
        continue;
      }
      if (select_conv_kernel(a.size(), ex.dense.size()) == ConvKernelChoice::Fft) {
        fft_counter().add();
        conv_fft(a, ex.dense, ex.scale, out, ws);
      } else {
        direct_counter().add();
        conv_direct(a, ex.dense, ex.scale, out);
      }
    }
    return;
  }

  // Delay form.
  for (std::size_t c = 0; c < ex.cols; ++c) {
    if (ex.kernel[c] == nullptr) bad_exec("null delay kernel");
  }
  SpectrumCache spec_cache;
  double folded = 0.0;
  for (std::size_t c = 0; c < ex.cols; ++c) {
    const std::span<const double> in = ex.src[c];
    const std::span<double> out = ex.dst[c];
    if (in.empty() || out.empty()) continue;
    if (all_zero(in)) continue;
    folded += apply_delay_column(in, *ex.kernel[c], out, ws, spec_cache);
  }
  if (folded > 0.0) clip_counter().add();
}

}  // namespace spsta::stats

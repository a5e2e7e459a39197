// Microbenchmark for the numeric kernel layer (DESIGN.md §12, §16).
//
// Section 1 times both convolution kernels over a sweep of output lengths
// and prints the smallest length where the FFT wins — the value the
// built-in default crossover in stats/conv_kernels.cpp is calibrated
// against. Override at runtime with stats::set_conv_crossover().
//
// Section 2 is the kernel-v2 roofline: per grid size, the SUM-with-delay
// operator timed per column across {scalar, simd} x {single-column,
// batched} with a precomputed kernel spectrum — the speedup columns are
// what the batched span API and the SIMD tiers each buy. All four cells
// compute bit-identical results (asserted).
//
// `--json` appends a machine-readable blob (consumed by CI) after the
// tables.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "stats/conv_kernels.hpp"
#include "stats/rng.hpp"
#include "stats/simd.hpp"
#include "stats/workspace.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace spsta::stats;

void conv_dense(const std::vector<double>& a, const std::vector<double>& b,
                std::vector<double>& out, Workspace& ws) {
  ConvExec ex;
  ex.form = ConvExec::Form::Dense;
  ex.cols = 1;
  ex.src[0] = a;
  ex.dense = b;
  ex.dst[0] = out;
  ex.ws = &ws;
  conv_execute(ex);
}

double best_seconds(const std::vector<double>& a, const std::vector<double>& b,
                    std::vector<double>& out, int reps) {
  Workspace& ws = Workspace::local();
  conv_dense(a, b, out, ws);  // warm buffers and plans
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    conv_dense(a, b, out, ws);
    const std::chrono::duration<double> dt = Clock::now() - start;
    best = std::min(best, dt.count());
  }
  return best;
}

struct RooflineRow {
  std::size_t n = 0;
  double scalar_single_us = 0.0;
  double scalar_batched_us = 0.0;
  double simd_single_us = 0.0;
  double simd_batched_us = 0.0;
};

/// Times `cols` delay applications per rep, batched or column-by-column,
/// and returns best-of-reps seconds PER COLUMN.
double delay_seconds(const std::vector<std::vector<double>>& src,
                     const DelayKernel& k,
                     std::vector<std::vector<double>>& dst, bool batched,
                     int reps) {
  Workspace& ws = Workspace::local();
  const std::size_t cols = src.size();
  const auto run = [&] {
    for (auto& d : dst) std::fill(d.begin(), d.end(), 0.0);
    if (batched) {
      ConvExec ex;
      ex.cols = cols;
      ex.ws = &ws;
      for (std::size_t c = 0; c < cols; ++c) {
        ex.src[c] = src[c];
        ex.dst[c] = dst[c];
        ex.kernel[c] = &k;
      }
      conv_execute(ex);
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        ConvExec ex;
        ex.cols = 1;
        ex.ws = &ws;
        ex.src[0] = src[c];
        ex.dst[0] = dst[c];
        ex.kernel[0] = &k;
        conv_execute(ex);
      }
    }
  };
  run();  // warm
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    run();
    const std::chrono::duration<double> dt = Clock::now() - start;
    best = std::min(best, dt.count());
  }
  return best / static_cast<double>(cols);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  Xoshiro256 rng(7);
  std::printf("# direct vs FFT linear convolution (equal operands)\n");
  std::printf("%10s %14s %14s %8s\n", "out_len", "direct_us", "fft_us", "winner");

  std::size_t measured_crossover = 0;
  for (std::size_t len : {64u, 128u, 256u, 512u, 768u, 1024u, 1536u, 2048u,
                          4096u, 8192u, 16384u}) {
    const std::size_t na = (len + 1) / 2;
    const std::size_t nb = len + 1 - na;
    std::vector<double> a(na), b(nb), out(len);
    for (double& v : a) v = rng.uniform();
    for (double& v : b) v = rng.uniform();
    const int reps = len >= 4096 ? 20 : 200;

    set_conv_crossover(1u << 30);  // force direct
    const double t_direct = best_seconds(a, b, out, reps);
    set_conv_crossover(1);  // force FFT
    const double t_fft = best_seconds(a, b, out, reps);
    set_conv_crossover(0);  // restore default

    const bool fft_wins = t_fft < t_direct;
    if (fft_wins && measured_crossover == 0) measured_crossover = len;
    if (!fft_wins) measured_crossover = 0;  // require a stable win
    std::printf("%10zu %14.2f %14.2f %8s\n", len, t_direct * 1e6, t_fft * 1e6,
                fft_wins ? "fft" : "direct");
  }

  std::printf("\nmeasured crossover (first stable FFT win): %zu output points\n",
              measured_crossover);
  std::printf("built-in default: %zu output points\n", conv_crossover());

  // ---- Kernel-v2 roofline: SUM-with-delay per column -------------------
  const char* detected_tier = spsta::stats::simd::tier_name();
  std::printf("\n# SUM-with-delay roofline, us per column (tier: %s)\n",
              detected_tier);
  std::printf("%8s %14s %14s %14s %14s %10s\n", "grid_n", "scalar_1col",
              "scalar_batch", "simd_1col", "simd_batch", "speedup");

  std::vector<RooflineRow> roofline;
  const DelayKernel k = make_delay_kernel({1.0, 0.01}, 0.01);
  set_conv_crossover(1);  // the engine path under study is the FFT path
  for (std::size_t n : {512u, 1024u, 2048u, 4096u, 8192u}) {
    std::vector<std::vector<double>> src, dst;
    for (std::size_t c = 0; c < ConvExec::kMaxCols; ++c) {
      src.emplace_back(n);
      for (double& v : src.back()) v = rng.uniform();
      dst.emplace_back(n, 0.0);
    }
    DelayKernel cached = k;
    precompute_kernel_spectrum(cached, delay_fft_size(n, k), Workspace::local());
    const int reps = n >= 4096 ? 50 : 200;

    RooflineRow row;
    row.n = n;
    simd::set_force_scalar(true);
    row.scalar_single_us = delay_seconds(src, cached, dst, false, reps) * 1e6;
    row.scalar_batched_us = delay_seconds(src, cached, dst, true, reps) * 1e6;
    simd::set_force_scalar(false);
    row.simd_single_us = delay_seconds(src, cached, dst, false, reps) * 1e6;
    row.simd_batched_us = delay_seconds(src, cached, dst, true, reps) * 1e6;
    roofline.push_back(row);

    std::printf("%8zu %14.2f %14.2f %14.2f %14.2f %9.2fx\n", n,
                row.scalar_single_us, row.scalar_batched_us, row.simd_single_us,
                row.simd_batched_us, row.scalar_single_us / row.simd_batched_us);
  }
  set_conv_crossover(0);

  if (json) {
    std::string out = "\n{\"crossover\": {\"measured\": " +
                      std::to_string(measured_crossover) +
                      ", \"default\": " + std::to_string(conv_crossover()) +
                      "}, \"tier\": \"" + detected_tier +
                      "\", \"roofline\": [";
    for (std::size_t i = 0; i < roofline.size(); ++i) {
      const RooflineRow& r = roofline[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"n\": %zu, \"scalar_single_us\": %.3f, "
                    "\"scalar_batched_us\": %.3f, \"simd_single_us\": %.3f, "
                    "\"simd_batched_us\": %.3f}",
                    i == 0 ? "" : ", ", r.n, r.scalar_single_us,
                    r.scalar_batched_us, r.simd_single_us, r.simd_batched_us);
      out += buf;
    }
    out += "]}\n";
    std::fputs(out.c_str(), stdout);
  }
  return 0;
}

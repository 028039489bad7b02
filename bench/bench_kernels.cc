// Kernel ablation: the SIMD batched-distance path vs the scalar reference.
//
// Two levels of evidence, both on the same OSM-like workload the paper-scale
// harnesses use:
//   1. Micro: raw kernel throughput (points/s) of the count_within,
//      any_within and min_sqdist table entries on a contiguous block,
//      scalar vs runtime-dispatched (AVX2 on a CPU that has it).
//   2. End to end: DetectSequential with kernels forced to scalar vs
//      dispatched, comparing the phase-3 (core_points) + phase-5 (outliers)
//      seconds — the distance-dominated part of the pipeline — and checking
//      that the outlier sets are identical (they must be bit-equal by the
//      kernel contract).
//
// Results are also written as machine-readable JSON (BENCH_kernels.json in
// the working directory) so CI or plotting scripts can track the speedup.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dbscout.h"
#include "datasets/geo.h"
#include "simd/distance_kernel.h"

namespace {

using namespace dbscout;

double PhaseSeconds(const core::Detection& det, const char* name) {
  for (const auto& phase : det.phases) {
    if (phase.name == name) {
      return phase.seconds;
    }
  }
  return 0.0;
}

struct MicroResult {
  std::string kernel;
  size_t dims;
  double scalar_mpts;      // scalar throughput, million points/s
  double dispatched_mpts;  // dispatched throughput, million points/s
};

// Times `fn` over enough repetitions to fill ~80ms and returns million
// points scanned per second.
template <typename Fn>
double Throughput(size_t block_points, Fn&& fn) {
  fn();  // warm-up
  size_t reps = 1;
  double elapsed = 0.0;
  for (;;) {
    WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      fn();
    }
    elapsed = timer.ElapsedSeconds();
    if (elapsed > 0.08) {
      break;
    }
    reps *= 4;
  }
  return static_cast<double>(block_points) * static_cast<double>(reps) /
         elapsed / 1e6;
}

MicroResult MicroKernel(const char* kernel, size_t d, size_t n) {
  Rng rng(13 + d);
  std::vector<double> query(d);
  std::vector<double> block(n * d);
  for (auto& v : query) {
    v = rng.NextDouble();
  }
  for (auto& v : block) {
    v = rng.NextDouble();
  }
  // eps2 sized so roughly half the block hits: keeps branch behaviour
  // representative without triggering the early-exit cap.
  const double eps2 = 0.25 * static_cast<double>(d);
  const std::string name = kernel;
  auto run = [&](const simd::DistanceKernels& table) {
    return Throughput(n, [&] {
      if (name == "count_within") {
        volatile uint32_t sink = table.count_within[d](
            query.data(), block.data(), n, eps2, 0);
        (void)sink;
      } else if (name == "any_within") {
        // eps2=0 on random data: never hits, scans the whole block.
        volatile bool sink =
            table.any_within[d](query.data(), block.data(), n, 0.0);
        (void)sink;
      } else {
        volatile double sink =
            table.min_sqdist[d](query.data(), block.data(), n);
        (void)sink;
      }
    });
  };
  MicroResult out;
  out.kernel = kernel;
  out.dims = d;
  out.scalar_mpts = run(simd::ScalarKernels());
  out.dispatched_mpts = run(simd::DispatchedKernels());
  return out;
}

struct EndToEndResult {
  double scalar_hot_seconds;      // phase 3 + phase 5, scalar kernels
  double dispatched_hot_seconds;  // phase 3 + phase 5, dispatched kernels
  double scalar_total_seconds;
  double dispatched_total_seconds;
  size_t outliers;
  uint64_t outlier_hash;
  bool identical;
};

// Order-independent-free digest of the outlier index list (FNV-1a over the
// sorted indices the engines already emit in ascending order). Lets two
// builds compare result sets without shipping the full list around.
uint64_t HashIndices(const std::vector<uint32_t>& ids) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t id : ids) {
    h = (h ^ id) * 1099511628211ull;
  }
  return h;
}

EndToEndResult EndToEnd(const PointSet& points, const core::Params& params,
                        size_t repeats) {
  EndToEndResult out{};
  core::Detection scalar_det;
  core::Detection simd_det;
  for (bool force_scalar : {true, false}) {
    simd::ForceScalarKernels(force_scalar);
    double best_hot = 0.0, best_total = 0.0;
    core::Detection best;
    for (size_t r = 0; r < repeats; ++r) {
      auto det = core::DetectSequential(points, params);
      if (!det.ok()) {
        std::fprintf(stderr, "DetectSequential failed: %s\n",
                     det.status().ToString().c_str());
        std::exit(1);
      }
      const double hot =
          PhaseSeconds(*det, "core_points") + PhaseSeconds(*det, "outliers");
      if (r == 0 || hot < best_hot) {
        best_hot = hot;
        best_total = det->total_seconds;
        best = std::move(*det);
      }
    }
    if (force_scalar) {
      out.scalar_hot_seconds = best_hot;
      out.scalar_total_seconds = best_total;
      scalar_det = std::move(best);
    } else {
      out.dispatched_hot_seconds = best_hot;
      out.dispatched_total_seconds = best_total;
      simd_det = std::move(best);
    }
  }
  simd::ForceScalarKernels(false);
  out.outliers = simd_det.outliers.size();
  out.outlier_hash = HashIndices(simd_det.outliers);
  out.identical = scalar_det.outliers == simd_det.outliers &&
                  scalar_det.kinds == simd_det.kinds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbscout;
  const size_t n = bench::FlagU64(argc, argv, "n", 1000000);
  const double eps = bench::FlagDouble(argc, argv, "eps", 1e6);
  const int min_pts =
      static_cast<int>(bench::FlagU64(argc, argv, "min-pts", 100));
  const size_t repeats = bench::FlagU64(argc, argv, "repeats", 3);
  bench::PrintBanner("Kernel ablation: scalar vs SIMD distance path",
                     "SS III-B/III-D phase 3+5 inner loops");
  std::printf("dispatched kernel set: %s\n\n",
              simd::DispatchedKernels().name);

  // --- Micro throughput -------------------------------------------------
  const size_t block = 4096;
  std::vector<MicroResult> micro;
  for (size_t d : {size_t{2}, size_t{3}, size_t{5}, size_t{9}}) {
    micro.push_back(MicroKernel("count_within", d, block));
  }
  micro.push_back(MicroKernel("any_within", 2, block));
  micro.push_back(MicroKernel("min_sqdist", 2, block));
  std::printf("%-14s %4s %14s %14s %9s\n", "kernel", "dims",
              "scalar Mpt/s", "simd Mpt/s", "speedup");
  for (const auto& m : micro) {
    std::printf("%-14s %4zu %14.1f %14.1f %8.2fx\n", m.kernel.c_str(),
                m.dims, m.scalar_mpts, m.dispatched_mpts,
                m.dispatched_mpts / m.scalar_mpts);
  }

  // --- End to end -------------------------------------------------------
  std::printf("\nOSM-like n=%zu (2D), eps=%g, minPts=%d, best of %zu\n", n,
              eps, min_pts, repeats);
  const PointSet points = datasets::OsmLike(n, 77);
  core::Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  const EndToEndResult e2e = EndToEnd(points, params, repeats);
  const double hot_speedup =
      e2e.scalar_hot_seconds / e2e.dispatched_hot_seconds;
  std::printf("phase 3+5 (distance path): scalar %.3fs, simd %.3fs -> "
              "%.2fx\n",
              e2e.scalar_hot_seconds, e2e.dispatched_hot_seconds,
              hot_speedup);
  std::printf("end-to-end total:          scalar %.3fs, simd %.3fs -> "
              "%.2fx\n",
              e2e.scalar_total_seconds, e2e.dispatched_total_seconds,
              e2e.scalar_total_seconds / e2e.dispatched_total_seconds);
  std::printf("outliers: %zu (set hash %016" PRIx64
              "), scalar/simd results identical: %s\n",
              e2e.outliers, e2e.outlier_hash,
              e2e.identical ? "yes" : "NO (BUG)");

  // --- Machine-readable dump --------------------------------------------
  FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"dispatched_kernels\": \"%s\",\n",
                 simd::DispatchedKernels().name);
    std::fprintf(json, "  \"micro\": [\n");
    for (size_t i = 0; i < micro.size(); ++i) {
      const auto& m = micro[i];
      std::fprintf(json,
                   "    {\"kernel\": \"%s\", \"dims\": %zu, "
                   "\"scalar_mpts\": %.2f, \"dispatched_mpts\": %.2f, "
                   "\"speedup\": %.3f}%s\n",
                   m.kernel.c_str(), m.dims, m.scalar_mpts,
                   m.dispatched_mpts, m.dispatched_mpts / m.scalar_mpts,
                   i + 1 < micro.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"end_to_end\": {\n");
    std::fprintf(json, "    \"n\": %zu, \"eps\": %g, \"min_pts\": %d,\n", n,
                 eps, min_pts);
    std::fprintf(json,
                 "    \"scalar_phase35_seconds\": %.4f,\n"
                 "    \"dispatched_phase35_seconds\": %.4f,\n"
                 "    \"phase35_speedup\": %.3f,\n",
                 e2e.scalar_hot_seconds, e2e.dispatched_hot_seconds,
                 hot_speedup);
    std::fprintf(json,
                 "    \"scalar_total_seconds\": %.4f,\n"
                 "    \"dispatched_total_seconds\": %.4f,\n"
                 "    \"outliers\": %zu,\n"
                 "    \"outlier_hash\": \"%016" PRIx64
                 "\",\n"
                 "    \"identical_results\": %s\n  }\n}\n",
                 e2e.scalar_total_seconds, e2e.dispatched_total_seconds,
                 e2e.outliers, e2e.outlier_hash,
                 e2e.identical ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_kernels.json\n");
  }
  return e2e.identical ? 0 : 1;
}

// Ablation E: dimensionality. The per-point constant of DBSCOUT is
// O(minPts * k_d) with k_d from Table I (21, 117, 609, 3903 for d=2..5);
// this harness measures how much of that worst case materializes on
// clustered data, where most neighbor cells are empty (the sparsity effect
// SS II points out below Table I). The shared-memory engine runs beside
// the sequential one at every d, and the harness exits 1 when their
// outliers differ.
#include <cstdio>
#include <iostream>
#include <thread>

#include "analysis/table.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "grid/neighborhood.h"

namespace {

using namespace dbscout;

PointSet ClusteredPoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  PointSet out(dims);
  out.Reserve(n);
  std::vector<std::vector<double>> centers(12, std::vector<double>(dims));
  for (auto& center : centers) {
    for (auto& c : center) {
      c = rng.Uniform(-100.0, 100.0);
    }
  }
  std::vector<double> p(dims);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.02)) {
      for (size_t k = 0; k < dims; ++k) {
        p[k] = rng.Uniform(-120.0, 120.0);
      }
    } else {
      const auto& center = centers[rng.NextBounded(centers.size())];
      for (size_t k = 0; k < dims; ++k) {
        p[k] = rng.Gaussian(center[k], 2.0);
      }
    }
    out.Add(p);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = bench::FlagU64(argc, argv, "n", 60000);
  const int min_pts =
      static_cast<int>(bench::FlagU64(argc, argv, "min-pts", 50));
  bench::PrintBanner("Ablation E: dimensionality and k_d",
                     "Table I + Lemma 6 (per-point constant is minPts*k_d)");
  std::printf("clustered data, n=%zu, minPts=%d, eps=2.5\n\n", n, min_pts);

  ThreadPool pool(std::thread::hardware_concurrency());
  analysis::Table table({"d", "k_d", "Time (s)", "us/point", "Shared (s)",
                         "Distance comps", "Comps/point", "Outliers"});
  for (size_t d : {size_t{2}, size_t{3}, size_t{4}, size_t{5}}) {
    const PointSet points = ClusteredPoints(n, d, 83 + d);
    core::Params params;
    params.eps = 2.5;
    params.min_pts = min_pts;
    auto r = core::DetectSequential(points, params);
    auto shared = core::DetectSharedMemory(points, params, &pool);
    for (const auto* run : {&r, &shared}) {
      if (!run->ok()) {
        std::fprintf(stderr, "d=%zu failed: %s\n", d,
                     run->status().ToString().c_str());
        return 1;
      }
    }
    if (shared->outliers != r->outliers) {
      std::fprintf(stderr, "d=%zu: shared-memory outliers differ from the "
                   "sequential engine's\n", d);
      return 1;
    }
    auto kd = grid::CountNeighborOffsets(d);
    uint64_t distance_comps = 0;
    for (const auto& phase : r->phases) {
      distance_comps += phase.distance_computations;
    }
    table.AddRow(
        {std::to_string(d), std::to_string(kd.ok() ? *kd : 0),
         StrFormat("%.2f", r->total_seconds),
         StrFormat("%.2f", r->total_seconds * 1e6 / static_cast<double>(n)),
         StrFormat("%.2f", shared->total_seconds),
         std::to_string(distance_comps),
         StrFormat("%.1f", static_cast<double>(distance_comps) /
                               static_cast<double>(n)),
         std::to_string(r->num_outliers())});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: distance comparisons per point saturate as d grows "
      "(most stencil cells are empty — the sparsity argument below Table I). "
      "Phases 3 and 5 find neighbor cells by walking the sorted occupied "
      "cells, nearest pencil first, and stop once a cell is settled, so "
      "discovery costs grow with the occupied neighbors of each non-dense "
      "cell, not with k_d, and the comparisons stay well below the "
      "neighbors' points; time per point still grows with d because the "
      "walk over those neighbors does. The shared-memory engine finds the "
      "same outliers at every d.\n");
  return 0;
}

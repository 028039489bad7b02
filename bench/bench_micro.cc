// Micro-benchmarks (google-benchmark) for the building blocks underneath
// the paper's end-to-end numbers: grid construction (Algorithm 1+2),
// neighbor-stencil application, kd-tree k-NN (the LOF substrate), dataflow
// shuffles, and the sequential detector itself.
#include <benchmark/benchmark.h>

#include <optional>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "core/incremental.h"
#include "dataflow/pair_ops.h"
#include "datasets/geo.h"
#include "grid/grid.h"
#include "index/kdtree.h"
#include "simd/distance_kernel.h"

namespace {

using namespace dbscout;

PointSet MakePoints(size_t n) {
  return datasets::OsmLike(n, 77);
}

// Args: points, pool threads (0 = no pool, the one-task build).
void BM_GridBuild(benchmark::State& state) {
  const PointSet points = MakePoints(static_cast<size_t>(state.range(0)));
  const size_t threads = static_cast<size_t>(state.range(1));
  std::optional<ThreadPool> pool;
  if (threads > 0) {
    pool.emplace(threads);
  }
  for (auto _ : state) {
    auto g = grid::Grid::Build(points, 1e6, pool ? &*pool : nullptr);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridBuild)
    ->ArgsProduct({{10000, 100000, 2000000}, {0, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NeighborStencilApply(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const PointSet points = MakePoints(20000);
  auto g = grid::Grid::Build(points, 1e6);
  auto stencil = grid::GetNeighborStencil(d == 2 ? 2 : d);
  // Apply the 2D data's stencil lookups against a real grid.
  auto stencil2 = grid::GetNeighborStencil(2);
  for (auto _ : state) {
    size_t hits = 0;
    for (uint32_t c = 0; c < g->num_cells(); ++c) {
      g->ForEachNeighborCell(c, **stencil2, [&](uint32_t) { ++hits; });
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * g->num_cells() *
                          (*stencil)->size());
}
BENCHMARK(BM_NeighborStencilApply)->Arg(2);

void BM_KdTreeKnn(benchmark::State& state) {
  const PointSet points = MakePoints(static_cast<size_t>(state.range(0)));
  const index::KdTree tree = index::KdTree::Build(points);
  Rng rng(5);
  for (auto _ : state) {
    const uint32_t q = static_cast<uint32_t>(rng.NextBounded(points.size()));
    auto knn = tree.Knn(points[q], 6, q);
    benchmark::DoNotOptimize(knn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdTreeKnn)->Arg(10000)->Arg(100000);

void BM_ReduceByKeyShuffle(benchmark::State& state) {
  dataflow::ExecutionContext ctx(0, 16);
  Rng rng(6);
  std::vector<std::pair<uint32_t, uint32_t>> records;
  records.reserve(200000);
  for (size_t i = 0; i < 200000; ++i) {
    records.emplace_back(static_cast<uint32_t>(rng.NextBounded(10000)), 1u);
  }
  auto ds = dataflow::Dataset<std::pair<uint32_t, uint32_t>>::FromVector(
      &ctx, records, 16);
  for (auto _ : state) {
    auto reduced =
        ReduceByKey(ds, [](uint32_t a, uint32_t b) { return a + b; });
    benchmark::DoNotOptimize(reduced);
  }
  state.SetItemsProcessed(state.iterations() * records.size());
}
BENCHMARK(BM_ReduceByKeyShuffle);

void BM_CellCoordHash(benchmark::State& state) {
  std::vector<grid::CellCoord> coords;
  Rng rng(4);
  for (int i = 0; i < 4096; ++i) {
    grid::CellCoord c = grid::CellCoord::Zero(3);
    for (size_t k = 0; k < 3; ++k) {
      c[k] = static_cast<int64_t>(rng.NextBounded(1 << 20)) - (1 << 19);
    }
    coords.push_back(c);
  }
  for (auto _ : state) {
    uint64_t acc = 0;
    for (const auto& c : coords) {
      acc ^= c.Hash();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * coords.size());
}
BENCHMARK(BM_CellCoordHash);

void BM_StencilEnumeration(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto count = grid::CountNeighborOffsets(d);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_StencilEnumeration)->Arg(3)->Arg(5)->Arg(7);

void BM_IncrementalAdd(benchmark::State& state) {
  const PointSet points = MakePoints(20000);
  core::Params params;
  params.eps = 1e6;
  params.min_pts = 100;
  for (auto _ : state) {
    state.PauseTiming();
    auto det = core::IncrementalDetector::Create(2, params);
    state.ResumeTiming();
    for (size_t i = 0; i < points.size(); ++i) {
      auto added = det->Add(points[i]);
      benchmark::DoNotOptimize(added);
    }
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_IncrementalAdd);

// --- Batched distance kernels (scalar reference vs CPU-dispatched). ------
// One query point against a contiguous block, the phase-3/5 inner loop.

struct KernelWorkload {
  std::vector<double> query;
  std::vector<double> block;
};

KernelWorkload MakeKernelWorkload(size_t n, size_t d) {
  Rng rng(11 + d);
  KernelWorkload w;
  w.query.resize(d);
  w.block.resize(n * d);
  for (auto& v : w.query) {
    v = rng.NextDouble();
  }
  for (auto& v : w.block) {
    v = rng.NextDouble();
  }
  return w;
}

void BM_KernelCountWithin(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const bool scalar = state.range(1) != 0;
  const size_t n = 4096;
  const KernelWorkload w = MakeKernelWorkload(n, d);
  const auto& table =
      scalar ? simd::ScalarKernels() : simd::DispatchedKernels();
  state.SetLabel(table.name);
  for (auto _ : state) {
    auto hits = table.count_within[d](w.query.data(), w.block.data(), n,
                                      0.25 * d, 0);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelCountWithin)
    ->ArgsProduct({{2, 3, 5, 9}, {1, 0}});

void BM_KernelAnyWithin(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const bool scalar = state.range(1) != 0;
  const size_t n = 4096;
  const KernelWorkload w = MakeKernelWorkload(n, d);
  const auto& table =
      scalar ? simd::ScalarKernels() : simd::DispatchedKernels();
  state.SetLabel(table.name);
  for (auto _ : state) {
    // eps2 = 0 with random data: no hit, full-block scan (worst case).
    auto any = table.any_within[d](w.query.data(), w.block.data(), n, 0.0);
    benchmark::DoNotOptimize(any);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelAnyWithin)->ArgsProduct({{2, 3}, {1, 0}});

void BM_KernelMinSqDist(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const bool scalar = state.range(1) != 0;
  const size_t n = 4096;
  const KernelWorkload w = MakeKernelWorkload(n, d);
  const auto& table =
      scalar ? simd::ScalarKernels() : simd::DispatchedKernels();
  state.SetLabel(table.name);
  for (auto _ : state) {
    auto best = table.min_sqdist[d](w.query.data(), w.block.data(), n);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelMinSqDist)->ArgsProduct({{2, 3}, {1, 0}});

void BM_DetectSequential(benchmark::State& state) {
  const PointSet points = MakePoints(static_cast<size_t>(state.range(0)));
  core::Params params;
  params.eps = 1e6;
  params.min_pts = 100;
  for (auto _ : state) {
    auto r = core::DetectSequential(points, params);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectSequential)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();

// Ablation C: the out-of-core engine. Streams a binary point file through
// DetectExternal at several memory budgets, once without a pool and once on
// a pool of one thread per core, and checks both outputs against the
// in-memory engine — the single-machine answer to the paper's "billions of
// tuples" motivation. Reports the spill amplification (halo replication)
// and the largest stripe working set, i.e. the real memory ceiling.
#include <cstdio>
#include <iostream>
#include <thread>

#include "analysis/table.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "data/io.h"
#include "datasets/geo.h"
#include "external/external_detector.h"

int main(int argc, char** argv) {
  using namespace dbscout;
  const size_t n = bench::FlagU64(argc, argv, "n", 400000);
  const double eps = bench::FlagDouble(argc, argv, "eps", 1e6);
  const int min_pts =
      static_cast<int>(bench::FlagU64(argc, argv, "min-pts", 100));
  bench::PrintBanner("Ablation C: out-of-core engine",
                     "SS I (scaling to very large settings) on one machine");
  std::printf("OSM-like n=%zu, eps=%g, minPts=%d\n\n", n, eps, min_pts);

  const PointSet points = datasets::OsmLike(n, 81);
  const std::string path = "/tmp/dbscout_bench_external.dbsc";
  if (Status s = SavePointsBinary(path, points); !s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return 1;
  }

  core::Params in_memory;
  in_memory.eps = eps;
  in_memory.min_pts = min_pts;
  auto reference = core::DetectSequential(points, in_memory);
  if (!reference.ok()) {
    std::fprintf(stderr, "in-memory run failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  std::printf("in-memory reference: %.2fs, %zu outliers\n\n",
              reference->total_seconds, reference->num_outliers());

  ThreadPool pool(std::thread::hardware_concurrency());
  std::printf("pool: %zu threads\n\n", pool.num_threads());
  analysis::Table table({"Stripe budget (pts)", "Stripes", "Time (s)",
                         "Time, pooled (s)", "Spilled records",
                         "Max stripe pts", "Outliers", "Exact?"});
  for (size_t budget : {n, n / 4, n / 16, n / 64}) {
    external::ExternalParams params;
    params.eps = eps;
    params.min_pts = min_pts;
    params.target_stripe_points = budget;
    params.tmp_dir = "/tmp";
    auto r = external::DetectExternal(path, params);
    auto pooled = external::DetectExternal(path, params, &pool);
    for (const auto* run : {&r, &pooled}) {
      if (!run->ok()) {
        std::fprintf(stderr, "budget=%zu failed: %s\n", budget,
                     run->status().ToString().c_str());
        return 1;
      }
    }
    const bool exact = r->outliers == reference->outliers &&
                       pooled->outliers == reference->outliers;
    table.AddRow({std::to_string(budget), std::to_string(r->stripes),
                  StrFormat("%.3f", r->seconds),
                  StrFormat("%.3f", pooled->seconds),
                  std::to_string(r->spilled_records),
                  std::to_string(r->max_stripe_points),
                  std::to_string(r->num_outliers()), exact ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::remove(path.c_str());
  std::printf(
      "\nExpected shape: identical outliers at every budget; the working "
      "set (max stripe pts) shrinks with the budget while spilled records "
      "grow mildly (halo replication) — memory traded for I/O, exactness "
      "untouched; the pooled run is the same detection in less time.\n");
  return 0;
}

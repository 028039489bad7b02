// Ablation B: engine comparison and linearity evidence. Runs the
// sequential reference engine and the dataflow engine over a size sweep,
// reporting per-phase time and time-per-million-points — the single-machine
// counterpart of Fig. 10's linear scaling claim (Lemmas 4-8). Exits 1 if
// the two engines ever disagree on the outliers.
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/table.h"
#include "bench_util.h"
#include "core/dbscout.h"
#include "datasets/geo.h"

int main(int argc, char** argv) {
  using namespace dbscout;
  const size_t base_n = bench::FlagU64(argc, argv, "base-n", 50000);
  const double eps = bench::FlagDouble(argc, argv, "eps", 1e6);
  const int min_pts =
      static_cast<int>(bench::FlagU64(argc, argv, "min-pts", 100));
  bench::PrintBanner("Ablation B: engines and phase breakdown",
                     "Lemmas 4-8 (every phase linear in n); SS III-A");
  std::printf("OSM-like sizes %zu..%zu, eps=%g, minPts=%d\n\n", base_n,
              base_n * 8, eps, min_pts);

  dataflow::ExecutionContext ctx(0, 64);
  analysis::Table table({"Points", "Engine", "grid", "dense map",
                         "core pts", "core map", "outliers", "total (s)",
                         "s per 1M pts"});
  bool agree = true;
  for (size_t factor : {1u, 2u, 4u, 8u}) {
    const size_t n = base_n * factor;
    const PointSet points = datasets::OsmLike(n, 61);
    std::vector<uint32_t> sequential_outliers;
    for (core::Engine engine :
         {core::Engine::kSequential, core::Engine::kParallel}) {
      core::Params params;
      params.eps = eps;
      params.min_pts = min_pts;
      params.engine = engine;
      params.join = core::JoinStrategy::kGrouped;
      const Result<core::Detection> r =
          engine == core::Engine::kSequential
              ? core::DetectSequential(points, params)
              : core::DetectParallel(points, params, &ctx);
      if (!r.ok()) {
        std::fprintf(stderr, "n=%zu %s failed: %s\n", n,
                     core::EngineName(engine),
                     r.status().ToString().c_str());
        return 1;
      }
      if (engine == core::Engine::kSequential) {
        sequential_outliers = r->outliers;
      } else if (r->outliers != sequential_outliers) {
        std::fprintf(stderr, "n=%zu: %s outliers differ from sequential\n",
                     n, core::EngineName(engine));
        agree = false;
      }
      std::vector<std::string> row = {
          HumanCount(static_cast<double>(n)), core::EngineName(engine)};
      for (const auto& phase : r->phases) {
        row.push_back(StrFormat("%.0fms", phase.seconds * 1e3));
      }
      row.push_back(StrFormat("%.2f", r->total_seconds));
      row.push_back(StrFormat("%.2f",
                              r->total_seconds * 1e6 /
                                  static_cast<double>(n)));
      table.AddRow(std::move(row));
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: seconds-per-million-points roughly constant as n "
      "grows (linear complexity); the sequential engine is the faster "
      "single-machine path, the dataflow engine pays shuffle overhead in "
      "exchange for horizontal scalability.\n");
  std::printf("%s\n", agree ? "both engines agree on the outliers"
                             : "FAIL: the engines disagree on the outliers");
  return agree ? 0 : 1;
}

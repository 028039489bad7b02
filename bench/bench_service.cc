// Service bench: the 1-vs-N detector-shard ingest sweep (DESIGN.md
// section 14), the one service measurement perfbench/ does not take —
// perfbench runs dbscout_serve with its default single shard.
//
// The same OsmLike stream goes through IngestAsync + one final Drain
// against a service with 1 and then N shards (--shards, default 4). The
// apply loop coalesces the queue, so the rate measures the apply path:
// with several shards each runs its own apply loop, and the scatter and
// ghost-exchange overhead must be repaid by the parallel per-shard
// applies. Both rates are taken in one process so the ratio compares like
// with like.
//
// Human-readable progress goes to stderr; stdout is a single JSON object,
// so `bench_service > BENCH_service.json` captures the committed artifact.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "datasets/geo.h"
#include "service/service.h"

int main(int argc, char** argv) {
  using namespace dbscout;
  const size_t n = bench::FlagU64(argc, argv, "n", 100000);
  const size_t batch = bench::FlagU64(argc, argv, "batch", 500);
  const size_t sweep_shards = bench::FlagU64(argc, argv, "shards", 4);
  const double eps = bench::FlagDouble(argc, argv, "eps", 5e5);
  const int min_pts =
      static_cast<int>(bench::FlagU64(argc, argv, "min-pts", 50));

  std::fprintf(stderr,
               "bench_service: n=%zu batch=%zu shards=%zu eps=%g minPts=%d\n",
               n, batch, sweep_shards, eps, min_pts);
  const PointSet stream = datasets::OsmLike(n, 91);
  const size_t dims = stream.dims();

  service::ServiceOptions options;
  options.params.eps = eps;
  options.params.min_pts = min_pts;
  // Throughput run: admission must never shed, or we would measure the
  // enqueue path instead of the apply loop.
  options.max_pending_ingests = n;

  double shards1_rate = 0;
  double shardsN_rate = 0;
  for (const size_t num_shards : {size_t{1}, sweep_shards}) {
    options.num_shards = num_shards;
    service::DetectionService svc(options);
    WallTimer timer;
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t end = std::min(n, begin + batch);
      const Status s = svc.IngestAsync(
          "bench", static_cast<uint16_t>(dims),
          std::vector<double>(stream.values().begin() + begin * dims,
                              stream.values().begin() + end * dims));
      if (!s.ok()) {
        std::fprintf(stderr, "sharded ingest: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    svc.Drain();
    const double rate = n / timer.ElapsedSeconds();
    (num_shards == 1 ? shards1_rate : shardsN_rate) = rate;
    std::fprintf(stderr, "  sharded  shards=%zu %.0f pts/s\n", num_shards,
                 rate);
  }

  std::printf("{\n");
  std::printf("  \"benchmark\": \"bench_service\",\n");
  std::printf("  \"dataset\": {\"generator\": \"OsmLike\", \"n\": %zu, "
              "\"dims\": %zu, \"seed\": 91},\n", n, dims);
  std::printf("  \"params\": {\"eps\": %g, \"min_pts\": %d, "
              "\"batch\": %zu},\n", eps, min_pts, batch);
  std::printf("  \"sharded\": {\n");
  std::printf("    \"shards\": %zu,\n", sweep_shards);
  std::printf("    \"shards1_points_per_sec\": %.0f,\n", shards1_rate);
  std::printf("    \"shardsN_points_per_sec\": %.0f,\n", shardsN_rate);
  std::printf("    \"speedup_Nv1\": %.3f\n", shardsN_rate / shards1_rate);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}

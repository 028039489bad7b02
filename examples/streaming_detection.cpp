// Streaming detection: maintain the exact outlier set of an append-only
// GPS feed with the incremental detector. New fixes arrive in small
// batches; after each batch the labels are exactly what a full batch rerun
// would produce — watch lone early fixes get "rescued" into border points
// as their neighborhoods fill in.
//
//   ./build/examples/streaming_detection
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/dbscout.h"
#include "core/incremental.h"
#include "datasets/geo.h"

int main() {
  using namespace dbscout;

  core::Params params;
  params.eps = 400.0;
  params.min_pts = 30;
  auto detector = core::IncrementalDetector::Create(3, params);
  if (!detector.ok()) {
    std::fprintf(stderr, "%s\n", detector.status().ToString().c_str());
    return 1;
  }

  // One day of GPS fixes, replayed in 10 batches.
  const PointSet day = datasets::GeolifeLike(50000, 99);
  const size_t batch_size = day.size() / 10;
  size_t cursor = 0;
  size_t previous_outliers = 0;
  for (int batch = 1; batch <= 10; ++batch) {
    const size_t end =
        batch == 10 ? day.size() : cursor + batch_size;
    for (; cursor < end; ++cursor) {
      if (auto added = detector->Add(day[cursor]); !added.ok()) {
        std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
        return 1;
      }
    }
    const size_t outliers = detector->Outliers().size();
    std::printf(
        "batch %2d: %6zu points seen | %5zu outliers (%+6.2f%% of feed) | "
        "%6zu core | %zu cells\n",
        batch, detector->epoch(), outliers,
        100.0 * static_cast<double>(outliers) /
            static_cast<double>(detector->epoch()),
        detector->num_core(), detector->num_cells());
    previous_outliers = outliers;
  }

  // Show the monotone rescue effect: how many of the first batch's
  // outliers were later absorbed into dense regions.
  size_t early_still_outlier = 0;
  for (uint32_t i = 0; i < batch_size; ++i) {
    early_still_outlier +=
        detector->KindOf(i) == core::PointKind::kOutlier;
  }
  std::printf(
      "\nof the first batch's points, %zu remain outliers at end of day "
      "(insertions only ever rescue outliers, never create them "
      "retroactively).\n",
      early_still_outlier);

  // The incremental labels equal a from-scratch batch run (the invariant
  // the test suite enforces); demonstrate it once here.
  const Result<core::Detection> batch_run = core::Detect(day, params);
  if (batch_run.ok()) {
    const std::vector<uint64_t> incremental = detector->Outliers();
    const bool identical =
        std::equal(batch_run->outliers.begin(), batch_run->outliers.end(),
                   incremental.begin(), incremental.end());
    std::printf("final cross-check vs batch DBSCOUT: %s\n",
                identical ? "identical" : "MISMATCH");
  }
  (void)previous_outliers;
  return 0;
}

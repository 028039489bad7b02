#include "cli/cli.h"

#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compare.h"
#include "analysis/kdistance.h"
#include "analysis/metrics.h"
#include "cli/flags.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dbscout.h"
#include "core/incremental.h"
#include "data/io.h"
#include "datasets/geo.h"
#include "datasets/shapes.h"
#include "datasets/synthetic.h"
#include "external/external_detector.h"
#include "external/kdistance.h"
#include "obs/trace.h"

namespace dbscout::cli {
namespace {

constexpr const char* kUsage = R"(dbscout — density-based scalable outlier detection (DBSCOUT, ICDE'21)

usage: dbscout <command> [--flag=value ...]

Point files (--input, generate's --output) are CSV when the path ends in
.csv and DBSC binary otherwise; --format=csv|binary overrides.

commands:
  detect    --input=FILE --eps=X --min-pts=N
            [--format=csv|binary]           input format
            [--engine=sequential|parallel|shared|external|incremental]
            [--partitions=P]                parallel engine only: partitions
            [--stripe-points=S]             external engine only: memory knob
            [--scores]                      sequential and shared engines
                                            only: also compute core distances
            [--output=FILE]                 write outlier indices (one per line)
            [--trace-out=FILE]              write a Chrome/Perfetto trace of
                                            the per-phase (and per-stripe /
                                            per-worker) execution spans
            run DBSCOUT; prints a summary, optionally writes the outliers

  kdist     --input=FILE --k=N [--format=...] [--sample=M] [--streaming]
            k-distance curve stats and the suggested eps (knee and upper
            elbow); --streaming reservoir-samples a binary file in one pass
            without loading it

  generate  --dataset=NAME --n=N --output=FILE [--seed=S]
            [--contamination=C] [--labels=FILE] [--format=csv|binary]
            datasets: blobs blobs-vd circles moons cluto-t4 cluto-t5
                      cluto-t7 cluto-t8 cure-t2 geolife osm

  compare   --reference=FILE --candidate=FILE
            diff two outlier-index files (TP/FP/FN, Tables IV-V style)

  evaluate  --labels=FILE --predicted=FILE
            F1/precision/recall of predicted outlier indices against 0/1 labels

  help      this text
)";

constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr uint64_t kMaxSize = std::numeric_limits<size_t>::max();

template <typename Index>
Status WriteIndices(const std::string& path,
                    const std::vector<Index>& indices) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot create file: " + path);
  }
  for (Index i : indices) {
    out << i << '\n';
  }
  if (!out) {
    return Status::IoError("write failure: " + path);
  }
  return Status::OK();
}

/// One row per phase: name, wall time, distance computations.
void PrintPhases(const std::vector<core::PhaseStats>& phases,
                 std::ostream& out) {
  for (const core::PhaseStats& phase : phases) {
    out << StrFormat("  %-15s %9.2f ms  %12llu dist-comps\n",
                     phase.name.c_str(), phase.seconds * 1e3,
                     static_cast<unsigned long long>(
                         phase.distance_computations));
  }
}

Result<std::vector<uint32_t>> ReadIndices(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open file: " + path);
  }
  std::vector<uint32_t> indices;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) {
      continue;
    }
    Result<uint64_t> value = ParseUint64(Trim(line));
    if (!value.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s line %zu: %s", path.c_str(), line_no,
                    value.status().message().c_str()));
    }
    indices.push_back(static_cast<uint32_t>(*value));
  }
  return indices;
}

Status CmdDetect(const Flags& flags, std::ostream& out) {
  const std::string engine = flags.GetString("engine", "sequential");
  // An engine-specific flag is unknown to every other engine.
  std::vector<std::string> allowed = {"input", "format", "eps", "min-pts",
                                      "engine", "output", "trace-out"};
  if (engine == "sequential" || engine == "shared") {
    allowed.push_back("scores");
  } else if (engine == "parallel") {
    allowed.push_back("partitions");
  } else if (engine == "external") {
    allowed.push_back("stripe-points");
  }
  DBSCOUT_RETURN_IF_ERROR(flags.CheckAllowed(allowed));
  DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"input", "eps", "min-pts"}));
  const std::string input = flags.GetString("input");
  DBSCOUT_ASSIGN_OR_RETURN(const PointFormat format,
                           PointFileFormat(input, flags.GetString("format")));
  DBSCOUT_ASSIGN_OR_RETURN(const double eps, flags.GetDouble("eps", 0.0));
  DBSCOUT_ASSIGN_OR_RETURN(const uint64_t min_pts,
                           flags.GetUint("min-pts", 0, kMaxInt));

  // Spans accumulate here while the detection runs; written out at the end
  // of whichever engine path executed.
  obs::TraceCollector trace;
  obs::TraceCollector* const trace_ptr =
      flags.Has("trace-out") ? &trace : nullptr;
  auto write_trace = [&]() -> Status {
    if (trace_ptr == nullptr) {
      return Status::OK();
    }
    return trace.WriteChromeJson(flags.GetString("trace-out"));
  };

  if (engine == "external") {
    external::ExternalParams params;
    params.eps = eps;
    params.min_pts = static_cast<int>(min_pts);
    params.trace = trace_ptr;
    DBSCOUT_ASSIGN_OR_RETURN(
        params.target_stripe_points,
        flags.GetUint("stripe-points", params.target_stripe_points,
                      kMaxSize));
    ThreadPool pool(std::thread::hardware_concurrency());
    DBSCOUT_ASSIGN_OR_RETURN(auto detection,
                             external::DetectExternal(input, params, &pool));
    out << StrFormat(
        "external: %zu outliers, %llu core, %llu border | cells=%zu "
        "dense=%zu stripes=%zu spilled=%llu max-stripe=%zu | %.3fs\n",
        detection.num_outliers(),
        static_cast<unsigned long long>(detection.num_core),
        static_cast<unsigned long long>(detection.num_border),
        detection.num_cells, detection.num_dense_cells, detection.stripes,
        static_cast<unsigned long long>(detection.spilled_records),
        detection.max_stripe_points, detection.seconds);
    PrintPhases(detection.phases, out);
    if (flags.Has("output")) {
      DBSCOUT_RETURN_IF_ERROR(
          WriteIndices(flags.GetString("output"), detection.outliers));
    }
    return write_trace();
  }

  DBSCOUT_ASSIGN_OR_RETURN(PointSet points, LoadPointFile(input, format));
  core::Params params;
  params.eps = eps;
  params.min_pts = static_cast<int>(min_pts);
  params.compute_scores = flags.GetBool("scores");
  params.trace = trace_ptr;
  DBSCOUT_ASSIGN_OR_RETURN(params.num_partitions,
                           flags.GetUint("partitions", 0, kMaxSize));
  if (engine == "incremental") {
    // Append-only maintenance: the whole file is applied as one batch,
    // and the labeling is exact once the batch has applied. This is the
    // engine the detection service (src/service) runs on.
    DBSCOUT_ASSIGN_OR_RETURN(
        core::IncrementalDetector detector,
        core::IncrementalDetector::Create(points.dims(), params));
    WallTimer timer;
    DBSCOUT_RETURN_IF_ERROR(detector.AddBatchParallel(points, nullptr));
    const double seconds = timer.ElapsedSeconds();
    const std::vector<uint64_t> outliers = detector.Outliers();
    out << StrFormat(
        "incremental: %zu points -> %zu outliers, %zu core | cells=%zu | "
        "%llu dist-comps | %.3fs\n",
        points.size(), outliers.size(), detector.num_core(),
        detector.num_cells(),
        static_cast<unsigned long long>(detector.distance_computations()),
        seconds);
    if (flags.Has("output")) {
      DBSCOUT_RETURN_IF_ERROR(
          WriteIndices(flags.GetString("output"), outliers));
    }
    return write_trace();
  }
  if (engine == "sequential") {
    params.engine = core::Engine::kSequential;
  } else if (engine == "parallel") {
    params.engine = core::Engine::kParallel;
  } else if (engine == "shared") {
    params.engine = core::Engine::kSharedMemory;
  } else {
    return Status::InvalidArgument("unknown --engine=" + engine);
  }
  DBSCOUT_ASSIGN_OR_RETURN(auto detection, core::Detect(points, params));
  out << StrFormat(
      "%s: %zu points -> %zu outliers, %zu core, %zu border | cells=%zu "
      "dense=%zu core-cells=%zu | %.3fs\n",
      core::EngineName(params.engine), points.size(),
      detection.num_outliers(), detection.num_core, detection.num_border,
      detection.num_cells, detection.num_dense_cells,
      detection.num_core_cells, detection.total_seconds);
  PrintPhases(detection.phases, out);
  if (params.compute_scores && !detection.outliers.empty()) {
    out << "top outliers by core distance:\n";
    std::vector<uint32_t> ranked = detection.outliers;
    std::sort(ranked.begin(), ranked.end(), [&](uint32_t a, uint32_t b) {
      return detection.core_distance[a] > detection.core_distance[b];
    });
    for (size_t i = 0; i < ranked.size() && i < 5; ++i) {
      out << StrFormat("  #%u  core-distance=%g\n", ranked[i],
                       detection.core_distance[ranked[i]]);
    }
  }
  if (flags.Has("output")) {
    DBSCOUT_RETURN_IF_ERROR(
        WriteIndices(flags.GetString("output"), detection.outliers));
  }
  return write_trace();
}

Status CmdKdist(const Flags& flags, std::ostream& out) {
  DBSCOUT_RETURN_IF_ERROR(
      flags.CheckAllowed({"input", "format", "k", "sample", "streaming"}));
  DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"input", "k"}));
  const std::string input = flags.GetString("input");
  DBSCOUT_ASSIGN_OR_RETURN(const PointFormat format,
                           PointFileFormat(input, flags.GetString("format")));
  DBSCOUT_ASSIGN_OR_RETURN(const uint64_t k, flags.GetUint("k", 0, kMaxInt));
  DBSCOUT_ASSIGN_OR_RETURN(const uint64_t sample,
                           flags.GetUint("sample", 0, kMaxSize));

  if (flags.GetBool("streaming")) {
    // Out-of-core path: one streaming pass, reservoir sample.
    DBSCOUT_ASSIGN_OR_RETURN(
        auto sampled,
        external::SampleKDistance(input, static_cast<int>(k),
                                  sample == 0 ? 5000 : sample));
    const auto& curve = sampled.curve;
    out << StrFormat(
        "streamed %llu points, sampled %zu | k=%d: max=%g median=%g "
        "min=%g\n",
        static_cast<unsigned long long>(sampled.total_points),
        sampled.sample_size, curve.k, curve.distances.front(),
        curve.distances[curve.distances.size() / 2],
        curve.distances.back());
    out << StrFormat(
        "suggested eps (sample-inflated, see docs): knee=%g "
        "upper-elbow=%g\n",
        curve.SuggestEps(), curve.SuggestEpsUpper());
    return Status::OK();
  }

  DBSCOUT_ASSIGN_OR_RETURN(PointSet points, LoadPointFile(input, format));
  DBSCOUT_ASSIGN_OR_RETURN(
      auto curve,
      analysis::ComputeKDistance(points, static_cast<int>(k), sample));
  out << StrFormat(
      "k=%d over %zu points: max=%g median=%g min=%g\n", curve.k,
      curve.distances.size(), curve.distances.front(),
      curve.distances[curve.distances.size() / 2], curve.distances.back());
  out << StrFormat("suggested eps: knee=%g upper-elbow=%g\n",
                   curve.SuggestEps(), curve.SuggestEpsUpper());
  return Status::OK();
}

Status CmdGenerate(const Flags& flags, std::ostream& out) {
  DBSCOUT_RETURN_IF_ERROR(flags.CheckAllowed(
      {"dataset", "n", "output", "seed", "contamination", "labels",
       "format"}));
  DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"dataset", "n", "output"}));
  const std::string name = flags.GetString("dataset");
  const std::string output = flags.GetString("output");
  DBSCOUT_ASSIGN_OR_RETURN(
      const PointFormat format,
      PointFileFormat(output, flags.GetString("format")));
  DBSCOUT_ASSIGN_OR_RETURN(const uint64_t n, flags.GetUint("n", 0, kMaxSize));
  DBSCOUT_ASSIGN_OR_RETURN(
      const uint64_t seed,
      flags.GetUint("seed", 1, std::numeric_limits<uint64_t>::max()));
  DBSCOUT_ASSIGN_OR_RETURN(const double contamination,
                           flags.GetDouble("contamination", 0.02));

  PointSet points(2);
  std::vector<uint8_t> labels;
  bool labeled = true;
  if (name == "blobs") {
    auto ds = datasets::Blobs(n, contamination, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "blobs-vd") {
    auto ds = datasets::BlobsVariedDensity(n, contamination, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "circles") {
    auto ds = datasets::Circles(n, contamination, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "moons") {
    auto ds = datasets::Moons(n, contamination, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "cluto-t4") {
    auto ds = datasets::ClutoT4Like(n, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "cluto-t5") {
    auto ds = datasets::ClutoT5Like(n, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "cluto-t7") {
    auto ds = datasets::ClutoT7Like(n, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "cluto-t8") {
    auto ds = datasets::ClutoT8Like(n, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "cure-t2") {
    auto ds = datasets::CureT2Like(n, seed);
    points = std::move(ds.points);
    labels = std::move(ds.labels);
  } else if (name == "geolife") {
    points = datasets::GeolifeLike(n, seed);
    labeled = false;
  } else if (name == "osm") {
    points = datasets::OsmLike(n, seed);
    labeled = false;
  } else {
    return Status::InvalidArgument("unknown --dataset=" + name);
  }

  DBSCOUT_RETURN_IF_ERROR(SavePointFile(output, points, format));
  if (flags.Has("labels")) {
    if (!labeled) {
      return Status::InvalidArgument("--labels: dataset '" + name +
                                     "' has no ground-truth labels");
    }
    std::vector<uint32_t> outlier_indices;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i]) {
        outlier_indices.push_back(static_cast<uint32_t>(i));
      }
    }
    DBSCOUT_RETURN_IF_ERROR(
        WriteIndices(flags.GetString("labels"), outlier_indices));
  }
  out << StrFormat("wrote %zu points (%zud) to %s\n", points.size(),
                   points.dims(), output.c_str());
  return Status::OK();
}

Status CmdCompare(const Flags& flags, std::ostream& out) {
  DBSCOUT_RETURN_IF_ERROR(flags.CheckAllowed({"reference", "candidate"}));
  DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"reference", "candidate"}));
  DBSCOUT_ASSIGN_OR_RETURN(auto reference,
                           ReadIndices(flags.GetString("reference")));
  DBSCOUT_ASSIGN_OR_RETURN(auto candidate,
                           ReadIndices(flags.GetString("candidate")));
  std::sort(reference.begin(), reference.end());
  std::sort(candidate.begin(), candidate.end());
  const auto diff = analysis::CompareOutlierSets(reference, candidate);
  out << StrFormat(
      "reference=%zu candidate=%zu | TP=%llu FP=%llu FN=%llu\n",
      reference.size(), candidate.size(),
      static_cast<unsigned long long>(diff.tp),
      static_cast<unsigned long long>(diff.fp),
      static_cast<unsigned long long>(diff.fn));
  return Status::OK();
}

Status CmdEvaluate(const Flags& flags, std::ostream& out) {
  DBSCOUT_RETURN_IF_ERROR(flags.CheckAllowed({"labels", "predicted"}));
  DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"labels", "predicted"}));
  // Ground truth: a file of outlier indices plus the total implied by the
  // largest predicted/true index is ambiguous, so labels are given as a
  // numeric CSV of 0/1 rows.
  DBSCOUT_ASSIGN_OR_RETURN(NumericCsv labels_csv,
                           ReadNumericCsv(flags.GetString("labels")));
  if (labels_csv.cols != 1) {
    return Status::InvalidArgument("--labels must be a single-column 0/1 CSV");
  }
  std::vector<uint8_t> truth(labels_csv.rows);
  for (size_t i = 0; i < labels_csv.rows; ++i) {
    truth[i] = labels_csv.values[i] != 0.0;
  }
  DBSCOUT_ASSIGN_OR_RETURN(auto predicted,
                           ReadIndices(flags.GetString("predicted")));
  const auto confusion = analysis::ConfusionFromIndices(truth, predicted);
  out << StrFormat(
      "precision=%.5f recall=%.5f F1=%.5f | TP=%llu FP=%llu FN=%llu "
      "TN=%llu\n",
      confusion.Precision(), confusion.Recall(), confusion.F1(),
      static_cast<unsigned long long>(confusion.tp),
      static_cast<unsigned long long>(confusion.fp),
      static_cast<unsigned long long>(confusion.fn),
      static_cast<unsigned long long>(confusion.tn));
  return Status::OK();
}

}  // namespace

int RunCli(int argc, const char* const* argv, std::ostream& out,
           std::ostream& err) {
  Result<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    err << "error: " << flags.status().message() << "\n" << kUsage;
    return 2;
  }
  const std::string& command = flags->command();
  Status status;
  if (command == "detect") {
    status = CmdDetect(*flags, out);
  } else if (command == "kdist") {
    status = CmdKdist(*flags, out);
  } else if (command == "generate") {
    status = CmdGenerate(*flags, out);
  } else if (command == "compare") {
    status = CmdCompare(*flags, out);
  } else if (command == "evaluate") {
    status = CmdEvaluate(*flags, out);
  } else if (command == "help" || command == "--help") {
    out << kUsage;
    return 0;
  } else {
    err << "error: unknown command '" << command << "'\n" << kUsage;
    return 2;
  }
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace dbscout::cli

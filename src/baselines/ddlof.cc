#include "baselines/ddlof.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "dataflow/dataset.h"
#include "dataflow/pair_ops.h"
#include "index/kdtree.h"

namespace dbscout::baselines {
namespace {

constexpr double kMaxLrd = 1e12;

/// One point's k nearest neighbors, the record type of the k-NN round.
struct KnnRecord {
  uint32_t point = 0;
  std::vector<index::Neighbor> neighbors;
};

/// Exact LOF of one point against the full dataset; used in the correction
/// round. The k-distances of the point's neighbors are memoized in
/// `k_distance_cache` (-1 = not yet computed).
double GlobalLofScore(const PointSet& points, const index::KdTree& tree,
                      uint32_t p, int k,
                      std::vector<double>* k_distance_cache) {
  auto k_dist = [&](uint32_t q) {
    double& cached = (*k_distance_cache)[q];
    if (cached < 0.0) {
      const auto knn = tree.Knn(points[q], static_cast<size_t>(k),
                                static_cast<int64_t>(q));
      cached = knn.empty() ? 0.0 : knn.back().distance;
    }
    return cached;
  };
  auto lrd_of = [&](uint32_t q) {
    const auto knn = tree.Knn(points[q], static_cast<size_t>(k),
                              static_cast<int64_t>(q));
    double reach_sum = 0.0;
    for (const auto& nb : knn) {
      reach_sum += std::max(k_dist(nb.index), nb.distance);
    }
    if (reach_sum <= 0.0 || knn.empty()) {
      return kMaxLrd;
    }
    return std::min(kMaxLrd, static_cast<double>(knn.size()) / reach_sum);
  };
  const auto knn = tree.Knn(points[p], static_cast<size_t>(k),
                            static_cast<int64_t>(p));
  if (knn.empty()) {
    return 1.0;
  }
  double neighbor_lrd_sum = 0.0;
  for (const auto& nb : knn) {
    neighbor_lrd_sum += lrd_of(nb.index);
  }
  return neighbor_lrd_sum / (static_cast<double>(knn.size()) * lrd_of(p));
}

}  // namespace

std::vector<uint32_t> DdlofResult::TopFraction(double contamination) const {
  const size_t n = scores.size();
  const size_t count = std::min(
      n, static_cast<size_t>(std::ceil(contamination * static_cast<double>(n))));
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::partial_sort(
      order.begin(), order.begin() + count, order.end(),
      [this](uint32_t a, uint32_t b) { return scores[a] > scores[b]; });
  std::vector<uint32_t> top(order.begin(), order.begin() + count);
  std::sort(top.begin(), top.end());
  return top;
}

Result<DdlofResult> Ddlof(const PointSet& points, const DdlofParams& params) {
  if (params.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (params.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  WallTimer timer;
  DdlofResult result;
  const size_t n = points.size();
  result.scores.assign(n, 1.0);
  if (n <= 1) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  const size_t kk = std::min(static_cast<size_t>(params.k), n - 1);

  // ---- Round 1: grid partitioning with support replication. ------------
  // Stripes along the widest dimension; skewed data therefore produces
  // heavily unbalanced partitions, the behaviour that sinks DDLOF in the
  // paper's Geolife experiment.
  const auto box = points.Bounds();
  size_t dim = 0;
  double width = 0.0;
  for (size_t d = 0; d < points.dims(); ++d) {
    const double extent = box.max[d] - box.min[d];
    if (extent > width) {
      width = extent;
      dim = d;
    }
  }
  const size_t parts = width > 0.0 ? params.num_partitions : 1;
  const double stripe = width > 0.0 ? width / static_cast<double>(parts) : 1.0;

  // Margin estimate: 2x a sampled high-percentile k-distance, covering the
  // lrd's one-hop dependency on neighbors' k-distances.
  const index::KdTree global_tree = index::KdTree::Build(points);
  Rng rng(params.seed);
  std::vector<double> sampled;
  const size_t samples = std::min(params.margin_sample, n);
  sampled.reserve(samples);
  for (size_t s = 0; s < samples; ++s) {
    const uint32_t i = static_cast<uint32_t>(rng.NextBounded(n));
    const auto knn = global_tree.Knn(points[i], kk, static_cast<int64_t>(i));
    sampled.push_back(knn.empty() ? 0.0 : knn.back().distance);
  }
  std::sort(sampled.begin(), sampled.end());
  const double p99 = sampled[static_cast<size_t>(
      std::min(sampled.size() - 1,
               static_cast<size_t>(0.99 * static_cast<double>(sampled.size()))))];
  const double margin = 2.0 * p99;

  auto stripe_of = [&](double x) {
    if (width <= 0.0) {
      return size_t{0};
    }
    const double t = (x - box.min[dim]) / stripe;
    const auto s = static_cast<int64_t>(std::floor(t));
    return static_cast<size_t>(
        std::clamp<int64_t>(s, 0, static_cast<int64_t>(parts) - 1));
  };

  std::vector<std::vector<uint32_t>> owned(parts);
  std::vector<std::vector<uint32_t>> support(parts);
  for (uint32_t i = 0; i < n; ++i) {
    const double x = points.at(i, dim);
    const size_t home = stripe_of(x);
    owned[home].push_back(i);
    const size_t lo = stripe_of(x - margin);
    const size_t hi = stripe_of(x + margin);
    for (size_t s = lo; s <= hi; ++s) {
      if (s != home) {
        support[s].push_back(i);
        ++result.replicated_points;
      }
    }
  }

  // ---- Round 2: per-partition k-NN of owned points. ---------------------
  dataflow::ExecutionContext ctx(/*num_threads=*/0, parts);
  const uint64_t shuffle_base = ctx.Summary().shuffled_records;
  typename dataflow::Dataset<KnnRecord>::Partitions knn_parts(parts);
  std::vector<uint32_t> corrections;
  for (size_t s = 0; s < parts; ++s) {
    if (owned[s].empty()) {
      continue;
    }
    PointSet local(points.dims());
    local.Reserve(owned[s].size() + support[s].size());
    std::vector<uint32_t> global_id;
    global_id.reserve(owned[s].size() + support[s].size());
    for (uint32_t i : owned[s]) {
      local.Add(points[i]);
      global_id.push_back(i);
    }
    for (uint32_t i : support[s]) {
      local.Add(points[i]);
      global_id.push_back(i);
    }
    result.max_partition_load =
        std::max(result.max_partition_load, local.size());
    if (local.size() <= kk) {
      // Too few local points to answer k-NN: correct everything owned.
      for (uint32_t i : owned[s]) {
        corrections.push_back(i);
      }
      continue;
    }
    const index::KdTree tree = index::KdTree::Build(local);
    knn_parts[s].reserve(owned[s].size());
    for (size_t li = 0; li < owned[s].size(); ++li) {
      KnnRecord record;
      record.point = global_id[li];
      record.neighbors = tree.Knn(local[li], kk, static_cast<int64_t>(li));
      for (auto& nb : record.neighbors) {
        nb.index = global_id[nb.index];  // translate to global point ids
      }
      if (!record.neighbors.empty() &&
          record.neighbors.back().distance > margin) {
        corrections.push_back(record.point);  // boundary-unsafe
      }
      knn_parts[s].push_back(std::move(record));
    }
  }
  auto knn_ds = dataflow::Dataset<KnnRecord>::FromPartitions(
      &ctx, std::move(knn_parts));

  // ---- Round 3: shuffled k-distance exchange -> lrd. --------------------
  // reach-dist_k(p, o) = max(k-distance(o), dist(p, o)) needs o's
  // k-distance, so every (p, o) edge is shipped to o, joined with o's
  // k-distance, and the reachability sums reduced back onto p. The narrow
  // steps are lazy and run inside the shuffle stage that reads them.
  auto kdist = knn_ds.Map([](const KnnRecord& r) {
    return std::make_pair(
        r.point, r.neighbors.empty() ? 0.0 : r.neighbors.back().distance);
  });
  auto edges = knn_ds.FlatMap<std::pair<uint32_t, std::pair<uint32_t, double>>>(
      [](const KnnRecord& r,
         std::vector<std::pair<uint32_t, std::pair<uint32_t, double>>>* sink) {
        for (const auto& nb : r.neighbors) {
          sink->push_back({nb.index, {r.point, nb.distance}});
        }
      });
  auto reach =
      Join(std::move(kdist), std::move(edges), parts, std::hash<uint32_t>(),
           "JoinKDist")
          .Map([](const std::pair<uint32_t,
                                  std::pair<double,
                                            std::pair<uint32_t, double>>>&
                      rec) {
            const double neighbor_kdist = rec.second.first;
            const uint32_t p = rec.second.second.first;
            const double dist = rec.second.second.second;
            return std::make_pair(
                p, std::make_pair(std::max(neighbor_kdist, dist), uint32_t{1}));
          });
  auto reach_per_point = ReduceByKey(
      std::move(reach),
      [](const std::pair<double, uint32_t>& a,
         const std::pair<double, uint32_t>& b) {
        return std::make_pair(a.first + b.first, a.second + b.second);
      },
      parts, std::hash<uint32_t>(), "SumReach");
  // Read by both joins of round 4; a division per point is cheaper to run
  // twice than to persist.
  auto lrd = reach_per_point.Map(
      [](const std::pair<uint32_t, std::pair<double, uint32_t>>& rec) {
        const double sum = rec.second.first;
        const double count = rec.second.second;
        const double value =
            sum <= 0.0 ? kMaxLrd : std::min(kMaxLrd, count / sum);
        return std::make_pair(rec.first, value);
      });

  // ---- Round 4: shuffled lrd exchange -> LOF. ---------------------------
  auto lrd_edges = knn_ds.FlatMap<std::pair<uint32_t, uint32_t>>(
      [](const KnnRecord& r,
         std::vector<std::pair<uint32_t, uint32_t>>* sink) {
        for (const auto& nb : r.neighbors) {
          sink->push_back({nb.index, r.point});
        }
      });
  auto neighbor_lrds =
      Join(lrd, std::move(lrd_edges), parts, std::hash<uint32_t>(), "JoinLrd")
          .Map([](const std::pair<uint32_t, std::pair<double, uint32_t>>&
                      rec) {
            return std::make_pair(
                rec.second.second,
                std::make_pair(rec.second.first, uint32_t{1}));
          });
  auto lrd_sums = ReduceByKey(
      std::move(neighbor_lrds),
      [](const std::pair<double, uint32_t>& a,
         const std::pair<double, uint32_t>& b) {
        return std::make_pair(a.first + b.first, a.second + b.second);
      },
      parts, std::hash<uint32_t>(), "SumLrd");
  auto scores = Join(std::move(lrd), std::move(lrd_sums), parts,
                     std::hash<uint32_t>(), "JoinOwnLrd");
  scores.ForEach(
      [&result](
          const std::pair<uint32_t,
                          std::pair<double, std::pair<double, uint32_t>>>&
              rec) {
        const double own_lrd = rec.second.first;
        const double neighbor_sum = rec.second.second.first;
        const double neighbor_count = rec.second.second.second;
        if (own_lrd > 0.0 && neighbor_count > 0) {
          result.scores[rec.first] =
              neighbor_sum / (neighbor_count * own_lrd);
        }
      });
  result.shuffled_records = ctx.Summary().shuffled_records - shuffle_base;

  // ---- Round 5: correction of boundary-unsafe points. -------------------
  std::sort(corrections.begin(), corrections.end());
  corrections.erase(std::unique(corrections.begin(), corrections.end()),
                    corrections.end());
  result.corrected_points = corrections.size();
  std::vector<double> k_distance_cache(n, -1.0);
  for (uint32_t p : corrections) {
    result.scores[p] = GlobalLofScore(points, global_tree, p, params.k,
                                      &k_distance_cache);
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace dbscout::baselines

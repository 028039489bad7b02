#include "service/router.h"

#include <cmath>
#include <map>
#include <utility>

#include "common/timer.h"

namespace dbscout::service {

// ---------------------------------------------------------------------------
// MergedSnapshot

const core::IncrementalSnapshot& MergedSnapshot::Home(uint32_t i,
                                                      uint32_t* local) const {
  if (single_) {
    *local = static_cast<uint32_t>(i - base_);
    return *shards_[0];
  }
  const PointLoc loc = locs_[i - base_];
  *local = loc.local;
  return *shards_[loc.shard];
}

size_t MergedSnapshot::live_points() const {
  return single_ ? shards_[0]->live_points() : live_;
}

size_t MergedSnapshot::num_cells() const {
  size_t cells = 0;
  for (const auto& shard : shards_) {
    cells += shard->num_cells();
  }
  return cells;
}

size_t MergedSnapshot::num_core() const {
  std::call_once(counts_once_, [this] {
    if (single_) {
      num_core_ = shards_[0]->num_core();
      num_outliers_ = shards_[0]->num_outliers();
      return;
    }
    for (uint64_t i = 0; i < epoch_ - base_; ++i) {
      const PointLoc loc = locs_[i];
      const core::IncrementalSnapshot& home = *shards_[loc.shard];
      if (!home.IsAlive(loc.local)) {
        continue;
      }
      const core::PointKind kind = home.KindOf(loc.local);
      if (kind == core::PointKind::kCore) {
        ++num_core_;
      } else if (kind == core::PointKind::kOutlier) {
        ++num_outliers_;
      }
    }
  });
  return num_core_;
}

size_t MergedSnapshot::num_outliers() const {
  num_core();  // shares the lazy count
  return num_outliers_;
}

core::PointKind MergedSnapshot::KindOf(uint32_t i) const {
  uint32_t local = 0;
  const core::IncrementalSnapshot& home = Home(i, &local);
  return home.KindOf(local);
}

bool MergedSnapshot::IsAlive(uint32_t i) const {
  if (i < base_) {
    return false;
  }
  uint32_t local = 0;
  const core::IncrementalSnapshot& home = Home(i, &local);
  return home.IsAlive(local);
}

std::vector<core::PointKind> MergedSnapshot::Kinds() const {
  if (single_ && base_ == 0) {
    return shards_[0]->Kinds();
  }
  std::vector<core::PointKind> kinds(epoch_, core::PointKind::kOutlier);
  for (uint64_t i = base_; i < epoch_; ++i) {
    kinds[i] = KindOf(static_cast<uint32_t>(i));
  }
  return kinds;
}

double MergedSnapshot::NearestCoreDistance(uint32_t i,
                                           uint64_t* distance_comps) const {
  uint32_t local = 0;
  const core::IncrementalSnapshot& home = Home(i, &local);
  return home.NearestCoreDistance(local, distance_comps);
}

Result<core::ProbeResult> MergedSnapshot::Classify(
    std::span<const double> point, bool want_score) const {
  // Route by the probe's dim-0 slab; the home shard holds every live
  // point within the neighbor-cell horizon of its owned slabs. Malformed
  // probes (wrong dims) fall through to shard 0, whose Classify reports
  // the error; before the first batch plans regions there are no points
  // and every shard answers identically.
  size_t shard = 0;
  if (!single_ && plan_ != nullptr && point.size() == dims_) {
    shard = plan_->RegionOf(grid::SlabOfCoord(point[0], side_));
  }
  return shards_[shard]->Classify(point, want_score);
}

// ---------------------------------------------------------------------------
// ShardRouter

Result<ShardRouter> ShardRouter::Create(const std::string& collection,
                                        size_t dims,
                                        const core::Params& params,
                                        size_t num_shards,
                                        obs::Registry* registry) {
  if (num_shards == 0) {
    num_shards = 1;
  }
  ShardRouter router;
  router.dims_ = dims;
  router.side_ = params.eps / std::sqrt(static_cast<double>(dims));
  router.next_local_.assign(num_shards, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    DBSCOUT_ASSIGN_OR_RETURN(core::IncrementalDetector detector,
                             core::IncrementalDetector::Create(dims, params));
    router.shards_.push_back(
        std::make_unique<DetectorShard>(s, std::move(detector)));
    router.shard_points_.push_back(registry->GetGauge(
        "dbscout_shard_points",
        "Points held by one detector shard (owned + ghost replicas)",
        {{"collection", collection}, {"shard", std::to_string(s)}}));
  }
  router.shard_apply_seconds_ = registry->GetHistogram(
      "dbscout_shard_apply_seconds",
      "Per-shard batch apply latency within one epoch-barriered pass");
  router.snapshot_freeze_seconds_ = registry->GetHistogram(
      "dbscout_snapshot_freeze_seconds",
      "Per-shard detector snapshot (SnapshotNow) after each applied pass");
  router.ghost_points_total_ = registry->GetCounter(
      "dbscout_ghost_points_total",
      "Ghost replicas created by the shard router's halo exchange");
  router.ghost_bytes_total_ = registry->GetCounter(
      "dbscout_ghost_bytes_total",
      "Coordinate bytes replicated into ghost halos");
  router.ghost_exchange_seconds_ = registry->GetHistogram(
      "dbscout_ghost_exchange_seconds",
      "Routing + ghost-exchange (scatter) latency per apply pass");
  return router;
}

uint64_t ShardRouter::distance_computations() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->detector().distance_computations();
  }
  return total;
}

void ShardRouter::EnsurePlan(const PointSet& adds) {
  if (plan_ != nullptr || adds.size() == 0) {
    return;
  }
  std::map<int64_t, uint64_t> histogram;
  for (size_t i = 0; i < adds.size(); ++i) {
    ++histogram[grid::SlabOfCoord(adds[i][0], side_)];
  }
  plan_ = std::make_shared<const grid::RegionPlan>(
      grid::RegionPlan::Build(histogram, shards_.size(), dims_));
}

Status ShardRouter::ApplyPass(const PointSet& adds, uint64_t expire_begin,
                              uint64_t expire_end, ThreadPool* inner_pool,
                              PassStats* stats) {
  const bool single = shards_.size() == 1;
  if (!single) {
    EnsurePlan(adds);
  }
  std::vector<DetectorShard::Work> works(shards_.size());
  for (auto& work : works) {
    work.adds = PointSet(dims_);
    work.trace_id = pass_trace_id_;
  }

  // Removals: the home copy plus every ghost replica of each expired id.
  stats->expired = expire_end - expire_begin;
  for (uint64_t id = expire_begin; id < expire_end; ++id) {
    const auto id32 = static_cast<uint32_t>(id);
    if (single) {
      works[0].removals.push_back(static_cast<uint32_t>(id - base_));
      continue;
    }
    const PointLoc home = locs_[id - base_];
    works[home.shard].removals.push_back(home.local);
    const auto ghost = ghosts_.find(id32);
    if (ghost != ghosts_.end()) {
      for (const PointLoc& replica : ghost->second) {
        works[replica.shard].removals.push_back(replica.local);
      }
      ghosts_.erase(ghost);
    }
  }

  // Scatter: route every new point to its home region and replicate it
  // into each region whose halo covers its slab (the ghost exchange).
  WallTimer scatter_timer;
  for (size_t i = 0; i < adds.size(); ++i) {
    const std::span<const double> row = adds[i];
    if (single) {
      works[0].adds.Add(row);
      ++epoch_;
      continue;
    }
    const int64_t slab = grid::SlabOfCoord(row[0], side_);
    covering_scratch_.clear();
    plan_->CoveringRegions(slab, &covering_scratch_);
    const auto gid = static_cast<uint32_t>(epoch_);
    const size_t home = covering_scratch_[0];
    locs_.PushBack(PointLoc{next_local_[home]++, static_cast<uint32_t>(home)});
    works[home].adds.Add(row);
    for (size_t k = 1; k < covering_scratch_.size(); ++k) {
      const size_t region = covering_scratch_[k];
      ghosts_[gid].push_back(
          PointLoc{next_local_[region]++, static_cast<uint32_t>(region)});
      works[region].adds.Add(row);
      ++stats->ghost_points;
    }
    ++epoch_;
  }
  stats->ghost_bytes = stats->ghost_points * dims_ * sizeof(double);
  stats->scatter_seconds = scatter_timer.ElapsedSeconds();
  // Emitted here (not after the barrier) so the span sits at its true
  // position on the timeline, before the shard_apply spans it feeds.
  if (!single && trace_ != nullptr && adds.size() > 0) {
    trace_->AddTracedSpan("ghost_exchange", "router", pass_trace_id_,
                          trace_scope_, stats->scatter_seconds,
                          stats->ghost_points);
  }
  live_ += adds.size();
  live_ -= stats->expired;

  // Dispatch to the shard loops, then barrier on every touched shard.
  // Untouched shards keep their previous snapshot, which still describes
  // their (unchanged) state exactly.
  std::vector<size_t> touched;
  for (size_t s = 0; s < works.size(); ++s) {
    if (works[s].adds.size() == 0 && works[s].removals.empty()) {
      continue;
    }
    touched.push_back(s);
    shards_[s]->BeginApply(std::move(works[s]),
                           single ? inner_pool : nullptr);
  }
  Status status = Status::OK();
  stats->shards_touched = touched.size();
  stats->apply_stats.shards = 0;
  for (const size_t s : touched) {
    const DetectorShard::Outcome& outcome = shards_[s]->AwaitApply();
    if (status.ok() && !outcome.status.ok()) {
      status = outcome.status;
    }
    stats->expire_seconds += outcome.remove_seconds;
    stats->remove_failures += outcome.remove_failures;
    if (single) {
      stats->apply_stats = outcome.apply_stats;
    } else if (works.size() > 1 && outcome.apply_seconds > 0) {
      stats->apply_stats.shards += 1;
      stats->apply_stats.shard_seconds.push_back(outcome.apply_seconds);
    }
    if (shard_apply_seconds_ != nullptr && outcome.apply_seconds > 0) {
      shard_apply_seconds_->Observe(outcome.apply_seconds);
    }
    snapshot_freeze_seconds_->Observe(outcome.freeze_seconds);
    if (shard_points_[s] != nullptr) {
      shard_points_[s]->Set(
          static_cast<int64_t>(shards_[s]->detector().live_points()));
    }
  }
  if (stats->apply_stats.shards == 0) {
    stats->apply_stats.shards = 1;
  }
  if (!single) {
    ghost_points_total_->Increment(stats->ghost_points);
    ghost_bytes_total_->Increment(stats->ghost_bytes);
    if (adds.size() > 0) {
      ghost_exchange_seconds_->Observe(stats->scatter_seconds);
    }
  }
  return status;
}

std::shared_ptr<const MergedSnapshot> ShardRouter::PublishableSnapshot() {
  std::shared_ptr<MergedSnapshot> merged(new MergedSnapshot());
  merged->shards_.reserve(shards_.size());
  for (const auto& shard : shards_) {
    merged->shards_.push_back(shard->snapshot());
  }
  merged->single_ = shards_.size() == 1;
  if (!merged->single_) {
    merged->locs_ = locs_.Freeze();
  }
  merged->plan_ = plan_;
  merged->base_ = base_;
  merged->epoch_ = epoch_;
  merged->dims_ = dims_;
  merged->live_ = static_cast<size_t>(live_);
  merged->side_ = side_;
  return merged;
}

}  // namespace dbscout::service

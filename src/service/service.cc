#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace dbscout::service {
namespace {

const char* VerbLabel(Verb verb) {
  switch (verb) {
    case Verb::kIngest:
      return "ingest";
    case Verb::kQuery:
      return "query";
    case Verb::kStats:
      return "stats";
    case Verb::kSnapshot:
      return "snapshot";
    case Verb::kMetrics:
      return "metrics";
    case Verb::kConfigure:
      return "configure";
    case Verb::kTrace:
      return "trace";
    case Verb::kHealth:
      return "health";
  }
  return "unknown";
}

/// Process self-inspection via /proc/self. Each returns 0 when the
/// platform (or a hardened /proc) cannot say — HEALTH documents 0 as
/// "unknown", never as a measured zero.
uint64_t ReadProcRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long total_pages = 0;
  unsigned long long rss_pages = 0;
  const int parsed = std::fscanf(f, "%llu %llu", &total_pages, &rss_pages);
  std::fclose(f);
  if (parsed != 2) {
    return 0;
  }
  const long page = sysconf(_SC_PAGESIZE);
  return rss_pages * static_cast<uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

uint64_t CountDirEntries(const char* dir) {
#if defined(__linux__)
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return 0;
  }
  uint64_t n = 0;
  for (const auto& entry : it) {
    (void)entry;
    ++n;
  }
  return n;
#else
  (void)dir;
  return 0;
#endif
}

uint64_t CountOpenFds() { return CountDirEntries("/proc/self/fd"); }
uint64_t CountThreads() { return CountDirEntries("/proc/self/task"); }

}  // namespace

DetectionService::DetectionService(const ServiceOptions& options)
    : options_(options),
      clock_(options.clock ? options.clock : [] { return MonotonicSeconds(); }),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::Registry::Global()),
      trace_(options.trace),
      apply_pool_(1) {
  if (const unsigned cores = std::thread::hardware_concurrency(); cores > 1) {
    apply_workers_ = std::make_unique<ThreadPool>(cores);
  }
  if (options.ttl_seconds > 0.0) {
    has_window_.store(true, std::memory_order_relaxed);
  }
  ingest_batches_total_ = registry_->GetCounter(
      "dbscout_ingest_batches_total", "INGEST batches applied");
  ingest_points_total_ = registry_->GetCounter(
      "dbscout_ingest_points_total", "Points applied by the ingest loop");
  ingest_errors_total_ = registry_->GetCounter(
      "dbscout_ingest_errors_total",
      "INGEST batches rejected mid-apply (bad dims / non-finite values)");
  shed_total_ = registry_->GetCounter(
      "dbscout_ingest_shed_total",
      "INGEST requests shed by admission control");
  collections_gauge_ =
      registry_->GetGauge("dbscout_collections", "Live collections");
  queue_wait_seconds_ = registry_->GetHistogram(
      "dbscout_ingest_queue_wait_seconds",
      "Enqueue-to-apply wait of ingest batches",
      obs::HistogramLayout::Latency());
  apply_batch_size_ = registry_->GetHistogram(
      "dbscout_apply_batch_size",
      "Ingest batches coalesced into one apply pass",
      obs::HistogramLayout::Count());
  apply_task_seconds_ = registry_->GetHistogram(
      "dbscout_apply_task_seconds",
      "Wall seconds per slab-block task of an apply pass",
      obs::HistogramLayout::Latency());
  snapshot_freeze_seconds_ = registry_->GetHistogram(
      "dbscout_snapshot_freeze_seconds",
      "Detector snapshot (SnapshotNow) after each applied pass");
  for (const Verb verb :
       {Verb::kIngest, Verb::kQuery, Verb::kStats, Verb::kSnapshot,
        Verb::kMetrics, Verb::kConfigure, Verb::kTrace, Verb::kHealth}) {
    request_seconds_[static_cast<size_t>(verb)] = registry_->GetHistogram(
        "dbscout_request_seconds", "Dispatch latency by verb",
        obs::HistogramLayout::Latency(), {{"verb", VerbLabel(verb)}});
  }
  process_rss_bytes_ = registry_->GetGauge(
      "dbscout_process_rss_bytes",
      "Resident set size of the service process (0 = unknown)");
  process_open_fds_ = registry_->GetGauge(
      "dbscout_process_open_fds",
      "Open file descriptors of the service process (0 = unknown)");
  process_threads_ = registry_->GetGauge(
      "dbscout_process_threads",
      "Threads of the service process (0 = unknown)");
  replay_records_total_ = registry_->GetCounter(
      "dbscout_replay_records_total",
      "WAL records replayed during crash recovery");
  replay_points_total_ = registry_->GetCounter(
      "dbscout_replay_points_total",
      "Live points re-ingested during crash recovery (snapshot + WAL)");
  replay_seconds_ = registry_->GetHistogram(
      "dbscout_replay_seconds", "Crash-recovery replay time per collection",
      obs::HistogramLayout::Latency());
  wal_commit_failures_total_ = registry_->GetCounter(
      "dbscout_wal_commit_failures_total",
      "Apply passes whose WAL append/commit failed (tickets carry the "
      "error)");
  // Crash recovery runs before the apply loop starts, so replay's detector
  // passes keep the single-writer contract trivially. With
  // defer_recovery both recovery AND the loop start wait for
  // RunDeferredRecovery() — the loop must not run expiry passes (which
  // share apply_workers_) concurrently with replay.
  if (!options_.data_dir.empty()) {
    recovery_state_.store(RecoveryState::kRecovering,
                          std::memory_order_relaxed);
  }
  if (!options_.defer_recovery) {
    RunDeferredRecovery();
  }
}

void DetectionService::RunDeferredRecovery() {
  if (!options_.data_dir.empty()) {
    recovery_status_ = RecoverCollections();
    if (!recovery_status_.ok()) {
      DBSCOUT_LOG(kError) << "crash recovery failed: "
                          << recovery_status_.message();
    }
    recovery_state_.store(recovery_status_.ok() ? RecoveryState::kDone
                                                : RecoveryState::kFailed,
                          std::memory_order_relaxed);
  }
  apply_pool_.Submit([this] { ApplyLoop(); });
}

DetectionService::~DetectionService() { Stop(); }

Response DetectionService::Dispatch(const Request& request) {
  WallTimer timer;
  // Resolve the trace context once: a client-stamped id wins; otherwise
  // the server stamps its own when a collector is attached, so TRACE
  // dumps link a request's spans without requiring client opt-in. With
  // tracing idle (no collector, unstamped request) trace_id stays 0 and
  // this path allocates nothing.
  uint64_t trace_id = request.context.trace_id;
  const bool client_stamped = trace_id != 0;
  if (trace_id == 0 && trace_ != nullptr) {
    trace_id = NextTraceId();
  }
  Response response = [&] {
    // Service-wide verbs first: no collection name involved, and — for
    // TRACE/HEALTH — they must answer while startup recovery still runs.
    switch (request.verb) {
      case Verb::kMetrics:
        return DoMetrics();
      case Verb::kTrace:
        return DoTrace(request);
      case Verb::kHealth:
        return DoHealth();
      default:
        break;
    }
    if (recovery_state_.load(std::memory_order_relaxed) ==
        RecoveryState::kRecovering) {
      Response busy;
      busy.verb = request.verb;
      busy.status = Status::Unavailable("startup recovery in progress");
      return busy;
    }
    if (request.collection.empty() ||
        request.collection.size() > kMaxCollectionName) {
      Response bad;
      bad.verb = request.verb;
      bad.status = Status::InvalidArgument("bad collection name");
      return bad;
    }
    switch (request.verb) {
      case Verb::kIngest:
        return DoIngest(request, trace_id);
      case Verb::kQuery:
        return DoQuery(request);
      case Verb::kStats:
        return DoStats(request);
      case Verb::kSnapshot:
        return DoSnapshot(request);
      case Verb::kConfigure:
        return DoConfigure(request);
      case Verb::kMetrics:
      case Verb::kTrace:
      case Verb::kHealth:
        break;  // handled above
    }
    Response bad;
    bad.status = Status::InvalidArgument("unknown verb");
    return bad;
  }();
  const double elapsed = timer.ElapsedSeconds();
  // The response header echoes the trace context only when the request
  // carried one (old clients must keep receiving byte-identical frames).
  response.trace_id = client_stamped ? trace_id : 0;
  response.server_seconds = elapsed;
  const size_t verb_slot = static_cast<size_t>(request.verb);
  if (verb_slot < request_seconds_.size() &&
      request_seconds_[verb_slot] != nullptr) {
    // trace_id doubles as the bucket exemplar (0 = none recorded).
    request_seconds_[verb_slot]->ObserveWithExemplar(elapsed, trace_id);
  }
  if (trace_ != nullptr && trace_id != 0) {
    // The root span of the request's trace; the decode/queue/detector/WAL
    // spans nest under it by sharing the trace id.
    trace_->AddTracedSpan(VerbLabel(request.verb), "request", trace_id,
                          request.collection, elapsed);
  }
  if (options_.slow_request_seconds >= 0.0 &&
      elapsed >= options_.slow_request_seconds) {
    DBSCOUT_LOG(kWarning) << "slow request verb=" << VerbLabel(request.verb)
                          << " collection=" << request.collection
                          << " trace="
                          << StrFormat("%016llx",
                                       static_cast<unsigned long long>(
                                           trace_id))
                          << " seconds=" << elapsed
                          << " status=" << response.status.ToString();
  }
  return response;
}

Response DetectionService::DoMetrics() {
  Response response;
  response.verb = Verb::kMetrics;
  RefreshProcessGauges();  // scrapes always carry fresh self-gauges
  response.metrics.text = registry_->Expose();
  return response;
}

Response DetectionService::DoTrace(const Request& request) {
  Response response;
  response.verb = Verb::kTrace;
  if (trace_ == nullptr) {
    response.status = Status::FailedPrecondition(
        "tracing is not enabled on this server");
    return response;
  }
  obs::TraceFilter filter;
  filter.scope = request.collection;  // empty = every collection
  filter.name = request.trace_name_filter;
  filter.trace_id = request.trace_id_filter;
  filter.limit = request.trace_limit;
  response.trace.json = trace_->ToChromeJson(filter);
  response.trace.spans_retained = trace_->size();
  response.trace.spans_dropped = trace_->dropped();
  if (response.trace.json.size() > kMaxFramePayload / 2) {
    // The filtered dump must still fit a response frame (with headroom
    // for the envelope); the client narrows with --trace-limit.
    response.trace.json.clear();
    response.status = Status::FailedPrecondition(
        "trace dump too large for one frame; narrow with a filter or "
        "limit");
  }
  return response;
}

Response DetectionService::DoHealth() {
  Response response;
  response.verb = Verb::kHealth;
  HealthAnswer& health = response.health;
  health.recovery = recovery_state_.load(std::memory_order_relaxed);
  health.uptime_seconds = UptimeSeconds();
  {
    MutexLock lock(collections_mu_);
    health.collections = collections_.size();
  }
  RefreshProcessGauges();
  health.rss_bytes = static_cast<uint64_t>(process_rss_bytes_->Value());
  health.open_fds = static_cast<uint64_t>(process_open_fds_->Value());
  health.threads = static_cast<uint64_t>(process_threads_->Value());

  if (health.recovery == RecoveryState::kRecovering) {
    health.state = HealthState::kNotReady;
    health.reason = "startup recovery in progress";
    return response;
  }
  if (health.recovery == RecoveryState::kFailed) {
    health.state = HealthState::kNotReady;
    health.reason =
        StrFormat("startup recovery failed: %s",
                  std::string(recovery_status_.message()).c_str());
    return response;
  }
  const uint64_t wal_failures = wal_commit_failures_total_->Value();
  if (wal_failures > 0) {
    health.state = HealthState::kDegraded;
    health.reason = StrFormat(
        "%llu apply passes failed their WAL commit",
        static_cast<unsigned long long>(wal_failures));
    return response;
  }
  size_t depth = 0;
  {
    MutexLock lock(mu_);
    depth = queue_.size();
  }
  if (depth >= options_.max_pending_ingests) {
    health.state = HealthState::kDegraded;
    health.reason = StrFormat(
        "ingest queue at admission cap (%zu); shedding",
        options_.max_pending_ingests);
    return response;
  }
  health.state = HealthState::kReady;
  return response;
}

void DetectionService::RefreshProcessGauges() {
  process_rss_bytes_->Set(static_cast<int64_t>(ReadProcRssBytes()));
  process_open_fds_->Set(static_cast<int64_t>(CountOpenFds()));
  process_threads_->Set(static_cast<int64_t>(CountThreads()));
}

DetectionService::Collection* DetectionService::FindCollection(
    const std::string& name) {
  MutexLock lock(collections_mu_);
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

std::vector<DetectionService::Collection*> DetectionService::AllCollections() {
  MutexLock lock(collections_mu_);
  std::vector<Collection*> all;
  all.reserve(collections_.size());
  for (auto& [name, collection] : collections_) {
    all.push_back(collection.get());
  }
  return all;
}

Result<DetectionService::Collection*> DetectionService::CollectionForIngest(
    const std::string& name, uint16_t dims, size_t coords_size) {
  if (dims == 0) {
    return Status::InvalidArgument("ingest dims must be >= 1");
  }
  if (coords_size % dims != 0) {
    return Status::InvalidArgument(
        StrFormat("coordinate count %zu is not a multiple of dims %u",
                  coords_size, dims));
  }
  MutexLock lock(collections_mu_);
  auto it = collections_.find(name);
  if (it != collections_.end()) {
    Collection* collection = it->second.get();
    if (dims != collection->dims) {
      return Status::InvalidArgument(
          StrFormat("collection '%s' has %zu dims, batch has %u",
                    name.c_str(), collection->dims, dims));
    }
    return collection;
  }
  if (collections_.size() >= kMaxCollections) {
    return Status::FailedPrecondition(
        StrFormat("collection limit (%zu) reached", kMaxCollections));
  }
  DBSCOUT_ASSIGN_OR_RETURN(std::unique_ptr<Collection> collection,
                           NewCollection(name, dims, /*first_id=*/0));
  if (!options_.data_dir.empty()) {
    storage::RecoveredCollection recovered;
    DBSCOUT_ASSIGN_OR_RETURN(collection->store, OpenStore(name, &recovered));
    if (recovered.base.epoch != 0 || recovered.base.dims != 0 ||
        !recovered.suffix.empty()) {
      // A fresh collection must start from an empty directory; anything
      // else means startup recovery did not register it (e.g. recovery
      // failed) and ingesting would silently fork from the on-disk state.
      return Status::FailedPrecondition(StrFormat(
          "collection '%s' has unrecovered on-disk state; refusing to "
          "ingest over it",
          name.c_str()));
    }
    // The create record makes dims and the creation-time TTL recoverable
    // even before the first batch commits.
    storage::WalRecord create;
    create.type = storage::WalRecordType::kCreate;
    create.dims = dims;
    create.ttl_seconds = options_.ttl_seconds;
    DBSCOUT_RETURN_IF_ERROR(collection->store->LogRecord(create));
  }
  Collection* raw = collection.get();
  collections_.emplace(name, std::move(collection));
  collections_gauge_->Set(static_cast<int64_t>(collections_.size()));
  return raw;
}

Result<std::unique_ptr<DetectionService::Collection>>
DetectionService::NewCollection(const std::string& name, uint16_t dims,
                                uint64_t first_id) {
  DBSCOUT_ASSIGN_OR_RETURN(
      core::IncrementalDetector detector,
      core::IncrementalDetector::Create(dims, options_.params, first_id));
  auto collection = std::make_unique<Collection>(name, std::move(detector));
  // Publish the empty snapshot right away so reads on a collection whose
  // first batch is still queued get a well-defined answer. The apply loop
  // cannot know this collection yet, so this thread is its only writer.
  collection->snapshot.store(collection->detector.SnapshotNow(),
                             std::memory_order_release);
  collection->ttl_seconds.store(options_.ttl_seconds,
                                std::memory_order_relaxed);
  collection->depth_gauge = registry_->GetGauge(
      "dbscout_pending_batches",
      "Ingest batches waiting in the apply queue, by collection",
      {{"collection", name}});
  return collection;
}

Status DetectionService::Enqueue(Collection* collection,
                                 std::vector<double> coords,
                                 std::shared_ptr<Ticket> ticket,
                                 uint64_t trace_id) {
  MutexLock lock(mu_);
  if (stop_) {
    return Status::Unavailable("service is shutting down");
  }
  if (queue_.size() >= options_.max_pending_ingests) {
    admission_rejections_.fetch_add(1, std::memory_order_relaxed);
    shed_total_->Increment();
    return Status::Unavailable(
        StrFormat("ingest queue at admission cap (%zu); retry later",
                  options_.max_pending_ingests));
  }
  queue_.push_back(PendingIngest{collection, std::move(coords),
                                 std::move(ticket), MonotonicSeconds(),
                                 trace_id});
  ++enqueued_;
  collection->depth_gauge->Set(static_cast<int64_t>(
      collection->queue_depth.fetch_add(1, std::memory_order_relaxed) + 1));
  queue_cv_.NotifyOne();
  return Status::OK();
}

Response DetectionService::DoIngest(const Request& request,
                                    uint64_t trace_id) {
  Response response;
  response.verb = Verb::kIngest;
  auto found =
      CollectionForIngest(request.collection, request.dims,
                          request.coords.size());
  if (!found.ok()) {
    response.status = found.status();
    return response;
  }
  auto ticket = std::make_shared<Ticket>();
  response.status = Enqueue(*found, request.coords, ticket, trace_id);
  if (!response.status.ok()) {
    return response;
  }
  MutexLock lock(mu_);
  while (!ticket->done) {
    tickets_cv_.Wait(mu_);
  }
  response.status = ticket->status;
  response.epoch = ticket->epoch;
  return response;
}

Status DetectionService::IngestAsync(const std::string& collection,
                                     uint16_t dims,
                                     std::vector<double> coords) {
  DBSCOUT_ASSIGN_OR_RETURN(
      Collection * target,
      CollectionForIngest(collection, dims, coords.size()));
  return Enqueue(target, std::move(coords), nullptr);
}

Response DetectionService::DoQuery(const Request& request) {
  Response response;
  response.verb = Verb::kQuery;
  Collection* collection = FindCollection(request.collection);
  if (collection == nullptr) {
    response.status = Status::NotFound(
        StrFormat("no collection '%s'", request.collection.c_str()));
    return response;
  }
  const std::shared_ptr<const core::IncrementalSnapshot> snap =
      collection->snapshot.load(std::memory_order_acquire);
  WallTimer timer;
  uint64_t distance_comps = 0;
  const uint64_t epoch = snap->epoch();
  response.query.epoch = epoch;
  if (request.query_by_id) {
    if (request.query_id >= epoch) {
      response.status = Status::OutOfRange(
          StrFormat("point id %u >= snapshot epoch %llu", request.query_id,
                    static_cast<unsigned long long>(epoch)));
      return response;
    }
    if (request.query_id < snap->window_begin()) {
      // Expired, in this process or before a restart: no row is held.
      response.status = Status::NotFound(StrFormat(
          "point id %u expired (ids below %llu are gone)", request.query_id,
          static_cast<unsigned long long>(snap->window_begin())));
      return response;
    }
    response.query.kind = snap->KindOf(request.query_id);
    if (request.want_score) {
      response.query.score =
          snap->NearestCoreDistance(request.query_id, &distance_comps);
      response.query.has_score = true;
    }
  } else {
    auto probe = snap->Classify(request.query_point, request.want_score);
    if (!probe.ok()) {
      response.status = probe.status();
      return response;
    }
    distance_comps = probe->distance_comps;
    response.query.kind = probe->kind;
    if (request.want_score) {
      response.query.score = probe->score;
      response.query.has_score = true;
    }
  }
  {
    MutexLock lock(collection->stats_mu);
    collection->recorder.Accumulate("query", timer.ElapsedSeconds(),
                                    distance_comps, 1);
  }
  return response;
}

Response DetectionService::DoStats(const Request& request) {
  Response response;
  response.verb = Verb::kStats;
  Collection* collection = FindCollection(request.collection);
  if (collection == nullptr) {
    response.status = Status::NotFound(
        StrFormat("no collection '%s'", request.collection.c_str()));
    return response;
  }
  const std::shared_ptr<const core::IncrementalSnapshot> snap =
      collection->snapshot.load(std::memory_order_acquire);
  StatsAnswer& stats = response.stats;
  stats.epoch = snap->epoch();
  stats.num_points = stats.epoch;
  stats.num_core = snap->num_core();
  stats.num_cells = snap->num_cells();
  stats.num_outliers = snap->num_outliers();
  stats.admission_rejections = admission_rejections();
  stats.uptime_seconds = UptimeSeconds();
  stats.live_points = snap->live_points();
  stats.window_begin = snap->window_begin();
  stats.queue_depth = collection->queue_depth.load(std::memory_order_relaxed);
  stats.ttl_seconds = collection->ttl_seconds.load(std::memory_order_relaxed);
  {
    MutexLock lock(collection->stats_mu);
    for (const core::PhaseStats& row : collection->recorder.phases()) {
      stats.phases.push_back(StatsRow{row.name, row.seconds,
                                      row.distance_computations,
                                      row.records});
    }
    if (collection->ingest_errors > 0) {
      stats.phases.push_back(
          StatsRow{"ingest_errors", 0.0, 0, collection->ingest_errors});
    }
  }
  // Service-wide per-verb latency quantiles; verbs never dispatched are
  // omitted (count 0 carries no information).
  for (size_t v = 1; v < request_seconds_.size(); ++v) {
    obs::Histogram* histogram = request_seconds_[v];
    if (histogram == nullptr) {
      continue;
    }
    const obs::Histogram::Snapshot snap = histogram->Snap();
    if (snap.count == 0) {
      continue;
    }
    LatencyRow row;
    row.verb = VerbLabel(static_cast<Verb>(v));
    row.count = snap.count;
    row.p50_seconds = snap.Quantile(0.5);
    row.p99_seconds = snap.Quantile(0.99);
    row.p999_seconds = snap.Quantile(0.999);
    stats.latencies.push_back(std::move(row));
  }
  return response;
}

Response DetectionService::DoSnapshot(const Request& request) {
  Response response;
  response.verb = Verb::kSnapshot;
  Collection* collection = FindCollection(request.collection);
  if (collection == nullptr) {
    response.status = Status::NotFound(
        StrFormat("no collection '%s'", request.collection.c_str()));
    return response;
  }
  const std::shared_ptr<const core::IncrementalSnapshot> snap =
      collection->snapshot.load(std::memory_order_acquire);
  SnapshotAnswer& answer = response.snapshot;
  answer.epoch = snap->epoch();
  // Two bytes per global id (kind + alive), expired ids included: past
  // the frame cap (with headroom for the envelope) the transport
  // could not send the reply, so refuse before building it.
  if (answer.epoch > (kMaxFramePayload - 4096) / 2) {
    response.status = Status::FailedPrecondition(StrFormat(
        "snapshot of %llu ids too large for one frame; use STATS or QUERY",
        static_cast<unsigned long long>(answer.epoch)));
    return response;
  }
  answer.num_core = snap->num_core();
  answer.num_cells = snap->num_cells();
  // The arrays span global ids [0, epoch). An id is live iff it is in
  // [window_begin, epoch); expired ids have no row, so they read dead,
  // with kind kOutlier.
  const uint64_t window_begin = snap->window_begin();
  answer.alive.assign(window_begin, 0);
  answer.alive.resize(answer.epoch, 1);
  answer.kinds.assign(window_begin, core::PointKind::kOutlier);
  answer.kinds.reserve(answer.epoch);
  for (uint64_t id = window_begin; id < answer.epoch; ++id) {
    answer.kinds.push_back(snap->KindOf(id));
  }
  return response;
}

Response DetectionService::DoConfigure(const Request& request) {
  Response response;
  response.verb = Verb::kConfigure;
  if (!std::isfinite(request.ttl_seconds) || request.ttl_seconds < 0.0) {
    response.status =
        Status::InvalidArgument("ttl_seconds must be finite and >= 0");
    return response;
  }
  Collection* collection = FindCollection(request.collection);
  if (collection == nullptr) {
    response.status = Status::NotFound(
        StrFormat("no collection '%s'", request.collection.c_str()));
    return response;
  }
  if (collection->store != nullptr) {
    // Durable first, visible second: a TTL the apply loop acts on is
    // always recoverable. LogConfigure syncs unconditionally (rare
    // control-plane write); the store's own mutex serializes this
    // caller-thread append with the apply loop's.
    response.status = collection->store->LogConfigure(request.ttl_seconds);
    if (!response.status.ok()) {
      return response;
    }
  }
  collection->ttl_seconds.store(request.ttl_seconds,
                                std::memory_order_relaxed);
  if (request.ttl_seconds > 0.0) {
    has_window_.store(true, std::memory_order_relaxed);
    // Wake the apply loop so it switches to periodic expiry wakeups.
    MutexLock lock(mu_);
    queue_cv_.NotifyAll();
  }
  response.configure.ttl_seconds = request.ttl_seconds;
  return response;
}

void DetectionService::Drain() {
  MutexLock lock(mu_);
  const uint64_t target = enqueued_;
  while (applied_ < target) {
    tickets_cv_.Wait(mu_);
  }
}

void DetectionService::SweepExpiredNow() {
  auto ticket = std::make_shared<Ticket>();
  {
    MutexLock lock(mu_);
    if (stop_) {
      return;
    }
    // Bypasses the admission cap: an expiry tick carries no points.
    queue_.push_back(PendingIngest{nullptr, {}, ticket, MonotonicSeconds()});
    ++enqueued_;
    queue_cv_.NotifyOne();
  }
  MutexLock lock(mu_);
  while (!ticket->done) {
    tickets_cv_.Wait(mu_);
  }
}

void DetectionService::Stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    queue_cv_.NotifyAll();
  }
  apply_pool_.WaitIdle();
}

void DetectionService::SetApplyPausedForTest(bool paused) {
  MutexLock lock(mu_);
  apply_paused_ = paused;
  queue_cv_.NotifyAll();
}

void DetectionService::ApplyLoop() {
  for (;;) {
    std::vector<PendingIngest> batch;
    bool expiry_tick = false;
    {
      MutexLock lock(mu_);
      // Stop overrides a test pause: shutdown always drains the queue.
      // While any collection has a TTL window, sleep in bounded slices so
      // expiry runs even with no traffic.
      for (;;) {
        if (stop_ || (!queue_.empty() && !apply_paused_)) {
          break;
        }
        if (has_window_.load(std::memory_order_relaxed)) {
          if (queue_cv_.WaitFor(mu_, std::chrono::milliseconds(100)) ==
              std::cv_status::timeout) {
            expiry_tick = true;
            break;
          }
        } else {
          queue_cv_.Wait(mu_);
        }
      }
      // Stop overrides a pause: shutdown always drains what is queued.
      const bool can_take = !queue_.empty() && (!apply_paused_ || stop_);
      if (!can_take) {
        if (stop_) {
          return;  // stop with an empty queue (pause never outlives stop)
        }
        if (!expiry_tick) {
          continue;
        }
        // Fall through with an empty batch: expiry-only pass.
      } else {
        // Coalesce: take everything queued so this pass runs one detector
        // apply and publishes one snapshot per touched collection no
        // matter how many batches piled up behind a slow apply. The depth
        // drops here, under mu_ like Enqueue's rise, so the gauge can never
        // be overwritten with a stale value.
        batch.reserve(queue_.size());
        while (!queue_.empty()) {
          PendingIngest& op = batch.emplace_back(std::move(queue_.front()));
          queue_.pop_front();
          if (Collection* collection = op.collection) {
            const uint64_t depth =
                collection->queue_depth.fetch_sub(1, std::memory_order_relaxed);
            collection->depth_gauge->Set(static_cast<int64_t>(depth - 1));
          }
        }
      }
    }
    ApplyPass(std::move(batch));
  }
}

bool DetectionService::ComputeExpiry(Collection* collection, double now,
                                     uint64_t* begin, uint64_t* end) {
  *begin = *end = collection->detector.window_begin();
  const double ttl = collection->ttl_seconds.load(std::memory_order_relaxed);
  if (ttl <= 0.0 || collection->stamps.empty()) {
    return false;
  }
  while (!collection->stamps.empty() &&
         now - collection->stamps.front().seconds >= ttl) {
    *end = collection->stamps.front().end_epoch;
    collection->stamps.pop_front();
  }
  return *end != *begin;
}

void DetectionService::ApplyPass(std::vector<PendingIngest> batch) {
  // What this pass does to one collection: the WAL records it logs, in
  // log order.
  struct CollectionPass {
    Collection* collection = nullptr;
    std::vector<storage::WalRecord> ingests;  // one per accepted batch
    /// The aged-out range, logged after the ingests and applied after the
    /// acknowledgement.
    std::optional<storage::WalRecord> expire;
    uint64_t next_id = 0;  // global id of the next accepted point
    uint64_t points = 0;   // rows of the ingest records
    uint64_t errors = 0;   // batches refused by validation
    /// Trace id of the collection's first traced op: its detector, WAL
    /// and publish spans are attributed to it (a pass serves many
    /// requests; one representative links the trace end-to-end).
    uint64_t trace_id = 0;
    /// The apply or WAL failure of this collection's pass; it fails every
    /// ticket of the collection (durability barrier).
    Status status;
  };
  std::vector<CollectionPass> passes;
  std::unordered_map<Collection*, size_t> pass_of;
  const auto pass_for = [&](Collection* collection) -> CollectionPass& {
    auto [it, fresh] = pass_of.try_emplace(collection, passes.size());
    if (fresh) {
      CollectionPass& pass = passes.emplace_back();
      pass.collection = collection;
      pass.next_id = collection->detector.epoch();
    }
    return passes[it->second];
  };
  const auto span = [&](const CollectionPass& pass, const char* name,
                        double seconds, uint64_t records) {
    if (trace_ != nullptr) {
      trace_->AddTracedSpan(name, "service", pass.trace_id,
                            pass.collection->name, seconds, records);
    }
  };
  const auto freeze = [&](const CollectionPass& pass) {
    WallTimer timer;
    std::shared_ptr<const core::IncrementalSnapshot> snapshot =
        pass.collection->detector.SnapshotNow();
    const double seconds = timer.ElapsedSeconds();
    snapshot_freeze_seconds_->Observe(seconds);
    span(pass, "snapshot_freeze", seconds, 0);
    return snapshot;
  };
  // The replaced snapshots are held until the pass returns: tearing one
  // down (its cell map, its last shared chunks) is off the
  // acknowledgement path. The release exchange pairs with readers'
  // acquire.
  std::vector<std::shared_ptr<const core::IncrementalSnapshot>> retired;
  const auto publish =
      [&](const CollectionPass& pass,
          std::shared_ptr<const core::IncrementalSnapshot> snapshot) {
        WallTimer timer;
        retired.push_back(pass.collection->snapshot.exchange(
            std::move(snapshot), std::memory_order_acq_rel));
        span(pass, "snapshot_publish", timer.ElapsedSeconds(), pass.points);
      };

  WallTimer pass_timer;
  const double apply_start = MonotonicSeconds();
  uint64_t real_ops = 0;
  uint64_t pass_trace_id = 0;  // the first traced op's

  // ---- One ingest record per client batch that validates, in queue
  // order, taking the next global ids. A malformed batch is rejected
  // atomically (its ticket carries the error) and never reaches the
  // coalesced apply; it and a zero-point batch log nothing. ----
  for (PendingIngest& op : batch) {
    if (op.collection == nullptr) {
      continue;  // expiry tick: no points, completed with the pass
    }
    ++real_ops;
    Collection* collection = op.collection;
    const double wait_seconds = apply_start - op.enqueue_seconds;
    queue_wait_seconds_->Observe(wait_seconds);
    if (trace_ != nullptr && op.trace_id != 0) {
      // Ends (approximately) at apply_start, i.e. where the apply work
      // for this op begins — the gap the request spent queued.
      trace_->AddTracedSpan("queue_wait", "service", op.trace_id,
                            collection->name, wait_seconds);
    }
    CollectionPass& pass = pass_for(collection);
    pass.trace_id = pass.trace_id != 0 ? pass.trace_id : op.trace_id;
    pass_trace_id = pass_trace_id != 0 ? pass_trace_id : op.trace_id;
    const size_t dims = collection->dims;
    const size_t count = op.coords.size() / dims;
    Status status;
    for (size_t i = 0; i < count && status.ok(); ++i) {
      status = collection->detector.ValidatePoint(
          std::span<const double>(op.coords.data() + i * dims, dims));
    }
    if (!status.ok()) {
      ++pass.errors;
    } else if (count > 0) {
      storage::WalRecord ingest;
      ingest.type = storage::WalRecordType::kIngest;
      ingest.dims = static_cast<uint16_t>(dims);
      ingest.base_epoch = pass.next_id;  // replay cross-checks its epoch
      ingest.coords = std::move(op.coords);
      pass.ingests.push_back(std::move(ingest));
      pass.next_id += count;
      pass.points += count;
    }
    if (op.ticket != nullptr) {
      // Safe without mu_: the waiter only reads these after `done` flips
      // under mu_ below.
      op.ticket->status = std::move(status);
      op.ticket->epoch = pass.next_id;
    }
  }

  // ---- Expiry: every collection with a TTL window records its aged-out
  // global-id range (also reached via timer wakeups and SweepExpiredNow
  // ticks with an empty/tick-only batch). Stamps cover only earlier
  // passes, so the range ends at or before this pass's first id and never
  // removes its own adds. The decision is recorded, not recomputed:
  // replay removes exactly this range regardless of the clock at recovery
  // time. ----
  const double now = clock_();
  for (Collection* collection : AllCollections()) {
    storage::WalRecord expire;
    expire.type = storage::WalRecordType::kExpire;
    if (ComputeExpiry(collection, now, &expire.expire_begin,
                      &expire.expire_end)) {
      pass_for(collection).expire = std::move(expire);
    }
  }

  // ---- Per touched collection, up to the acknowledgement: apply the
  // ingest records (one coalesced add in slab-block waves on
  // apply_workers_), freeze the snapshot, log the ingests, then the
  // kExpire, group-commit them, publish. Apply comes before append, so a
  // failed apply never reaches the log, and the commit makes the records
  // as durable as the fsync policy promises before any ticket completes.
  // A failed append or commit fails the collection's tickets; the
  // in-memory state already holds the batch, so a client retry re-ingests
  // it, and restart recovers only what the WAL holds. Collections run
  // strictly one after another so the shared wave pool is never contended
  // by two detectors. ----
  uint64_t pass_points = 0;
  uint64_t pass_errors = 0;
  for (CollectionPass& pass : passes) {
    Collection* collection = pass.collection;
    core::IncrementalDetector& detector = collection->detector;
    const uint64_t comps = detector.distance_computations();
    double apply_seconds = 0.0;
    std::shared_ptr<const core::IncrementalSnapshot> snapshot;
    if (!pass.ingests.empty()) {
      WallTimer timer;
      pass.status = ApplyRecords(collection, pass.ingests);
      apply_seconds = timer.ElapsedSeconds();
      span(pass, "detector_apply", apply_seconds, pass.points);
      snapshot = freeze(pass);
    }
    if (!pass.status.ok()) {
      // Pre-validation makes this unreachable short of detector-level
      // capacity errors; the tickets carry it.
      DBSCOUT_LOG(kWarning) << "collection '" << collection->name
                            << "': apply failed: " << pass.status.message();
    } else {
      pass_points += pass.points;
      if (pass.points > 0) {
        collection->stamps.push_back(
            Collection::StampRange{pass.next_id, now});
      }
      if (storage::CollectionStore* store = collection->store.get()) {
        for (size_t i = 0; i < pass.ingests.size() && pass.status.ok(); ++i) {
          pass.status = store->LogRecord(pass.ingests[i]);
        }
        if (pass.status.ok() && pass.expire) {
          pass.status = store->LogRecord(*pass.expire);
        }
        if (pass.status.ok()) {
          pass.status = store->Commit(pass.trace_id);
        }
        if (!pass.status.ok()) {
          wal_commit_failures_total_->Increment();
          DBSCOUT_LOG(kError) << "wal commit failed: "
                              << pass.status.message();
        }
      }
    }
    if (snapshot != nullptr) {
      publish(pass, std::move(snapshot));
    }
    pass_errors += pass.errors;
    if (pass.ingests.empty() && pass.errors == 0) {
      continue;  // no ingest op reached this collection
    }
    MutexLock lock(collection->stats_mu);
    collection->recorder.Accumulate(
        "apply", apply_seconds, detector.distance_computations() - comps,
        pass.points);
    collection->ingest_errors += pass.errors;
  }

  if (!batch.empty()) {
    apply_batch_size_->Observe(static_cast<double>(real_ops));
    ingest_batches_total_->Increment(real_ops);
    ingest_points_total_->Increment(pass_points);
    ingest_errors_total_->Increment(pass_errors);
    if (trace_ != nullptr) {
      // One span per coalesced apply pass, attributed to the apply thread
      // and (when any op was traced) to the first traced op's id.
      trace_->AddTracedSpan("apply_pass", "service", pass_trace_id,
                            /*scope=*/"", pass_timer.ElapsedSeconds(),
                            pass_points);
    }
    // Acknowledge the INGESTs now: the epoch a blocking INGEST returns is
    // covered by a published snapshot and a committed WAL.
    MutexLock lock(mu_);
    for (PendingIngest& op : batch) {
      if (op.ticket == nullptr || op.collection == nullptr) {
        continue;
      }
      if (op.ticket->status.ok()) {
        op.ticket->status = passes[pass_of.at(op.collection)].status;
      }
      op.ticket->done = true;
    }
    tickets_cv_.NotifyAll();
  }

  // ---- After the acknowledgement, the one place a kExpire applies: each
  // collection's logged range is expired, frozen and published. No INGEST
  // waits on it (an acknowledgement promises only the client's own
  // points); a crash before this publish recovers the post-expiry window
  // from the log. It applies after a failed pass too, so the detector's
  // window_begin never offers the range again. Its spans start after
  // apply_pass closed, so they nest under no pass. ----
  for (CollectionPass& pass : passes) {
    if (!pass.expire) {
      continue;
    }
    const storage::WalRecord& expire = *pass.expire;
    Collection* collection = pass.collection;
    core::IncrementalDetector& detector = collection->detector;
    const uint64_t comps = detector.distance_computations();
    WallTimer timer;
    if (const Status expired = detector.ExpireBefore(expire.expire_end);
        !expired.ok()) {
      DBSCOUT_LOG(kWarning) << "collection '" << collection->name
                            << "': expire failed: " << expired.ToString();
    }
    const double expire_seconds = timer.ElapsedSeconds();
    const uint64_t expired = expire.expire_end - expire.expire_begin;
    span(pass, "expire", expire_seconds, expired);
    publish(pass, freeze(pass));
    MutexLock lock(collection->stats_mu);
    collection->recorder.Accumulate(
        "expire", expire_seconds, detector.distance_computations() - comps,
        expired);
  }

  if (batch.empty()) {
    return;  // timer wakeup: nothing to count, nobody to complete
  }
  // The pass counts as applied (Drain) and the expiry ticks complete
  // (SweepExpiredNow) only once every expiry is published.
  MutexLock lock(mu_);
  applied_ += batch.size();
  for (PendingIngest& op : batch) {
    if (op.ticket != nullptr && op.collection == nullptr) {
      op.ticket->done = true;
    }
  }
  tickets_cv_.NotifyAll();
  // `retired` drops on return, after the acknowledgements: a reader that
  // still holds one of these snapshots keeps it alive past this point.
}

Status DetectionService::ApplyRecords(
    Collection* collection, std::span<const storage::WalRecord> ingests) {
  // Gather every row before touching the detector; the rows must continue
  // the collection's ids with no gap (the continuity rule
  // storage::ApplyRecordToState enforces on replay).
  std::vector<double> rows;
  uint64_t next_id = collection->detector.epoch();
  for (const storage::WalRecord& record : ingests) {
    if (record.type != storage::WalRecordType::kIngest) {
      return Status::Internal(
          StrFormat("collection '%s': only ingest records apply here",
                    collection->name.c_str()));
    }
    if (record.base_epoch != next_id) {
      return Status::Internal(StrFormat(
          "ingest record at epoch %llu but collection '%s' is at %llu",
          static_cast<unsigned long long>(record.base_epoch),
          collection->name.c_str(),
          static_cast<unsigned long long>(next_id)));
    }
    next_id += record.coords.size() / collection->dims;
    rows.insert(rows.end(), record.coords.begin(), record.coords.end());
  }
  if (rows.empty()) {
    return Status::OK();
  }
  DBSCOUT_ASSIGN_OR_RETURN(
      PointSet adds, PointSet::FromRowMajor(collection->dims, std::move(rows)));
  core::ApplyStats apply_stats;
  const Status added = collection->detector.AddBatchParallel(
      adds, apply_workers_.get(), &apply_stats);
  for (double task_seconds : apply_stats.task_seconds) {
    apply_task_seconds_->Observe(task_seconds);
  }
  return added;
}

// ---------------------------------------------------------------------------
// Durability: store plumbing and crash recovery

Result<std::unique_ptr<storage::CollectionStore>> DetectionService::OpenStore(
    const std::string& name, storage::RecoveredCollection* recovered) {
  storage::StoreOptions store_options;
  store_options.fsync = options_.wal_fsync;
  store_options.snapshot_interval_bytes = options_.snapshot_interval_bytes;
  store_options.clock = clock_;
  store_options.registry = registry_;
  store_options.trace = trace_;
  store_options.collection = name;
  return storage::CollectionStore::Open(
      options_.data_dir + "/" + storage::EncodeCollectionDirName(name),
      store_options, recovered);
}

Status DetectionService::RecoverCollections() {
  namespace fs = std::filesystem;
  std::error_code ec;
  const bool created = fs::create_directories(options_.data_dir, ec);
  if (ec) {
    return Status::IoError(StrFormat("create data dir %s: %s",
                                     options_.data_dir.c_str(),
                                     ec.message().c_str()));
  }
  if (created) {
    // Like a collection directory (store.cc): durable before any ack.
    DBSCOUT_RETURN_IF_ERROR(storage::SyncParentDir(options_.data_dir));
  }
  std::vector<std::pair<std::string, std::string>> found;  // name -> dir
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.data_dir, ec)) {
    std::error_code type_ec;
    if (!entry.is_directory(type_ec) || type_ec) {
      continue;  // stray files in the data dir are not ours to interpret
    }
    const std::string dir_name = entry.path().filename().string();
    auto name = storage::DecodeCollectionDirName(dir_name);
    if (!name.ok()) {
      return Status::IoError(
          StrFormat("unrecognized entry '%s' in data dir %s: %s",
                    dir_name.c_str(), options_.data_dir.c_str(),
                    name.status().message().c_str()));
    }
    found.emplace_back(std::move(*name), entry.path().string());
  }
  if (ec) {
    return Status::IoError(StrFormat("scan data dir %s: %s",
                                     options_.data_dir.c_str(),
                                     ec.message().c_str()));
  }
  std::sort(found.begin(), found.end());  // deterministic recovery order
  for (const auto& [name, dir] : found) {
    const Status status = RecoverCollection(name);
    if (!status.ok()) {
      return Status(status.code(),
                    StrFormat("recover collection '%s' from %s: %s",
                              name.c_str(), dir.c_str(),
                              status.message().c_str()));
    }
  }
  return Status::OK();
}

Status DetectionService::RecoverCollection(const std::string& name) {
  WallTimer timer;
  storage::RecoveredCollection recovered;
  DBSCOUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::CollectionStore> store,
                           OpenStore(name, &recovered));
  // Fold the WAL suffix onto the snapshot base: the state loaded below is
  // exactly what a compaction at this point would write. Each record's
  // coordinates are released once folded, so the points are held once.
  storage::CollectionState state = std::move(recovered.base);
  for (storage::WalRecord& record : recovered.suffix) {
    DBSCOUT_RETURN_IF_ERROR(storage::ApplyRecordToState(record, &state));
    std::vector<double>().swap(record.coords);
  }
  if (state.dims == 0) {
    // A crash before the create record became durable: nothing usable on
    // disk. The next ingest of this name re-creates the collection (and
    // reopens this directory, which recovers as empty again).
    DBSCOUT_LOG(kInfo) << "collection '" << name
                       << "': empty durability dir, nothing to recover";
    return store->Close();
  }
  const uint64_t points = state.epoch - state.window_begin;
  DBSCOUT_ASSIGN_OR_RETURN(std::unique_ptr<Collection> collection,
                           NewCollection(name, state.dims,
                                         state.window_begin));
  collection->store = std::move(store);
  DBSCOUT_RETURN_IF_ERROR(LoadCollection(collection.get(), std::move(state)));
  replay_records_total_->Increment(recovered.suffix.size());
  replay_points_total_->Increment(points);
  replay_seconds_->Observe(timer.ElapsedSeconds());
  MutexLock lock(collections_mu_);
  collections_.emplace(name, std::move(collection));
  collections_gauge_->Set(static_cast<int64_t>(collections_.size()));
  return Status::OK();
}

Status DetectionService::LoadCollection(Collection* collection,
                                        storage::CollectionState state) {
  // The state holds only the live rows [window_begin, epoch), and the
  // detector starts at window_begin, so the live points keep their global
  // ids and load as one ingest record, the way live traffic does.
  storage::WalRecord live;
  live.type = storage::WalRecordType::kIngest;
  live.dims = state.dims;
  live.base_epoch = state.window_begin;
  live.coords = std::move(state.coords);
  DBSCOUT_RETURN_IF_ERROR(ApplyRecords(collection, {&live, 1}));
  collection->ttl_seconds.store(state.ttl_seconds, std::memory_order_relaxed);
  if (state.ttl_seconds > 0.0) {
    has_window_.store(true, std::memory_order_relaxed);
  }
  // The window and the epoch end exactly where the durable log ended, so
  // neither rewinds across a restart.
  if (state.epoch > state.window_begin) {
    // Re-stamp the surviving range at recovery time: the WAL records no
    // wall-clock provenance, so recovered points live one more full TTL
    // from now (never less than they would have).
    collection->stamps.push_back(
        Collection::StampRange{state.epoch, clock_()});
  }
  collection->snapshot.store(collection->detector.SnapshotNow(),
                             std::memory_order_release);
  return Status::OK();
}

Status DetectionService::CompactNow() {
  for (Collection* collection : AllCollections()) {
    if (collection->store != nullptr) {
      DBSCOUT_RETURN_IF_ERROR(collection->store->CompactNow());
    }
  }
  return Status::OK();
}

}  // namespace dbscout::service

#ifndef DBSCOUT_SERVICE_SERVICE_H_
#define DBSCOUT_SERVICE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "core/params.h"
#include "core/phases/phase_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "storage/store.h"
#include "storage/wal.h"

namespace dbscout::service {

/// Collections are created implicitly by the first INGEST; this bounds how
/// many a misbehaving client can create.
inline constexpr size_t kMaxCollections = 64;

struct ServiceOptions {
  /// Detection parameters applied to every collection the service creates.
  core::Params params;

  /// Admission cap: INGEST requests beyond this many queued batches are
  /// shed with kUnavailable instead of growing the queue without bound.
  size_t max_pending_ingests = 256;

  /// Sliding-window TTL (seconds) applied to every collection at creation;
  /// 0 means append-only. Points older than the TTL are expired by the
  /// apply loop at ingest-batch granularity. Per-collection override via
  /// the CONFIGURE verb.
  double ttl_seconds = 0.0;

  /// Monotonic clock (seconds) for TTL expiry; null uses
  /// MonotonicSeconds(). Tests inject a fake clock to drive expiry
  /// deterministically.
  std::function<double()> clock;

  /// Durability root. Empty keeps the service purely in-memory (the
  /// pre-durability behavior). When set, every collection gets a
  /// subdirectory under it with a write-ahead log and periodic snapshots
  /// (storage::CollectionStore), the apply loop gains a durability
  /// barrier (a ticket completes only after its WAL frames are committed
  /// under wal_fsync), and construction recovers whatever the directory
  /// holds (see RecoverCollection). Check recovery_status() after
  /// construction.
  std::string data_dir;

  /// When WAL appends are fdatasync'd relative to ingest acknowledgement
  /// (see storage::FsyncPolicy for the loss contract per mode). kInterval
  /// uses the store's default interval (StoreOptions).
  storage::FsyncPolicy wal_fsync = storage::FsyncPolicy::kAlways;

  /// Compact a collection's WAL into a snapshot once its active segment
  /// exceeds this many bytes (0 disables automatic compaction).
  uint64_t snapshot_interval_bytes = 64u << 20;

  /// Metrics registry the service publishes into (and the METRICS verb
  /// scrapes). Null selects obs::Registry::Global(); tests pass a local
  /// registry for isolation. Not owned.
  obs::Registry* registry = nullptr;

  /// When non-null, the apply loop emits one span per apply pass (and the
  /// per-collection detection work inherits it). Not owned.
  obs::TraceCollector* trace = nullptr;

  /// Requests whose Dispatch latency reaches this many seconds are logged
  /// as structured slow-request records (verb, collection, trace id,
  /// seconds). Negative disables the log; 0 logs every request.
  double slow_request_seconds = -1.0;

  /// When true, the constructor neither runs crash recovery nor starts
  /// the apply loop; the owner must call RunDeferredRecovery() exactly
  /// once (from the constructing thread, before any ingest). This lets a
  /// server bind its socket and answer HEALTH with kNotReady while a long
  /// WAL replay runs; collection verbs are refused with kUnavailable
  /// until recovery completes.
  bool defer_recovery = false;
};

/// The long-running detection service: one IncrementalDetector per named
/// collection, maintained by a single-writer apply loop, with lock-free
/// snapshot reads.
///
/// Concurrency design:
///  - All mutations flow through one apply loop (a long-running task on a
///    private one-thread pool). Each pass swaps out the *entire* pending
///    queue and turns each touched collection's share of it into the WAL
///    records it logs (one ingest per accepted batch, then an expiry).
///    ApplyRecords applies the ingests as one detector pass (its
///    slab-block waves fan out on apply_workers_), then the pass logs
///    every record and publishes one fresh snapshot — so N queued batches
///    cost one detector pass and one snapshot, not N. Recovery loads
///    through the same ApplyRecords.
///  - Sliding windows: collections with a TTL expire ingest batches whose
///    stamp has aged past it. Expiry runs inside the apply loop (every
///    pass, plus periodic wakeups while any window is configured), so the
///    single-writer contract of the detector is preserved; the detector's
///    ExpireBefore() removes the range with the exact Remove()
///    re-derivation and releases its rows. Every pass logs its expiry
///    with its ingests and applies it after the acknowledgements,
///    publishing one more snapshot; no INGEST waits on expiry. An id
///    below a snapshot's window_begin() is expired, whether it expired in
///    this process or before a restart.
///  - QUERY / STATS / SNAPSHOT never touch the detectors: they read the
///    latest published IncrementalSnapshot through an atomic shared_ptr
///    (release store in the apply loop, acquire load here), so read
///    latency is independent of ingest bursts. A snapshot is frozen only
///    after the pass's adds complete, and again after its removals
///    complete, never mid-apply.
///  - Admission control: when the pending queue is at max_pending_ingests,
///    further INGESTs are refused with kUnavailable (explicit backpressure,
///    bounded memory). admission_rejections() counts the sheds.
///  - Stop() drains: everything queued at shutdown is applied and its
///    ticket completed before the loop exits; new ingests are refused.
///
/// Dispatch() is safe to call from any number of threads concurrently.
class DetectionService {
 public:
  explicit DetectionService(const ServiceOptions& options);
  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;
  ~DetectionService();

  /// Serves one request. INGEST blocks until the batch is applied AND its
  /// snapshot published, so the returned epoch is immediately queryable
  /// (the pass's expiry may still be publishing); reads return against
  /// the latest published snapshot without blocking.
  Response Dispatch(const Request& request);

  /// Fire-and-forget ingest: enqueues and returns without waiting for the
  /// apply loop. kUnavailable when the queue is at the admission cap.
  /// Tests use it to park batches in the queue; batch-level errors
  /// (non-finite coordinates) surface in STATS only.
  Status IngestAsync(const std::string& collection, uint16_t dims,
                     std::vector<double> coords);

  /// Blocks until every batch enqueued so far has been applied and
  /// published, the expiry of its pass included.
  void Drain() DBSCOUT_EXCLUDES(mu_);

  /// Forces one expiry sweep on the apply loop and blocks until its
  /// snapshots are published. Deterministic hook for tests and operators
  /// with an injected clock; the loop also sweeps on its own every
  /// ~100ms while any collection has a TTL window. Must not be called
  /// while the apply loop is paused for test.
  void SweepExpiredNow() DBSCOUT_EXCLUDES(mu_);

  /// Drains the queue, completes all tickets, and stops the apply loop.
  /// Further INGESTs are refused with kUnavailable; reads keep working
  /// against the last published snapshots. Idempotent.
  void Stop() DBSCOUT_EXCLUDES(mu_);

  /// INGESTs shed by admission control since construction.
  uint64_t admission_rejections() const {
    return admission_rejections_.load(std::memory_order_relaxed);
  }

  /// Seconds since construction (monotonic clock; STATS uptime_seconds).
  double UptimeSeconds() const { return uptime_.ElapsedSeconds(); }

  /// The registry this service publishes into (options_.registry or the
  /// global one). The METRICS verb serializes it.
  obs::Registry& registry() const { return *registry_; }

  /// Test hook: while paused the apply loop leaves the queue untouched, so
  /// tests can fill it to the admission cap deterministically. Stop()
  /// overrides a pause (shutdown still drains).
  void SetApplyPausedForTest(bool paused) DBSCOUT_EXCLUDES(mu_);

  /// Outcome of the constructor's crash recovery (OK when data_dir is
  /// empty or recovery replayed cleanly). A durable server should refuse
  /// to start on failure: serving on top of partial recovery would
  /// silently drop acknowledged data.
  const Status& recovery_status() const { return recovery_status_; }

  /// Runs the crash recovery the constructor skipped under
  /// options.defer_recovery, then starts the apply loop. Must be called
  /// exactly once when defer_recovery is set, before any ingest, from the
  /// constructing thread. recovery_status() holds the outcome.
  void RunDeferredRecovery();

  /// Where startup recovery stands (the HEALTH verb's recovery field).
  /// kNone when the service runs without a data_dir.
  RecoveryState recovery_state() const {
    return recovery_state_.load(std::memory_order_relaxed);
  }

  /// The span collector this service publishes into (null = tracing off).
  /// The server's frame-decode/reply-encode spans go here too.
  obs::TraceCollector* trace() const { return trace_; }

  /// Forces WAL-to-snapshot compaction on every durable collection
  /// (test/operator hook; no-op in-memory).
  Status CompactNow() DBSCOUT_EXCLUDES(collections_mu_);

 private:
  /// Per-collection state. The detector is mutated only by the apply loop
  /// (and by recovery, before the collection is registered); `snapshot` is
  /// the publication point between that writer and all reader threads.
  struct Collection {
    std::string name;  // span scope + log context; immutable after create
    const size_t dims;  // request threads read it without the detector
    /// Owns the window: its ids are the collection's global ids, and its
    /// snapshots say which of them have expired (window_begin()).
    core::IncrementalDetector detector;
    std::atomic<std::shared_ptr<const core::IncrementalSnapshot>> snapshot;

    /// Sliding-window TTL in seconds; 0 = append-only. Written by
    /// CONFIGURE, read by the apply loop.
    std::atomic<double> ttl_seconds{0.0};
    /// Ingest batches of this collection currently in the apply queue.
    /// Changed only under the service's mu_ (enqueue and the apply loop's
    /// take), so the gauge below never lags it; STATS reads it lock-free.
    std::atomic<uint64_t> queue_depth{0};
    /// dbscout_pending_batches{collection=...}; mirrors queue_depth.
    obs::Gauge* depth_gauge = nullptr;

    /// Apply-loop-private expiry bookkeeping: each entry says "epochs
    /// [previous end, end_epoch) were applied at `seconds`". Batch
    /// granularity: a range expires as a unit once its stamp ages out.
    struct StampRange {
      uint64_t end_epoch = 0;
      double seconds = 0.0;
    };
    std::deque<StampRange> stamps;

    Mutex stats_mu;
    core::phases::PhaseRecorder recorder DBSCOUT_GUARDED_BY(stats_mu);
    uint64_t ingest_errors DBSCOUT_GUARDED_BY(stats_mu) = 0;

    /// Durability engine; null when the service runs in-memory. The
    /// store has its own mutex (the apply loop appends/commits, service
    /// threads log CONFIGUREs).
    std::unique_ptr<storage::CollectionStore> store;

    Collection(std::string n, core::IncrementalDetector d)
        : name(std::move(n)), dims(d.dims()), detector(std::move(d)) {}
  };

  /// Completion token a blocking INGEST waits on; signalled after the
  /// batch's snapshot is published. `done` flips under the service's mu_
  /// (not annotatable from a nested struct; the waiters' while-loops under
  /// mu_ are the contract).
  struct Ticket {
    bool done = false;  // guarded by mu_
    Status status;
    uint64_t epoch = 0;
  };

  struct PendingIngest {
    /// Null marks an expiry tick (SweepExpiredNow): the pass applies no
    /// points for it, but runs the expiry sweep and completes the ticket
    /// once every expiry of the pass is published.
    Collection* collection = nullptr;
    std::vector<double> coords;  // row-major, collection's dims
    std::shared_ptr<Ticket> ticket;  // null for async ingests
    /// MonotonicSeconds() at enqueue; the apply loop observes the
    /// difference into the queue-wait histogram.
    double enqueue_seconds = 0.0;
    /// Request trace id (0 = untraced): the apply loop tags this op's
    /// queue_wait span and the pass's detector/WAL/publish spans with it.
    uint64_t trace_id = 0;
  };

  Response DoIngest(const Request& request, uint64_t trace_id);
  Response DoQuery(const Request& request);
  Response DoStats(const Request& request);
  Response DoSnapshot(const Request& request);
  Response DoMetrics();
  Response DoConfigure(const Request& request);
  Response DoTrace(const Request& request);
  Response DoHealth();

  /// Re-reads the process self-gauges (RSS, open fds, threads) from
  /// /proc/self; no-op values stay 0 on platforms without procfs.
  void RefreshProcessGauges();

  /// Looks up a collection (null when absent). Never creates.
  Collection* FindCollection(const std::string& name)
      DBSCOUT_EXCLUDES(collections_mu_);
  /// Every registered collection (they are never unregistered).
  std::vector<Collection*> AllCollections() DBSCOUT_EXCLUDES(collections_mu_);

  /// Opens `name`'s CollectionStore under data_dir (null options_.data_dir
  /// = null store). `recovered` receives the on-disk state to replay.
  Result<std::unique_ptr<storage::CollectionStore>> OpenStore(
      const std::string& name, storage::RecoveredCollection* recovered);

  /// A fresh, unregistered collection of `dims` whose ids start at
  /// `first_id`, with the service-wide TTL, publishing its empty snapshot.
  /// The one place a collection's detector is built, for first ingest
  /// (first_id 0) and recovery (the folded window_begin) alike.
  Result<std::unique_ptr<Collection>> NewCollection(const std::string& name,
                                                    uint16_t dims,
                                                    uint64_t first_id);

  /// Constructor-time crash recovery: scans data_dir and recovers every
  /// collection found there. Runs before the apply loop starts, so the
  /// coordinator-thread contract holds.
  Status RecoverCollections() DBSCOUT_EXCLUDES(collections_mu_);
  /// Folds the WAL suffix onto the snapshot base with
  /// storage::ApplyRecordToState (the interpreter compaction uses), then
  /// loads the folded state and registers the collection.
  Status RecoverCollection(const std::string& name)
      DBSCOUT_EXCLUDES(collections_mu_);
  /// Loads a folded state into a fresh collection whose detector starts at
  /// the state's window_begin: ApplyRecords loads the live rows
  /// [window_begin, epoch) as one ingest record, then it publishes. Labels
  /// depend only on the live point set, so this equals the pre-crash
  /// labeling at the durable epoch.
  Status LoadCollection(Collection* collection,
                        storage::CollectionState state);

  /// Validates the batch shape and returns the collection, creating it on
  /// first ingest (dims fixed by the first batch).
  Result<Collection*> CollectionForIngest(const std::string& name,
                                          uint16_t dims, size_t coords_size)
      DBSCOUT_EXCLUDES(collections_mu_);

  /// Enqueues under the admission cap, or sheds. `ticket` may be null;
  /// `trace_id` tags the op's apply-side spans (0 = untraced).
  Status Enqueue(Collection* collection, std::vector<double> coords,
                 std::shared_ptr<Ticket> ticket, uint64_t trace_id = 0)
      DBSCOUT_EXCLUDES(mu_);

  void ApplyLoop() DBSCOUT_EXCLUDES(mu_);
  /// One coalesced apply pass: builds each touched collection's WAL
  /// records (one ingest per accepted batch, then its aged-out TTL range).
  /// Per collection it applies the ingests, if any, freezes a snapshot,
  /// logs the ingests and then the expiry under one commit, and
  /// publishes. INGEST tickets complete after every collection; then each
  /// collection's logged expiry is removed, frozen and published, and
  /// only then do Drain() and expiry ticks see the pass. An empty `batch`
  /// is a periodic window wakeup: no ingest, the same expiry step.
  void ApplyPass(std::vector<PendingIngest> batch)
      DBSCOUT_EXCLUDES(mu_, collections_mu_);
  /// The one detector add step, for live passes and recovery alike: the
  /// rows of every kIngest go in as one AddBatchParallel on
  /// apply_workers_ (feeding dbscout_apply_task_seconds). Any other
  /// record type, or an ingest record whose base_epoch is not the next
  /// global id, fails the call before anything is mutated.
  Status ApplyRecords(Collection* collection,
                      std::span<const storage::WalRecord> ingests);
  /// Pops `collection`'s aged-out stamp ranges, returning true and the
  /// global-id range [*begin, *end) to expire: *begin is the detector's
  /// window_begin(), which the pass's ExpireBefore(*end) advances. Apply
  /// loop only.
  bool ComputeExpiry(Collection* collection, double now, uint64_t* begin,
                     uint64_t* end);

  const ServiceOptions options_;
  std::function<double()> clock_;

  Mutex collections_mu_;
  std::unordered_map<std::string, std::unique_ptr<Collection>> collections_
      DBSCOUT_GUARDED_BY(collections_mu_);

  Mutex mu_;
  CondVar queue_cv_;    // apply loop wakeups
  CondVar tickets_cv_;  // ticket completion + drain
  std::deque<PendingIngest> queue_ DBSCOUT_GUARDED_BY(mu_);
  uint64_t enqueued_ DBSCOUT_GUARDED_BY(mu_) = 0;  // batches ever enqueued
  uint64_t applied_ DBSCOUT_GUARDED_BY(mu_) = 0;   // batches published
  bool stop_ DBSCOUT_GUARDED_BY(mu_) = false;
  bool apply_paused_ DBSCOUT_GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> admission_rejections_{0};
  /// True once any collection has a TTL window; flips the apply loop from
  /// indefinite waits to periodic expiry wakeups. Never unset.
  std::atomic<bool> has_window_{false};

  /// Constructor-time recovery outcome (OK when data_dir is empty).
  Status recovery_status_;
  /// HEALTH-visible recovery progress. kRecovering while a deferred
  /// recovery is pending/running; collection verbs are refused meanwhile.
  std::atomic<RecoveryState> recovery_state_{RecoveryState::kNone};

  WallTimer uptime_;

  /// Resolved observability handles (cached once in the constructor; the
  /// hot paths below never touch the registry's map again).
  obs::Registry* registry_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  obs::Counter* ingest_batches_total_ = nullptr;
  obs::Counter* ingest_points_total_ = nullptr;
  obs::Counter* ingest_errors_total_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  obs::Gauge* collections_gauge_ = nullptr;
  obs::Histogram* queue_wait_seconds_ = nullptr;
  obs::Histogram* apply_batch_size_ = nullptr;
  obs::Histogram* apply_task_seconds_ = nullptr;
  obs::Histogram* snapshot_freeze_seconds_ = nullptr;
  obs::Counter* replay_records_total_ = nullptr;
  obs::Counter* replay_points_total_ = nullptr;
  obs::Histogram* replay_seconds_ = nullptr;
  obs::Counter* wal_commit_failures_total_ = nullptr;
  obs::Gauge* process_rss_bytes_ = nullptr;
  obs::Gauge* process_open_fds_ = nullptr;
  obs::Gauge* process_threads_ = nullptr;
  /// Request latency by verb, indexed by Verb's numeric value.
  std::array<obs::Histogram*, kNumVerbSlots> request_seconds_{};

  /// Workers AddBatchParallel fans slab-block tasks out on, one per
  /// hardware thread; null on a single core (serial apply). Each wave is
  /// one RunTasks over its blocks, called from the apply loop: a worker of
  /// apply_pool_, not of this pool, so the waves do fan out (nesting is
  /// per pool, common/thread_pool.h). Only the apply loop uses it, one
  /// collection's detector at a time. Declared before apply_pool_ so the
  /// apply loop never outlives its workers.
  std::unique_ptr<ThreadPool> apply_workers_;

  /// Declared last so it is destroyed first: the apply-loop task has
  /// already exited by then (the destructor calls Stop()).
  ThreadPool apply_pool_;
};

}  // namespace dbscout::service

#endif  // DBSCOUT_SERVICE_SERVICE_H_

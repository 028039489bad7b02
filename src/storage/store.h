#ifndef DBSCOUT_STORAGE_STORE_H_
#define DBSCOUT_STORAGE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace dbscout::storage {

/// When appended WAL frames become durable (fdatasync) relative to the
/// acknowledgement of the writes they record. See DESIGN.md section 15
/// for the full loss contract; in short:
///  - kAlways: fsync before every acknowledgement — no acknowledged write
///    is ever lost, even on power failure.
///  - kInterval: group fsync at most every fsync_interval_seconds —
///    process crashes (kill -9) lose nothing acknowledged (the page cache
///    survives the process), power/kernel failures lose up to the
///    interval of acknowledged writes.
///  - kNever: fsync only on clean close/rotation — same kill -9 safety,
///    unbounded power-loss exposure.
enum class FsyncPolicy {
  kAlways = 0,
  kInterval = 1,
  kNever = 2,
};

/// Parses "always" | "interval" | "never" (the --wal-fsync flag values).
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name);

struct StoreOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// kInterval: maximum seconds between fsyncs, piggybacked on commits
  /// (no background timer thread; Close() always syncs).
  double fsync_interval_seconds = 0.05;
  /// Compact the WAL into a snapshot once the active segment exceeds this
  /// many bytes (checked at commit). 0 disables automatic compaction.
  uint64_t snapshot_interval_bytes = 64u << 20;
  /// Monotonic clock (seconds) for the interval policy; null uses
  /// MonotonicSeconds(). Tests inject a fake clock.
  std::function<double()> clock;
  /// Metrics registry (null = obs::Registry::Global()). Not owned.
  obs::Registry* registry = nullptr;
  /// Span sink for wal_commit spans (null = no tracing). Not owned; must
  /// outlive the store.
  obs::TraceCollector* trace = nullptr;
  /// Collection name, used as the metrics label and span scope.
  std::string collection;
};

/// What Open() recovered from disk: the newest valid snapshot (empty
/// state when none) plus the decoded WAL records of every segment after
/// it, in log order. The service replays `suffix` through its normal
/// apply pipeline.
struct RecoveredCollection {
  CollectionState base;
  std::vector<WalRecord> suffix;
};

/// Durability engine for one collection directory:
///
///   <dir>/wal-NNNNNN.log   append-only WAL segments, seq ascending
///   <dir>/snap-NNNNNN.snap snapshot = state after segments 1..N
///
/// Write path (apply loop, plus CONFIGURE from service threads): Log*
/// appends frames to the active segment; Commit() is the group-commit
/// point — one fsync per apply pass under the policy — and triggers
/// compaction when the active segment outgrows the threshold.
///
/// Compaction seals the active segment, opens the next one, then merges
/// the previous snapshot with the sealed segments into a new snapshot
/// (pure file-level merge: ingest records carry the coordinates, so the
/// live detector is never consulted) and applies retention: the newest
/// two snapshot generations and every segment after the older one are
/// kept, so recovery can fall back one generation if the newest snapshot
/// is torn or corrupt.
///
/// Recovery (in Open): pick the newest snapshot that passes its CRC,
/// demand a contiguous run of segments after it, scan them (a torn tail
/// is allowed only in the final segment and is truncated; a bad CRC on a
/// complete frame anywhere is an error — corrupt points are never
/// loaded), and reopen the final segment for append.
class CollectionStore {
 public:
  /// Opens (creating the directory if needed) and recovers. `recovered`
  /// receives the replayable state; it is required.
  static Result<std::unique_ptr<CollectionStore>> Open(
      const std::string& dir, const StoreOptions& options,
      RecoveredCollection* recovered);

  CollectionStore(const CollectionStore&) = delete;
  CollectionStore& operator=(const CollectionStore&) = delete;
  ~CollectionStore();

  /// Appends one record frame (no sync; Commit() makes it durable).
  Status LogRecord(const WalRecord& record) DBSCOUT_EXCLUDES(mu_);

  /// Appends a CONFIGURE record and syncs unconditionally: TTL changes
  /// are rare control-plane writes, always made durable immediately.
  Status LogConfigure(double ttl_seconds) DBSCOUT_EXCLUDES(mu_);

  /// Group-commit point, called once per apply pass after its appends:
  /// fsync per policy, then compact if the active segment is past the
  /// threshold. `trace_id` (nonzero, with a trace collector configured)
  /// tags the emitted wal_commit span with the request that triggered
  /// the pass.
  Status Commit(uint64_t trace_id = 0) DBSCOUT_EXCLUDES(mu_);

  /// Forces a compaction cycle now (test/operator hook).
  Status CompactNow() DBSCOUT_EXCLUDES(mu_);

  /// Final sync + close of the active segment. Idempotent; the
  /// destructor calls it best-effort.
  Status Close() DBSCOUT_EXCLUDES(mu_);

  uint64_t active_wal_bytes() DBSCOUT_EXCLUDES(mu_);
  const std::string& dir() const { return dir_; }

 private:
  explicit CollectionStore(std::string dir) : dir_(std::move(dir)) {}

  Status AppendLocked(const WalRecord& record) DBSCOUT_REQUIRES(mu_);
  Status SyncLocked() DBSCOUT_REQUIRES(mu_);
  Status CompactLocked() DBSCOUT_REQUIRES(mu_);
  std::string SegmentPath(uint64_t seq) const;
  std::string SnapshotPath(uint64_t seq) const;

  const std::string dir_;
  std::string collection_;
  obs::TraceCollector* trace_ = nullptr;
  FsyncPolicy fsync_ = FsyncPolicy::kAlways;
  double fsync_interval_seconds_ = 0.05;
  uint64_t snapshot_interval_bytes_ = 64u << 20;
  std::function<double()> clock_;

  /// Guards the writer and the segment/snapshot bookkeeping: the apply
  /// loop (Log*/Commit) and service threads (LogConfigure) both write.
  Mutex mu_;
  std::optional<WalWriter> writer_ DBSCOUT_GUARDED_BY(mu_);
  uint64_t active_seq_ DBSCOUT_GUARDED_BY(mu_) = 1;
  /// Newest durable snapshot generation (0 = none yet).
  uint64_t base_seq_ DBSCOUT_GUARDED_BY(mu_) = 0;
  double last_sync_seconds_ DBSCOUT_GUARDED_BY(mu_) = 0.0;
  bool dirty_since_sync_ DBSCOUT_GUARDED_BY(mu_) = false;
  bool closed_ DBSCOUT_GUARDED_BY(mu_) = false;

  // Resolved metric handles (wait-free; safe outside mu_).
  obs::Counter* wal_appends_total_ = nullptr;
  obs::Counter* wal_bytes_total_ = nullptr;
  obs::Histogram* wal_frame_bytes_ = nullptr;
  obs::Counter* fsync_total_ = nullptr;
  obs::Histogram* fsync_seconds_ = nullptr;
  obs::Counter* compactions_total_ = nullptr;
  obs::Gauge* snapshot_bytes_ = nullptr;
};

/// Filesystem-safe encoding of a collection name as a directory name:
/// [A-Za-z0-9_-] pass through, every other byte becomes %XX. The decode
/// side inverts it exactly, so names round-trip through restart.
std::string EncodeCollectionDirName(const std::string& name);
Result<std::string> DecodeCollectionDirName(const std::string& dir_name);

}  // namespace dbscout::storage

#endif  // DBSCOUT_STORAGE_STORE_H_

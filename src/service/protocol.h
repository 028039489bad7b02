#ifndef DBSCOUT_SERVICE_PROTOCOL_H_
#define DBSCOUT_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/detection.h"

namespace dbscout::service {

/// The verbs of the detection service. One frame carries one request
/// or one response; a connection is a sequence of request/response pairs.
enum class Verb : uint8_t {
  kIngest = 1,     // append a batch of points to a collection
  kQuery = 2,      // label of point-id / fresh probe point, optional score
  kStats = 3,      // phase counters and collection counts
  kSnapshot = 4,   // consistent full labeling at one epoch
  kMetrics = 5,    // Prometheus text-format scrape of the whole service
  kConfigure = 6,  // per-collection sliding-window TTL
  kTrace = 7,      // dump the live span ring buffer (Chrome-trace JSON)
  kHealth = 8,     // readiness/degradation state + process self-gauges
};

/// Number of Verb values plus the unused 0 slot — array-indexing bound for
/// per-verb tables (e.g. the request-latency histograms).
inline constexpr size_t kNumVerbSlots = 9;

/// High bit of the wire verb byte: when set, a trace header (u64 trace id
/// + f64 origin timestamp) immediately follows the verb byte. Verbs only
/// ever occupy the low 7 bits, so old frames — which never set the bit —
/// decode byte-identically, and a pre-trace decoder that receives a
/// flagged frame fails cleanly with "unknown verb" instead of
/// misinterpreting the header as payload. Responses carry the header only
/// when the request did, so old clients never see it.
inline constexpr uint8_t kTraceHeaderFlag = 0x80;

/// Request-scoped trace context: a 64-bit id linking every span a request
/// produces (decode, admission, queue-wait, detector apply, WAL commit,
/// snapshot publish, reply encode) plus the originator's send timestamp
/// (seconds on the originator's clock; carried for client-side skew
/// accounting, never compared against server clocks). trace_id 0 means
/// "no context": the header is omitted on the wire and the server stamps
/// a fresh id on arrival.
struct RequestContext {
  uint64_t trace_id = 0;
  double origin_seconds = 0.0;

  friend bool operator==(const RequestContext&,
                         const RequestContext&) = default;
};

/// Returns a fresh nonzero trace id: a splitmix64 hash of a process-wide
/// atomic counter (seeded with address-space entropy), so ids from
/// different processes collide with only generic birthday probability.
/// Wait-free; used by the server to self-stamp untraced requests when a
/// trace collector is attached, and by clients that opt into stamping.
uint64_t NextTraceId();

/// Frames are a u32 little-endian payload length followed by the payload.
/// The length cap bounds per-session buffering; a SNAPSHOT of ~60M points
/// or an INGEST batch of ~1M 8-d points fits. Larger workloads page
/// through multiple requests.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Collection names are short identifiers, not blobs.
inline constexpr size_t kMaxCollectionName = 256;

/// One decoded request. `verb` selects which of the per-verb fields are
/// meaningful; the unused ones stay empty.
struct Request {
  Verb verb = Verb::kStats;
  std::string collection;

  /// Optional trace context (see RequestContext); encoded on the wire
  /// only when context.trace_id != 0.
  RequestContext context;

  // INGEST: `count` points of `dims` coordinates, row-major.
  uint16_t dims = 0;
  std::vector<double> coords;

  // QUERY.
  bool query_by_id = false;
  uint32_t query_id = 0;
  std::vector<double> query_point;  // when !query_by_id
  bool want_score = false;

  // CONFIGURE: sliding-window TTL for the collection; 0 turns the window
  // off (append-only).
  double ttl_seconds = 0.0;

  // TRACE: span selection. `collection` doubles as the scope filter
  // (empty = all collections); `trace_name_filter` matches span name or
  // category; `trace_id_filter` selects one request's spans;
  // `trace_limit` keeps only the most recent N (0 = all retained).
  std::string trace_name_filter;
  uint64_t trace_id_filter = 0;
  uint32_t trace_limit = 0;
};

/// One row of phase/work counters in a STATS response (PhaseStats shape).
struct StatsRow {
  std::string name;
  double seconds = 0.0;
  uint64_t distance_comps = 0;
  uint64_t records = 0;

  friend bool operator==(const StatsRow&, const StatsRow&) = default;
};

/// One per-verb latency summary row in a STATS response.
struct LatencyRow {
  std::string verb;  // verb label, e.g. "ingest"
  uint64_t count = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;

  friend bool operator==(const LatencyRow&, const LatencyRow&) = default;
};

/// QUERY result payload.
struct QueryAnswer {
  core::PointKind kind = core::PointKind::kOutlier;
  uint64_t epoch = 0;
  bool has_score = false;
  double score = 0.0;
};

/// STATS result payload. `epoch` is per-collection (the snapshot the
/// answer was built from); `uptime_seconds` is service-wide, so a STATS
/// answer is self-describing about both the collection's position and the
/// service's age.
struct StatsAnswer {
  uint64_t epoch = 0;
  uint64_t num_points = 0;
  uint64_t num_core = 0;
  uint64_t num_cells = 0;
  uint64_t num_outliers = 0;
  /// INGEST requests shed by admission control since service start.
  uint64_t admission_rejections = 0;
  /// Seconds since the service was constructed (monotonic clock).
  double uptime_seconds = 0.0;
  /// Points in the window, epoch - window_begin (== num_points while the
  /// collection is append-only).
  uint64_t live_points = 0;
  /// First epoch still inside the sliding window; ids below it are expired.
  uint64_t window_begin = 0;
  /// Ingest batches of this collection waiting in the apply queue.
  uint64_t queue_depth = 0;
  /// The collection's sliding-window TTL (0 = append-only).
  double ttl_seconds = 0.0;
  std::vector<StatsRow> phases;
  /// Service-wide request latency quantiles per verb, from the
  /// dbscout_request_seconds histograms (log-bucket interpolation, so
  /// p999 is an estimate, not an exact order statistic).
  std::vector<LatencyRow> latencies;
};

/// SNAPSHOT result payload: the exact labeling of the first `epoch` points.
/// `alive` parallels `kinds`: 0 marks points removed or expired out of the
/// sliding window (their kinds entry is the last label they carried).
struct SnapshotAnswer {
  uint64_t epoch = 0;
  uint64_t num_core = 0;
  uint64_t num_cells = 0;
  std::vector<core::PointKind> kinds;
  std::vector<uint8_t> alive;
};

/// METRICS result payload: the Prometheus text-format exposition of the
/// service's metric registry (opaque to the protocol layer).
struct MetricsAnswer {
  std::string text;
};

/// CONFIGURE result payload: echoes the TTL now in effect.
struct ConfigureAnswer {
  double ttl_seconds = 0.0;
};

/// TRACE result payload: the filtered span dump as Chrome trace-event
/// JSON (opaque to the protocol layer), plus ring-buffer accounting so
/// clients can tell a quiet server from a wrapped buffer.
struct TraceAnswer {
  std::string json;
  uint64_t spans_retained = 0;  // ring occupancy at dump time
  uint64_t spans_dropped = 0;   // overwritten by wraparound since start
};

/// Service liveness summary (HEALTH verb).
enum class HealthState : uint8_t {
  kReady = 0,
  kNotReady = 1,  // startup recovery still replaying the WAL
  kDegraded = 2,  // serving, but WAL failures / shedding / queue lag
};

/// Where startup crash recovery stands. kNone = no --data-dir.
enum class RecoveryState : uint8_t {
  kNone = 0,
  kRecovering = 1,
  kDone = 2,
  kFailed = 3,
};

/// HEALTH result payload: readiness plus process self-gauges (Linux
/// /proc-derived; zero where the platform cannot say).
struct HealthAnswer {
  HealthState state = HealthState::kReady;
  RecoveryState recovery = RecoveryState::kNone;
  std::string reason;  // human-readable cause when not kReady
  uint64_t collections = 0;
  uint64_t rss_bytes = 0;
  uint64_t open_fds = 0;
  uint64_t threads = 0;
  double uptime_seconds = 0.0;
};

/// One decoded response. `status` is the service-level outcome (kUnavailable
/// for shed load, kNotFound for unknown collections, ...); the per-verb
/// payload is meaningful only when status.ok().
struct Response {
  Verb verb = Verb::kStats;
  Status status;
  /// Echo of the request's trace context: trace_id is the id the server
  /// used for this request's spans (0 = request carried none, header
  /// omitted on the wire); server_seconds is the server-side dispatch
  /// time, so clients can split wire time from service time.
  uint64_t trace_id = 0;
  double server_seconds = 0.0;
  uint64_t epoch = 0;  // INGEST: epoch right after the batch was applied
  QueryAnswer query;
  StatsAnswer stats;
  SnapshotAnswer snapshot;
  MetricsAnswer metrics;
  ConfigureAnswer configure;
  TraceAnswer trace;
  HealthAnswer health;
};

/// Serializes a request/response payload (no frame length prefix; the
/// transport adds it). Encoding is little-endian and platform-independent.
std::vector<uint8_t> EncodeRequest(const Request& request);
std::vector<uint8_t> EncodeResponse(const Response& response);

/// Parses a payload; fails with InvalidArgument on truncated or malformed
/// bytes (never reads out of bounds, never trusts embedded lengths).
Result<Request> DecodeRequest(std::span<const uint8_t> payload);
Result<Response> DecodeResponse(std::span<const uint8_t> payload);

}  // namespace dbscout::service

#endif  // DBSCOUT_SERVICE_PROTOCOL_H_

#include "service/protocol.h"

#include <atomic>

#include "common/codec.h"
#include "common/str_util.h"

namespace dbscout::service {
namespace {

// Put/PutBytes/PutString and ByteReader live in common/codec.h: the
// storage WAL shares the exact byte discipline (and the truncation
// semantics the fuzz sweeps pin down), so there is one implementation.

Result<Verb> CheckVerb(uint8_t raw) {
  switch (static_cast<Verb>(raw)) {
    case Verb::kIngest:
    case Verb::kQuery:
    case Verb::kStats:
    case Verb::kSnapshot:
    case Verb::kMetrics:
    case Verb::kConfigure:
    case Verb::kTrace:
    case Verb::kHealth:
      return static_cast<Verb>(raw);
  }
  return Status::InvalidArgument(StrFormat("unknown verb %u", raw));
}

/// Emits the verb byte, setting kTraceHeaderFlag and appending the trace
/// header when a context is present. Shared by request and response
/// encoders so both sides speak the identical header layout.
void PutVerbAndTraceHeader(std::vector<uint8_t>* out, Verb verb,
                           uint64_t trace_id, double seconds) {
  uint8_t raw = static_cast<uint8_t>(verb);
  if (trace_id != 0) {
    raw |= kTraceHeaderFlag;
  }
  Put<uint8_t>(out, raw);
  if (trace_id != 0) {
    Put<uint64_t>(out, trace_id);
    Put<double>(out, seconds);
  }
}

/// Reads the verb byte and, when flagged, the trace header. The verb is
/// validated after the flag is stripped, so a flagged frame with a bad
/// verb and an unflagged one fail identically.
struct VerbAndTraceHeader {
  Verb verb = Verb::kStats;
  uint64_t trace_id = 0;
  double seconds = 0.0;
};
Result<VerbAndTraceHeader> ReadVerbAndTraceHeader(ByteReader* reader) {
  VerbAndTraceHeader out;
  DBSCOUT_ASSIGN_OR_RETURN(const uint8_t raw, reader->Read<uint8_t>());
  DBSCOUT_ASSIGN_OR_RETURN(
      out.verb, CheckVerb(raw & static_cast<uint8_t>(~kTraceHeaderFlag)));
  if ((raw & kTraceHeaderFlag) != 0) {
    DBSCOUT_ASSIGN_OR_RETURN(out.trace_id, reader->Read<uint64_t>());
    DBSCOUT_ASSIGN_OR_RETURN(out.seconds, reader->Read<double>());
    if (out.trace_id == 0) {
      // id 0 means "no context"; a flagged header carrying it is a frame
      // the reference encoder can never produce.
      return Status::InvalidArgument("trace header with zero trace id");
    }
  }
  return out;
}

Result<core::PointKind> CheckKind(uint8_t raw) {
  if (raw > static_cast<uint8_t>(core::PointKind::kOutlier)) {
    return Status::InvalidArgument(StrFormat("unknown point kind %u", raw));
  }
  return static_cast<core::PointKind>(raw);
}

}  // namespace

uint64_t NextTraceId() {
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;
  static std::atomic<uint64_t> counter{
      kGamma ^ reinterpret_cast<uintptr_t>(&counter)};
  for (;;) {
    uint64_t z = counter.fetch_add(kGamma, std::memory_order_relaxed) + kGamma;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    if (z != 0) {  // 0 means "untraced" on the wire; skip it
      return z;
    }
  }
}

std::vector<uint8_t> EncodeRequest(const Request& request) {
  std::vector<uint8_t> out;
  PutVerbAndTraceHeader(&out, request.verb, request.context.trace_id,
                        request.context.origin_seconds);
  Put<uint8_t>(&out, request.want_score ? 1 : 0);
  PutString(&out, request.collection);
  switch (request.verb) {
    case Verb::kIngest: {
      Put<uint16_t>(&out, request.dims);
      const uint32_t count =
          request.dims == 0
              ? 0
              : static_cast<uint32_t>(request.coords.size() / request.dims);
      Put<uint32_t>(&out, count);
      for (double v : request.coords) {
        Put<double>(&out, v);
      }
      break;
    }
    case Verb::kQuery:
      Put<uint8_t>(&out, request.query_by_id ? 0 : 1);
      if (request.query_by_id) {
        Put<uint32_t>(&out, request.query_id);
      } else {
        Put<uint16_t>(&out, static_cast<uint16_t>(request.query_point.size()));
        for (double v : request.query_point) {
          Put<double>(&out, v);
        }
      }
      break;
    case Verb::kConfigure:
      Put<double>(&out, request.ttl_seconds);
      break;
    case Verb::kTrace:
      PutString(&out, request.trace_name_filter);
      Put<uint64_t>(&out, request.trace_id_filter);
      Put<uint32_t>(&out, request.trace_limit);
      break;
    case Verb::kStats:
    case Verb::kSnapshot:
    case Verb::kMetrics:
    case Verb::kHealth:
      break;
  }
  return out;
}

Result<Request> DecodeRequest(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  Request request;
  DBSCOUT_ASSIGN_OR_RETURN(const VerbAndTraceHeader head,
                           ReadVerbAndTraceHeader(&reader));
  request.verb = head.verb;
  request.context.trace_id = head.trace_id;
  request.context.origin_seconds = head.seconds;
  DBSCOUT_ASSIGN_OR_RETURN(const uint8_t flags, reader.Read<uint8_t>());
  request.want_score = (flags & 1) != 0;
  DBSCOUT_ASSIGN_OR_RETURN(request.collection,
                           reader.ReadString(kMaxCollectionName));
  switch (request.verb) {
    case Verb::kIngest: {
      DBSCOUT_ASSIGN_OR_RETURN(request.dims, reader.Read<uint16_t>());
      DBSCOUT_ASSIGN_OR_RETURN(const uint32_t count, reader.Read<uint32_t>());
      DBSCOUT_ASSIGN_OR_RETURN(
          request.coords,
          reader.ReadDoubles(static_cast<uint64_t>(count) * request.dims));
      break;
    }
    case Verb::kQuery: {
      DBSCOUT_ASSIGN_OR_RETURN(const uint8_t mode, reader.Read<uint8_t>());
      if (mode > 1) {
        return Status::InvalidArgument(
            StrFormat("unknown query mode %u", mode));
      }
      request.query_by_id = mode == 0;
      if (request.query_by_id) {
        DBSCOUT_ASSIGN_OR_RETURN(request.query_id, reader.Read<uint32_t>());
      } else {
        DBSCOUT_ASSIGN_OR_RETURN(const uint16_t dims, reader.Read<uint16_t>());
        DBSCOUT_ASSIGN_OR_RETURN(request.query_point,
                                 reader.ReadDoubles(dims));
      }
      break;
    }
    case Verb::kConfigure: {
      DBSCOUT_ASSIGN_OR_RETURN(request.ttl_seconds, reader.Read<double>());
      break;
    }
    case Verb::kTrace: {
      DBSCOUT_ASSIGN_OR_RETURN(request.trace_name_filter,
                               reader.ReadString(kMaxCollectionName));
      DBSCOUT_ASSIGN_OR_RETURN(request.trace_id_filter,
                               reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(request.trace_limit, reader.Read<uint32_t>());
      break;
    }
    case Verb::kStats:
    case Verb::kSnapshot:
    case Verb::kMetrics:
    case Verb::kHealth:
      break;
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("malformed frame: trailing bytes");
  }
  return request;
}

std::vector<uint8_t> EncodeResponse(const Response& response) {
  std::vector<uint8_t> out;
  PutVerbAndTraceHeader(&out, response.verb, response.trace_id,
                        response.server_seconds);
  Put<uint8_t>(&out, static_cast<uint8_t>(response.status.code()));
  if (!response.status.ok()) {
    const std::string& msg = response.status.message();
    Put<uint32_t>(&out, static_cast<uint32_t>(msg.size()));
    PutBytes(&out, msg);
    return out;
  }
  switch (response.verb) {
    case Verb::kIngest:
      Put<uint64_t>(&out, response.epoch);
      break;
    case Verb::kQuery:
      Put<uint64_t>(&out, response.query.epoch);
      Put<uint8_t>(&out, static_cast<uint8_t>(response.query.kind));
      Put<uint8_t>(&out, response.query.has_score ? 1 : 0);
      if (response.query.has_score) {
        Put<double>(&out, response.query.score);
      }
      break;
    case Verb::kStats: {
      const StatsAnswer& s = response.stats;
      Put<uint64_t>(&out, s.epoch);
      Put<uint64_t>(&out, s.num_points);
      Put<uint64_t>(&out, s.num_core);
      Put<uint64_t>(&out, s.num_cells);
      Put<uint64_t>(&out, s.num_outliers);
      Put<uint64_t>(&out, s.admission_rejections);
      Put<double>(&out, s.uptime_seconds);
      Put<uint64_t>(&out, s.live_points);
      Put<uint64_t>(&out, s.window_begin);
      Put<uint64_t>(&out, s.queue_depth);
      Put<double>(&out, s.ttl_seconds);
      Put<uint32_t>(&out, static_cast<uint32_t>(s.phases.size()));
      for (const StatsRow& row : s.phases) {
        PutString(&out, row.name);
        Put<double>(&out, row.seconds);
        Put<uint64_t>(&out, row.distance_comps);
        Put<uint64_t>(&out, row.records);
      }
      Put<uint32_t>(&out, static_cast<uint32_t>(s.latencies.size()));
      for (const LatencyRow& row : s.latencies) {
        PutString(&out, row.verb);
        Put<uint64_t>(&out, row.count);
        Put<double>(&out, row.p50_seconds);
        Put<double>(&out, row.p99_seconds);
        Put<double>(&out, row.p999_seconds);
      }
      break;
    }
    case Verb::kSnapshot: {
      const SnapshotAnswer& s = response.snapshot;
      Put<uint64_t>(&out, s.epoch);
      Put<uint64_t>(&out, s.num_core);
      Put<uint64_t>(&out, s.num_cells);
      Put<uint64_t>(&out, static_cast<uint64_t>(s.kinds.size()));
      for (core::PointKind kind : s.kinds) {
        Put<uint8_t>(&out, static_cast<uint8_t>(kind));
      }
      // Alive mask, parallel to kinds (same length, no second count).
      for (size_t i = 0; i < s.kinds.size(); ++i) {
        Put<uint8_t>(&out, i < s.alive.size() ? (s.alive[i] ? 1 : 0) : 1);
      }
      break;
    }
    case Verb::kMetrics: {
      const std::string& text = response.metrics.text;
      Put<uint32_t>(&out, static_cast<uint32_t>(text.size()));
      PutBytes(&out, text);
      break;
    }
    case Verb::kConfigure:
      Put<double>(&out, response.configure.ttl_seconds);
      break;
    case Verb::kTrace: {
      const std::string& json = response.trace.json;
      Put<uint32_t>(&out, static_cast<uint32_t>(json.size()));
      PutBytes(&out, json);
      Put<uint64_t>(&out, response.trace.spans_retained);
      Put<uint64_t>(&out, response.trace.spans_dropped);
      break;
    }
    case Verb::kHealth: {
      const HealthAnswer& h = response.health;
      Put<uint8_t>(&out, static_cast<uint8_t>(h.state));
      Put<uint8_t>(&out, static_cast<uint8_t>(h.recovery));
      PutString(&out, h.reason);
      Put<uint64_t>(&out, h.collections);
      Put<uint64_t>(&out, h.rss_bytes);
      Put<uint64_t>(&out, h.open_fds);
      Put<uint64_t>(&out, h.threads);
      Put<double>(&out, h.uptime_seconds);
      break;
    }
  }
  return out;
}

Result<Response> DecodeResponse(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  Response response;
  DBSCOUT_ASSIGN_OR_RETURN(const VerbAndTraceHeader head,
                           ReadVerbAndTraceHeader(&reader));
  response.verb = head.verb;
  response.trace_id = head.trace_id;
  response.server_seconds = head.seconds;
  DBSCOUT_ASSIGN_OR_RETURN(const uint8_t code, reader.Read<uint8_t>());
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument(StrFormat("unknown status code %u", code));
  }
  if (code != 0) {
    DBSCOUT_ASSIGN_OR_RETURN(const uint32_t msg_len, reader.Read<uint32_t>());
    if (msg_len > kMaxFramePayload) {
      return Status::InvalidArgument("oversized status message");
    }
    std::string msg;
    msg.reserve(msg_len);
    for (uint32_t i = 0; i < msg_len; ++i) {
      DBSCOUT_ASSIGN_OR_RETURN(const uint8_t c, reader.Read<uint8_t>());
      msg.push_back(static_cast<char>(c));
    }
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("malformed frame: trailing bytes");
    }
    response.status = Status(static_cast<StatusCode>(code), std::move(msg));
    return response;
  }
  switch (response.verb) {
    case Verb::kIngest: {
      DBSCOUT_ASSIGN_OR_RETURN(response.epoch, reader.Read<uint64_t>());
      break;
    }
    case Verb::kQuery: {
      DBSCOUT_ASSIGN_OR_RETURN(response.query.epoch, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(const uint8_t kind, reader.Read<uint8_t>());
      DBSCOUT_ASSIGN_OR_RETURN(response.query.kind, CheckKind(kind));
      DBSCOUT_ASSIGN_OR_RETURN(const uint8_t has_score,
                               reader.Read<uint8_t>());
      response.query.has_score = has_score != 0;
      if (response.query.has_score) {
        DBSCOUT_ASSIGN_OR_RETURN(response.query.score, reader.Read<double>());
      }
      break;
    }
    case Verb::kStats: {
      StatsAnswer& s = response.stats;
      DBSCOUT_ASSIGN_OR_RETURN(s.epoch, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.num_points, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.num_core, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.num_cells, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.num_outliers, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.admission_rejections,
                               reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.uptime_seconds, reader.Read<double>());
      DBSCOUT_ASSIGN_OR_RETURN(s.live_points, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.window_begin, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.queue_depth, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.ttl_seconds, reader.Read<double>());
      DBSCOUT_ASSIGN_OR_RETURN(const uint32_t rows, reader.Read<uint32_t>());
      for (uint32_t i = 0; i < rows; ++i) {
        StatsRow row;
        DBSCOUT_ASSIGN_OR_RETURN(row.name,
                                 reader.ReadString(kMaxCollectionName));
        DBSCOUT_ASSIGN_OR_RETURN(row.seconds, reader.Read<double>());
        DBSCOUT_ASSIGN_OR_RETURN(row.distance_comps, reader.Read<uint64_t>());
        DBSCOUT_ASSIGN_OR_RETURN(row.records, reader.Read<uint64_t>());
        s.phases.push_back(std::move(row));
      }
      DBSCOUT_ASSIGN_OR_RETURN(const uint32_t lat_rows,
                               reader.Read<uint32_t>());
      for (uint32_t i = 0; i < lat_rows; ++i) {
        LatencyRow row;
        DBSCOUT_ASSIGN_OR_RETURN(row.verb,
                                 reader.ReadString(kMaxCollectionName));
        DBSCOUT_ASSIGN_OR_RETURN(row.count, reader.Read<uint64_t>());
        DBSCOUT_ASSIGN_OR_RETURN(row.p50_seconds, reader.Read<double>());
        DBSCOUT_ASSIGN_OR_RETURN(row.p99_seconds, reader.Read<double>());
        DBSCOUT_ASSIGN_OR_RETURN(row.p999_seconds, reader.Read<double>());
        s.latencies.push_back(std::move(row));
      }
      break;
    }
    case Verb::kSnapshot: {
      SnapshotAnswer& s = response.snapshot;
      DBSCOUT_ASSIGN_OR_RETURN(s.epoch, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.num_core, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(s.num_cells, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(const uint64_t count, reader.Read<uint64_t>());
      if (count > kMaxFramePayload) {
        return Status::InvalidArgument("oversized snapshot");
      }
      s.kinds.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        DBSCOUT_ASSIGN_OR_RETURN(const uint8_t kind, reader.Read<uint8_t>());
        DBSCOUT_ASSIGN_OR_RETURN(const core::PointKind checked,
                                 CheckKind(kind));
        s.kinds.push_back(checked);
      }
      s.alive.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        DBSCOUT_ASSIGN_OR_RETURN(const uint8_t live, reader.Read<uint8_t>());
        if (live > 1) {
          return Status::InvalidArgument("malformed alive mask");
        }
        s.alive.push_back(live);
      }
      break;
    }
    case Verb::kMetrics: {
      DBSCOUT_ASSIGN_OR_RETURN(const uint32_t len, reader.Read<uint32_t>());
      if (len > kMaxFramePayload) {
        return Status::InvalidArgument("oversized metrics text");
      }
      DBSCOUT_ASSIGN_OR_RETURN(response.metrics.text, reader.ReadBytes(len));
      break;
    }
    case Verb::kConfigure: {
      DBSCOUT_ASSIGN_OR_RETURN(response.configure.ttl_seconds,
                               reader.Read<double>());
      break;
    }
    case Verb::kTrace: {
      DBSCOUT_ASSIGN_OR_RETURN(const uint32_t len, reader.Read<uint32_t>());
      if (len > kMaxFramePayload) {
        return Status::InvalidArgument("oversized trace dump");
      }
      DBSCOUT_ASSIGN_OR_RETURN(response.trace.json, reader.ReadBytes(len));
      DBSCOUT_ASSIGN_OR_RETURN(response.trace.spans_retained,
                               reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(response.trace.spans_dropped,
                               reader.Read<uint64_t>());
      break;
    }
    case Verb::kHealth: {
      HealthAnswer& h = response.health;
      DBSCOUT_ASSIGN_OR_RETURN(const uint8_t state, reader.Read<uint8_t>());
      if (state > static_cast<uint8_t>(HealthState::kDegraded)) {
        return Status::InvalidArgument(
            StrFormat("unknown health state %u", state));
      }
      h.state = static_cast<HealthState>(state);
      DBSCOUT_ASSIGN_OR_RETURN(const uint8_t recovery, reader.Read<uint8_t>());
      if (recovery > static_cast<uint8_t>(RecoveryState::kFailed)) {
        return Status::InvalidArgument(
            StrFormat("unknown recovery state %u", recovery));
      }
      h.recovery = static_cast<RecoveryState>(recovery);
      DBSCOUT_ASSIGN_OR_RETURN(h.reason, reader.ReadString(1024));
      DBSCOUT_ASSIGN_OR_RETURN(h.collections, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(h.rss_bytes, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(h.open_fds, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(h.threads, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(h.uptime_seconds, reader.Read<double>());
      break;
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("malformed frame: trailing bytes");
  }
  return response;
}

}  // namespace dbscout::service

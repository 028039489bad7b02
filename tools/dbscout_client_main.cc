// Minimal command-line client for dbscout_serve. One action per
// invocation:
//
//   dbscout_client --port=P --collection=C --ingest=FILE [--format=csv|binary]
//   dbscout_client --port=P --collection=C --query=X,Y[,Z...] [--score]
//   dbscout_client --port=P --collection=C --query-id=I [--score]
//   dbscout_client --port=P --collection=C --stats
//   dbscout_client --port=P --collection=C --snapshot
//   dbscout_client --port=P --collection=C --set-ttl=SECONDS
//   dbscout_client --port=P --metrics
//   dbscout_client --port=P --health
//   dbscout_client --port=P --trace-dump [--collection=C] [--span-name=N]
//                  [--trace-id=HEX] [--trace-limit=K]
//
// Output is line-oriented key=value, grep-friendly for scripts
// (tools/serve_smoke.sh asserts against it). Two exceptions: --metrics
// prints the raw Prometheus text-format scrape, and --trace-dump prints
// Chrome trace-event JSON (pipe to a file, open in Perfetto) after one
// "trace retained=N dropped=M" summary line on stderr.
//
// --trace stamps the request with a fresh trace id (printed as
// trace=HEX) so a follow-up --trace-dump --trace-id=HEX isolates that
// request's spans. Only use it against trace-aware servers: the stamp
// sets the verb high bit, which pre-trace servers reject.
//
// --port must be <= 65535 and --query-id / --trace-limit <= 4294967295;
// any other value exits with usage (status 2) before connecting, instead
// of wrapping into a different port or id.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "data/io.h"
#include "service/client.h"

namespace {

const char* FlagValue(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  const std::string bare = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i]) {
      return true;
    }
  }
  return false;
}

/// Parses the value of --`name` as an unsigned integer no larger than
/// `max`. False when the flag is present but malformed or out of range;
/// *out keeps its value when the flag is absent.
bool ParseBoundedFlag(int argc, char** argv, const std::string& name,
                      uint64_t max, uint64_t* out) {
  const char* text = FlagValue(argc, argv, name);
  if (text == nullptr) {
    return true;
  }
  auto value = dbscout::ParseUint64(text);
  if (!value.ok() || *value > max) {
    return false;
  }
  *out = *value;
  return true;
}

int Usage() {
  std::cerr
      << "usage: dbscout_client --port=P --collection=C "
         "(--ingest=FILE [--format=csv|binary] | --query=X,Y[,...] "
         "[--score] | --query-id=I [--score] | --stats | --snapshot | "
         "--set-ttl=SECONDS), or dbscout_client --port=P "
         "(--metrics | --health | --trace-dump [--collection=C] "
         "[--span-name=N] [--trace-id=HEX] [--trace-limit=K]) [--host=H]; "
         "add --trace to stamp the request with a trace id\n";
  return 2;
}

dbscout::Result<dbscout::PointSet> LoadPoints(const std::string& path,
                                              const std::string& format) {
  const bool csv =
      format == "csv" ||
      (format.empty() && path.size() >= 4 &&
       path.compare(path.size() - 4, 4, ".csv") == 0);
  return csv ? dbscout::LoadPointsCsv(path) : dbscout::LoadPointsBinary(path);
}

const char* HealthStateName(dbscout::service::HealthState state) {
  switch (state) {
    case dbscout::service::HealthState::kReady:
      return "ready";
    case dbscout::service::HealthState::kNotReady:
      return "not-ready";
    case dbscout::service::HealthState::kDegraded:
      return "degraded";
  }
  return "?";
}

const char* RecoveryStateName(dbscout::service::RecoveryState state) {
  switch (state) {
    case dbscout::service::RecoveryState::kNone:
      return "none";
    case dbscout::service::RecoveryState::kRecovering:
      return "recovering";
    case dbscout::service::RecoveryState::kDone:
      return "done";
    case dbscout::service::RecoveryState::kFailed:
      return "failed";
  }
  return "?";
}

const char* KindName(dbscout::core::PointKind kind) {
  switch (kind) {
    case dbscout::core::PointKind::kCore:
      return "core";
    case dbscout::core::PointKind::kBorder:
      return "border";
    case dbscout::core::PointKind::kOutlier:
      return "outlier";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using dbscout::ParseDouble;
  using dbscout::Split;
  namespace service = dbscout::service;

  const char* port_text = FlagValue(argc, argv, "port");
  const char* collection = FlagValue(argc, argv, "collection");
  const bool want_metrics = HasFlag(argc, argv, "metrics");
  const bool want_health = HasFlag(argc, argv, "health");
  const bool want_trace_dump = HasFlag(argc, argv, "trace-dump");
  // --metrics/--health/--trace-dump are service-wide, so they take no
  // collection (for --trace-dump it is an optional scope filter).
  if (port_text == nullptr ||
      (collection == nullptr && !want_metrics && !want_health &&
       !want_trace_dump)) {
    return Usage();
  }
  // Range-check every narrowed integer flag before connecting.
  constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  uint64_t port = 0;
  uint64_t query_id = 0;
  uint64_t trace_limit = 0;
  if (!ParseBoundedFlag(argc, argv, "port", 65535, &port) ||
      !ParseBoundedFlag(argc, argv, "query-id", kMaxU32, &query_id) ||
      !ParseBoundedFlag(argc, argv, "trace-limit", kMaxU32, &trace_limit)) {
    return Usage();
  }
  const char* host_text = FlagValue(argc, argv, "host");
  const std::string host = host_text != nullptr ? host_text : "127.0.0.1";

  auto client =
      service::Client::Connect(host, static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::cerr << "dbscout_client: " << client.status() << "\n";
    return 1;
  }
  const bool want_score = HasFlag(argc, argv, "score");
  if (HasFlag(argc, argv, "trace")) {
    client->EnableTracing();
  }

  if (want_metrics) {
    auto text = client->Metrics();
    if (!text.ok()) {
      std::cerr << "dbscout_client: " << text.status() << "\n";
      return 1;
    }
    std::cout << *text;
    return 0;
  }

  if (want_health) {
    auto health = client->Health();
    if (!health.ok()) {
      std::cerr << "dbscout_client: " << health.status() << "\n";
      return 1;
    }
    std::cout << "state=" << HealthStateName(health->state)
              << " recovery=" << RecoveryStateName(health->recovery)
              << " collections=" << health->collections
              << " rss-bytes=" << health->rss_bytes
              << " open-fds=" << health->open_fds
              << " threads=" << health->threads
              << " uptime=" << health->uptime_seconds;
    if (!health->reason.empty()) {
      std::cout << " reason=\"" << health->reason << "\"";
    }
    std::cout << "\n";
    return 0;
  }

  if (want_trace_dump) {
    uint64_t trace_id = 0;
    if (const char* text = FlagValue(argc, argv, "trace-id")) {
      char* end = nullptr;
      trace_id = std::strtoull(text, &end, 16);
      if (end == text || *end != '\0') {
        return Usage();
      }
    }
    const uint32_t limit = static_cast<uint32_t>(trace_limit);
    const char* name = FlagValue(argc, argv, "span-name");
    auto answer = client->TraceDump(
        collection != nullptr ? collection : "",
        name != nullptr ? name : "", trace_id, limit);
    if (!answer.ok()) {
      std::cerr << "dbscout_client: " << answer.status() << "\n";
      return 1;
    }
    std::cerr << "trace retained=" << answer->spans_retained
              << " dropped=" << answer->spans_dropped << "\n";
    std::cout << answer->json << "\n";
    return 0;
  }

  if (const char* path = FlagValue(argc, argv, "ingest")) {
    const char* format = FlagValue(argc, argv, "format");
    auto points = LoadPoints(path, format != nullptr ? format : "");
    if (!points.ok()) {
      std::cerr << "dbscout_client: " << points.status() << "\n";
      return 1;
    }
    auto epoch = client->Ingest(collection,
                                static_cast<uint16_t>(points->dims()),
                                points->values());
    if (!epoch.ok()) {
      std::cerr << "dbscout_client: " << epoch.status() << "\n";
      return 1;
    }
    std::cout << "epoch=" << *epoch;
    if (client->last_trace_id() != 0) {
      std::cout << " trace="
                << dbscout::StrFormat(
                       "%016llx", static_cast<unsigned long long>(
                                      client->last_trace_id()));
    }
    std::cout << "\n";
    return 0;
  }

  if (const char* coords_text = FlagValue(argc, argv, "query")) {
    std::vector<double> point;
    for (std::string_view field : Split(coords_text, ',')) {
      auto value = ParseDouble(field);
      if (!value.ok()) {
        return Usage();
      }
      point.push_back(*value);
    }
    auto answer = client->QueryPoint(collection, point, want_score);
    if (!answer.ok()) {
      std::cerr << "dbscout_client: " << answer.status() << "\n";
      return 1;
    }
    std::cout << "kind=" << KindName(answer->kind)
              << " epoch=" << answer->epoch;
    if (answer->has_score) {
      std::cout << " score=" << answer->score;
    }
    std::cout << "\n";
    return 0;
  }

  if (FlagValue(argc, argv, "query-id") != nullptr) {
    auto answer = client->QueryId(collection, static_cast<uint32_t>(query_id),
                                  want_score);
    if (!answer.ok()) {
      std::cerr << "dbscout_client: " << answer.status() << "\n";
      return 1;
    }
    std::cout << "kind=" << KindName(answer->kind)
              << " epoch=" << answer->epoch;
    if (answer->has_score) {
      std::cout << " score=" << answer->score;
    }
    std::cout << "\n";
    return 0;
  }

  if (const char* ttl_text = FlagValue(argc, argv, "set-ttl")) {
    auto ttl = ParseDouble(ttl_text);
    if (!ttl.ok()) {
      return Usage();
    }
    auto applied = client->Configure(collection, *ttl);
    if (!applied.ok()) {
      std::cerr << "dbscout_client: " << applied.status() << "\n";
      return 1;
    }
    std::cout << "ttl=" << *applied << "\n";
    return 0;
  }

  if (HasFlag(argc, argv, "stats")) {
    auto stats = client->Stats(collection);
    if (!stats.ok()) {
      std::cerr << "dbscout_client: " << stats.status() << "\n";
      return 1;
    }
    std::cout << "epoch=" << stats->epoch << " points=" << stats->num_points
              << " core=" << stats->num_core
              << " outliers=" << stats->num_outliers
              << " cells=" << stats->num_cells
              << " shed=" << stats->admission_rejections
              << " live=" << stats->live_points
              << " window-begin=" << stats->window_begin
              << " queue-depth=" << stats->queue_depth
              << " ttl=" << stats->ttl_seconds
              << " uptime=" << stats->uptime_seconds << "\n";
    for (const auto& row : stats->phases) {
      std::cout << "phase " << row.name << " seconds=" << row.seconds
                << " dist-comps=" << row.distance_comps
                << " records=" << row.records << "\n";
    }
    for (const auto& row : stats->latencies) {
      std::cout << "latency " << row.verb << " count=" << row.count
                << " p50=" << row.p50_seconds << " p99=" << row.p99_seconds
                << " p999=" << row.p999_seconds << "\n";
    }
    return 0;
  }

  if (HasFlag(argc, argv, "snapshot")) {
    auto snapshot = client->Snapshot(collection);
    if (!snapshot.ok()) {
      std::cerr << "dbscout_client: " << snapshot.status() << "\n";
      return 1;
    }
    // Expired ids read as kOutlier with alive 0: count live ones only.
    size_t outliers = 0;
    for (size_t id = 0; id < snapshot->kinds.size(); ++id) {
      if (snapshot->alive[id] != 0 &&
          snapshot->kinds[id] == dbscout::core::PointKind::kOutlier) {
        ++outliers;
      }
    }
    std::cout << "epoch=" << snapshot->epoch << " core=" << snapshot->num_core
              << " outliers=" << outliers << " cells=" << snapshot->num_cells
              << "\n";
    return 0;
  }

  return Usage();
}

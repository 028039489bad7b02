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
// Flags are parsed by the dbscout CLI's cli::Flags. An unknown flag, a
// positional argument, a missing --port, or a value out of range (--port
// must be <= 65535 and --query-id / --trace-limit <= 4294967295) exits
// with usage (status 2) before connecting, instead of wrapping into a
// different port or id. --ingest reads FILE as CSV when it ends in .csv
// and as DBSC binary otherwise; --format overrides (data/io.h).

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "common/str_util.h"
#include "data/io.h"
#include "service/client.h"

namespace {

using dbscout::Status;
using dbscout::cli::Flags;

int Usage(const Status& status) {
  std::cerr
      << "dbscout_client: " << status << "\n"
      << "usage: dbscout_client --port=P --collection=C "
         "(--ingest=FILE [--format=csv|binary] | --query=X,Y[,...] "
         "[--score] | --query-id=I [--score] | --stats | --snapshot | "
         "--set-ttl=SECONDS), or dbscout_client --port=P "
         "(--metrics | --health | --trace-dump [--collection=C] "
         "[--span-name=N] [--trace-id=HEX] [--trace-limit=K]) [--host=H]; "
         "add --trace to stamp the request with a trace id\n";
  return 2;
}

/// Every flag value, checked before connecting.
struct Args {
  uint64_t port = 0;
  uint64_t query_id = 0;
  uint64_t trace_limit = 0;
  uint64_t trace_id = 0;
  double ttl = 0.0;
  std::vector<double> point;
  dbscout::PointFormat format = dbscout::PointFormat::kDbsc;
};

Status CheckFlags(const Flags& flags, Args* args) {
  constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  DBSCOUT_RETURN_IF_ERROR(flags.CheckAllowed(
      {"host", "port", "collection", "ingest", "format", "query", "score",
       "query-id", "stats", "snapshot", "set-ttl", "metrics", "health",
       "trace-dump", "span-name", "trace-id", "trace-limit", "trace"}));
  DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"port"}));
  // --metrics/--health/--trace-dump are service-wide, so they take no
  // collection (for --trace-dump it is an optional scope filter).
  if (!flags.Has("metrics") && !flags.Has("health") &&
      !flags.Has("trace-dump")) {
    DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"collection"}));
  }
  DBSCOUT_ASSIGN_OR_RETURN(
      args->port,
      flags.GetUint("port", 0, std::numeric_limits<uint16_t>::max()));
  DBSCOUT_ASSIGN_OR_RETURN(args->query_id,
                           flags.GetUint("query-id", 0, kMaxU32));
  DBSCOUT_ASSIGN_OR_RETURN(args->trace_limit,
                           flags.GetUint("trace-limit", 0, kMaxU32));
  DBSCOUT_ASSIGN_OR_RETURN(args->ttl, flags.GetDouble("set-ttl", 0.0));
  if (flags.Has("trace-id")) {
    const std::string text = flags.GetString("trace-id");
    char* end = nullptr;
    args->trace_id = std::strtoull(text.c_str(), &end, 16);
    if (end == text.c_str() || *end != '\0') {
      return Status::InvalidArgument("--trace-id: not hex: " + text);
    }
  }
  if (flags.Has("query")) {
    const std::string query = flags.GetString("query");
    for (std::string_view field : dbscout::Split(query, ',')) {
      DBSCOUT_ASSIGN_OR_RETURN(const double value,
                               dbscout::ParseDouble(field));
      args->point.push_back(value);
    }
  }
  if (flags.Has("ingest")) {
    DBSCOUT_ASSIGN_OR_RETURN(
        args->format, dbscout::PointFileFormat(flags.GetString("ingest"),
                                               flags.GetString("format")));
  }
  for (const char* action : {"metrics", "health", "trace-dump", "ingest",
                             "query", "query-id", "set-ttl", "stats",
                             "snapshot"}) {
    if (flags.Has(action)) {
      return Status::OK();
    }
  }
  return Status::InvalidArgument("no action flag");
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
  namespace service = dbscout::service;

  auto flags = Flags::ParseFlags(argc, argv);
  Args args;
  const Status checked =
      flags.ok() ? CheckFlags(*flags, &args) : flags.status();
  if (!checked.ok()) {
    return Usage(checked);
  }
  const std::string collection = flags->GetString("collection");
  auto client = service::Client::Connect(flags->GetString("host", "127.0.0.1"),
                                         static_cast<uint16_t>(args.port));
  if (!client.ok()) {
    std::cerr << "dbscout_client: " << client.status() << "\n";
    return 1;
  }
  if (flags->Has("trace")) {
    client->EnableTracing();
  }

  if (flags->Has("metrics")) {
    auto text = client->Metrics();
    if (!text.ok()) {
      std::cerr << "dbscout_client: " << text.status() << "\n";
      return 1;
    }
    std::cout << *text;
    return 0;
  }

  if (flags->Has("health")) {
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

  if (flags->Has("trace-dump")) {
    auto answer = client->TraceDump(
        collection, flags->GetString("span-name"), args.trace_id,
        static_cast<uint32_t>(args.trace_limit));
    if (!answer.ok()) {
      std::cerr << "dbscout_client: " << answer.status() << "\n";
      return 1;
    }
    std::cerr << "trace retained=" << answer->spans_retained
              << " dropped=" << answer->spans_dropped << "\n";
    std::cout << answer->json << "\n";
    return 0;
  }

  if (flags->Has("ingest")) {
    auto points =
        dbscout::LoadPointFile(flags->GetString("ingest"), args.format);
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

  if (flags->Has("query") || flags->Has("query-id")) {
    const bool score = flags->Has("score");
    auto answer =
        flags->Has("query")
            ? client->QueryPoint(collection, args.point, score)
            : client->QueryId(collection,
                              static_cast<uint32_t>(args.query_id), score);
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

  if (flags->Has("set-ttl")) {
    auto applied = client->Configure(collection, args.ttl);
    if (!applied.ok()) {
      std::cerr << "dbscout_client: " << applied.status() << "\n";
      return 1;
    }
    std::cout << "ttl=" << *applied << "\n";
    return 0;
  }

  if (flags->Has("stats")) {
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

  // CheckFlags admits only command lines with an action: this is
  // --snapshot.
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

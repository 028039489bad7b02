// Long-running detection server: binds a TCP port and serves the framed
// INGEST/QUERY/STATS/SNAPSHOT protocol over one DetectionService. Exits
// cleanly on SIGINT/SIGTERM, draining queued ingests and in-flight
// sessions first.
//
// usage: dbscout_serve --eps=X --min-pts=N [--host=H] [--port=P]
//                      [--max-sessions=S] [--max-pending=Q]
//                      [--ttl-seconds=T]
//                      [--data-dir=DIR] [--wal-fsync=always|interval|never]
//                      [--snapshot-interval=BYTES]
//                      [--slow-request-ms=N] [--trace-spans=CAP]
//
// Every collection is backed by one incremental detector; the apply loop
// fans its slab-block tasks out on one worker per core.
// Flags are parsed by the dbscout CLI's cli::Flags. An unknown flag, a
// positional argument, a missing --eps or --min-pts, or a value out of
// range (--eps must be > 0, --min-pts in [1, INT_MAX], --port <= 65535)
// exits with usage (status 2) before binding.
// --ttl-seconds=T gives every collection a sliding window: points older
// than T seconds are expired by the apply loop (0 = append-only; override
// per collection with dbscout_client --set-ttl).
//
// --data-dir=DIR makes every collection durable: a per-collection
// write-ahead log plus periodic snapshots under DIR, replayed on the next
// start from the same DIR. --wal-fsync picks when acknowledged ingests
// become power-loss durable (always = fsync before every ack, interval =
// group fsync, never = only on clean close; kill -9 never loses
// acknowledged data in any mode). --snapshot-interval=BYTES compacts the
// WAL into a snapshot whenever the active segment outgrows BYTES
// (0 disables). The server refuses to start if recovery fails — serving
// over partial recovery would silently drop acknowledged data.
//
// Tracing is always on: every request's spans (frame decode, queue wait,
// detector apply, WAL commit, snapshot publish, reply encode) land in an
// in-memory ring buffer (--trace-spans=CAP spans, default 16384) that
// `dbscout_client --trace-dump` reads live over the TRACE verb as
// Chrome/Perfetto JSON. --slow-request-ms=N logs a structured warning line
// (with the request's trace id) for any request slower than N ms; N=0
// logs every request (smoke-test mode).
//
// --port=0 (the default) binds an ephemeral port; the chosen port is
// printed as "listening on H:P" so wrappers (tools/serve_smoke.sh) can
// discover it. The banner is printed only after crash recovery finishes,
// so a wrapper that waits for it knows HEALTH is already "ready"; while
// recovery replays the WAL the port is bound and HEALTH answers
// "not-ready".

#include <time.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "cli/flags.h"
#include "obs/trace.h"
#include "service/server.h"
#include "service/service.h"
#include "storage/store.h"

namespace {

using dbscout::Status;
using dbscout::cli::Flags;

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) { g_stop.store(true); }

int Usage() {
  std::cerr << "usage: dbscout_serve --eps=X --min-pts=N [--host=H] "
               "[--port=P] [--max-sessions=S] [--max-pending=Q] "
               "[--ttl-seconds=T] "
               "[--data-dir=DIR] [--wal-fsync=always|interval|never] "
               "[--snapshot-interval=BYTES] "
               "[--slow-request-ms=N] [--trace-spans=CAP]\n";
  return 2;
}

/// Sets *out to `scale` times the value of --`name` when it is given;
/// the value must be >= 0.
Status GetNonNegative(const Flags& flags, const std::string& name,
                      double scale, double* out) {
  if (!flags.Has(name)) {
    return Status::OK();
  }
  DBSCOUT_ASSIGN_OR_RETURN(const double value, flags.GetDouble(name, 0.0));
  if (value < 0.0) {
    return Status::InvalidArgument("--" + name + " must be >= 0");
  }
  *out = value * scale;
  return Status::OK();
}

/// Fills the options from the command line; any error means usage.
Status ParseOptions(const Flags& flags,
                    dbscout::service::ServiceOptions* service,
                    dbscout::service::ServerOptions* server,
                    size_t* trace_spans) {
  constexpr uint64_t kMaxSize = std::numeric_limits<size_t>::max();
  DBSCOUT_RETURN_IF_ERROR(flags.CheckAllowed(
      {"eps", "min-pts", "host", "port", "max-sessions", "max-pending",
       "ttl-seconds", "data-dir", "wal-fsync", "snapshot-interval",
       "slow-request-ms", "trace-spans"}));
  DBSCOUT_RETURN_IF_ERROR(flags.CheckRequired({"eps", "min-pts"}));
  DBSCOUT_ASSIGN_OR_RETURN(service->params.eps, flags.GetDouble("eps", 0.0));
  DBSCOUT_ASSIGN_OR_RETURN(
      const uint64_t min_pts,
      flags.GetUint("min-pts", 0, std::numeric_limits<int>::max()));
  service->params.min_pts = static_cast<int>(min_pts);
  DBSCOUT_RETURN_IF_ERROR(service->params.Validate());
  DBSCOUT_ASSIGN_OR_RETURN(
      service->max_pending_ingests,
      flags.GetUint("max-pending", service->max_pending_ingests, kMaxSize));
  DBSCOUT_RETURN_IF_ERROR(
      GetNonNegative(flags, "ttl-seconds", 1.0, &service->ttl_seconds));
  service->data_dir = flags.GetString("data-dir");
  if (flags.Has("wal-fsync")) {
    DBSCOUT_ASSIGN_OR_RETURN(
        service->wal_fsync,
        dbscout::storage::ParseFsyncPolicy(flags.GetString("wal-fsync")));
  }
  DBSCOUT_ASSIGN_OR_RETURN(
      service->snapshot_interval_bytes,
      flags.GetUint("snapshot-interval", service->snapshot_interval_bytes,
                    std::numeric_limits<uint64_t>::max()));
  // 0 = unbounded (batch-style full retention).
  DBSCOUT_ASSIGN_OR_RETURN(*trace_spans,
                           flags.GetUint("trace-spans", 16384, kMaxSize));
  DBSCOUT_RETURN_IF_ERROR(GetNonNegative(flags, "slow-request-ms", 1e-3,
                                         &service->slow_request_seconds));
  server->host = flags.GetString("host", server->host);
  DBSCOUT_ASSIGN_OR_RETURN(const uint64_t port,
                           flags.GetUint("port", server->port,
                                         std::numeric_limits<uint16_t>::max()));
  server->port = static_cast<uint16_t>(port);
  DBSCOUT_ASSIGN_OR_RETURN(
      server->max_sessions,
      flags.GetUint("max-sessions", server->max_sessions, kMaxSize));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  dbscout::service::ServiceOptions service_options;
  dbscout::service::ServerOptions server_options;
  size_t trace_spans = 0;
  auto flags = Flags::ParseFlags(argc, argv);
  const Status parsed =
      flags.ok() ? ParseOptions(*flags, &service_options, &server_options,
                                &trace_spans)
                 : flags.status();
  if (!parsed.ok()) {
    std::cerr << "dbscout_serve: " << parsed << "\n";
    return Usage();
  }
  // The ring is always attached so `dbscout_client --trace-dump` works
  // without a restart; at the default capacity an idle request path costs
  // only the span emissions themselves (no per-request allocation growth).
  dbscout::obs::TraceCollector trace(trace_spans);
  service_options.trace = &trace;

  // Bind the port before replaying the WAL: during recovery the server is
  // reachable and HEALTH reports not-ready (collection verbs answer
  // kUnavailable), which is what load balancers and the smoke test probe.
  // The "listening" banner is printed only after recovery, so wrappers
  // that wait for it see a ready server.
  service_options.defer_recovery = true;
  dbscout::service::DetectionService service(service_options);
  auto server = dbscout::service::Server::Start(&service, server_options);
  if (!server.ok()) {
    std::cerr << "dbscout_serve: " << server.status() << "\n";
    return 1;
  }
  service.RunDeferredRecovery();
  if (!service.recovery_status().ok()) {
    std::cerr << "dbscout_serve: crash recovery failed: "
              << service.recovery_status() << "\n";
    (*server)->Stop();
    service.Stop();
    return 1;
  }
  std::cout << "listening on " << server_options.host << ":"
            << (*server)->port() << std::endl;

  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  while (!g_stop.load()) {
    timespec tick{0, 100 * 1000 * 1000};  // 100ms
    ::nanosleep(&tick, nullptr);
  }

  std::cout << "shutting down" << std::endl;
  (*server)->Stop();   // drain sessions first ...
  service.Stop();      // ... then the apply queue
  return 0;
}

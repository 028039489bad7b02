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
// --eps must be > 0, --min-pts in [1, INT_MAX] and --port <= 65535; any
// other value exits with usage (status 2) before binding.
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
#include <climits>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>

#include "common/str_util.h"
#include "obs/trace.h"
#include "service/server.h"
#include "service/service.h"
#include "storage/store.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) { g_stop.store(true); }

// Minimal --name=value parser (the dbscout CLI's Flags class wants a
// subcommand word, which this single-purpose tool doesn't have).
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

int Usage() {
  std::cerr << "usage: dbscout_serve --eps=X --min-pts=N [--host=H] "
               "[--port=P] [--max-sessions=S] [--max-pending=Q] "
               "[--ttl-seconds=T] "
               "[--data-dir=DIR] [--wal-fsync=always|interval|never] "
               "[--snapshot-interval=BYTES] "
               "[--slow-request-ms=N] [--trace-spans=CAP]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using dbscout::ParseDouble;
  using dbscout::ParseUint64;

  const char* eps_text = FlagValue(argc, argv, "eps");
  const char* min_pts_text = FlagValue(argc, argv, "min-pts");
  if (eps_text == nullptr || min_pts_text == nullptr) {
    return Usage();
  }
  auto eps = ParseDouble(eps_text);
  auto min_pts = ParseUint64(min_pts_text);
  if (!eps.ok() || !min_pts.ok() || *min_pts > INT_MAX) {
    return Usage();
  }

  dbscout::service::ServiceOptions service_options;
  service_options.params.eps = *eps;
  service_options.params.min_pts = static_cast<int>(*min_pts);
  if (const dbscout::Status valid = service_options.params.Validate();
      !valid.ok()) {
    std::cerr << "dbscout_serve: " << valid << "\n";
    return Usage();
  }
  if (const char* text = FlagValue(argc, argv, "max-pending")) {
    auto value = ParseUint64(text);
    if (!value.ok()) {
      return Usage();
    }
    service_options.max_pending_ingests = *value;
  }
  if (const char* text = FlagValue(argc, argv, "ttl-seconds")) {
    auto value = ParseDouble(text);
    if (!value.ok() || *value < 0.0) {
      return Usage();
    }
    service_options.ttl_seconds = *value;
  }
  if (const char* text = FlagValue(argc, argv, "data-dir")) {
    service_options.data_dir = text;
  }
  if (const char* text = FlagValue(argc, argv, "wal-fsync")) {
    auto policy = dbscout::storage::ParseFsyncPolicy(text);
    if (!policy.ok()) {
      return Usage();
    }
    service_options.wal_fsync = *policy;
  }
  if (const char* text = FlagValue(argc, argv, "snapshot-interval")) {
    auto value = ParseUint64(text);
    if (!value.ok()) {
      return Usage();
    }
    service_options.snapshot_interval_bytes = *value;
  }
  size_t trace_spans = 16384;
  if (const char* text = FlagValue(argc, argv, "trace-spans")) {
    auto value = ParseUint64(text);
    if (!value.ok()) {
      return Usage();
    }
    trace_spans = *value;  // 0 = unbounded (batch-style full retention)
  }
  // The ring is always attached so `dbscout_client --trace-dump` works
  // without a restart; at the default capacity an idle request path costs
  // only the span emissions themselves (no per-request allocation growth).
  dbscout::obs::TraceCollector trace(trace_spans);
  service_options.trace = &trace;
  if (const char* text = FlagValue(argc, argv, "slow-request-ms")) {
    auto value = ParseDouble(text);
    if (!value.ok() || *value < 0.0) {
      return Usage();
    }
    service_options.slow_request_seconds = *value / 1000.0;
  }

  dbscout::service::ServerOptions server_options;
  if (const char* text = FlagValue(argc, argv, "host")) {
    server_options.host = text;
  }
  if (const char* text = FlagValue(argc, argv, "port")) {
    auto value = ParseUint64(text);
    if (!value.ok() || *value > UINT16_MAX) {
      return Usage();
    }
    server_options.port = static_cast<uint16_t>(*value);
  }
  if (const char* text = FlagValue(argc, argv, "max-sessions")) {
    auto value = ParseUint64(text);
    if (!value.ok()) {
      return Usage();
    }
    server_options.max_sessions = *value;
  }

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

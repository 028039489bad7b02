// Crash-recovery integration test: a real dbscout_serve process is
// SIGKILLed while a client hammers it with INGEST batches, then restarted
// over the same --data-dir. Every acknowledged batch must survive the
// kill (with --wal-fsync=interval a kill -9 loses nothing: the frames
// are in the page cache even before the group fsync), the recovered
// epoch must sit on a batch boundary of the sent stream, and the
// restarted snapshot must equal DetectSequential on the recovered
// prefix — with and without a sliding-window TTL. A server given a flag
// it cannot honour must refuse to start, and dbscout_client must refuse
// an out-of-range flag instead of wrapping it. The binary paths arrive via
// the DBSCOUT_SERVE_BIN and DBSCOUT_CLIENT_BIN compile definitions.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "service/client.h"
#include "testutil.h"

namespace dbscout::service {
namespace {

using core::PointKind;

std::string FreshDataDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/crash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

core::Params TestParams() {
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 4;
  return params;
}

/// A dbscout_serve child process. Started with --port=0; the chosen port
/// is parsed from its "listening on host:port" banner.
struct ServeProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  uint16_t port = 0;
  /// The child's stdout up to the banner (or up to its exit).
  std::string banner;
  /// waitpid status when the child exited before listening, else -1.
  int exit_status = -1;

  void Kill() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
      pid = -1;
    }
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
  }
};

/// Forks and execs dbscout_serve with the given extra flags, waiting for
/// the listening banner. Returns a port of 0 (and a reaped pid) when the
/// process exits before binding — e.g. when crash recovery fails. The
/// extra flags follow the defaults, and dbscout_serve keeps the last
/// occurrence of a flag, so they override --eps, --min-pts and --port.
ServeProcess StartServe(const std::vector<std::string>& extra_flags) {
  int pipe_fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<std::string> args = {DBSCOUT_SERVE_BIN, "--eps=1.0",
                                     "--min-pts=4", "--port=0"};
    args.insert(args.end(), extra_flags.begin(), extra_flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);

  ServeProcess serve;
  serve.pid = pid;
  serve.stdout_fd = pipe_fds[0];
  std::string& banner = serve.banner;
  char buf[256];
  while (banner.find('\n') == std::string::npos) {
    const ssize_t n = ::read(pipe_fds[0], buf, sizeof(buf));
    if (n <= 0) {
      // The child died before listening (recovery failure path).
      ::waitpid(pid, &serve.exit_status, 0);
      serve.pid = -1;
      return serve;
    }
    banner.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = banner.rfind(':', banner.find('\n'));
  if (colon != std::string::npos) {
    serve.port = static_cast<uint16_t>(
        std::strtoul(banner.c_str() + colon + 1, nullptr, 10));
  }
  EXPECT_NE(serve.port, 0) << "banner: " << banner;
  return serve;
}

std::vector<double> Flatten(const PointSet& points) {
  return points.values();
}

/// Pre-generates the batch stream: one wide plan batch, then tight
/// clusters + background noise so the labeling is non-trivial.
std::vector<PointSet> MakeBatches(Rng* rng, size_t rounds) {
  std::vector<PointSet> batches;
  batches.push_back(testing::UniformPoints(rng, 80, 2, 0.0, 10.0));
  for (size_t i = 0; i < rounds; ++i) {
    PointSet batch(2);
    const PointSet clusters = testing::ClusteredPoints(rng, 24, 2, 2, 0.2);
    for (size_t j = 0; j < clusters.size(); ++j) {
      batch.Add(clusters[j]);
    }
    const PointSet noise = testing::UniformPoints(rng, 8, 2, -1.0, 11.0);
    for (size_t j = 0; j < noise.size(); ++j) {
      batch.Add(noise[j]);
    }
    batches.push_back(batch);
  }
  return batches;
}

/// Asserts the restarted server's snapshot equals the sequential oracle
/// on the live subset of the first `epoch` sent points.
void ExpectOracleSnapshot(Client* client, const std::vector<PointSet>& sent,
                          const char* where) {
  auto stats = client->Stats("c");
  ASSERT_TRUE(stats.ok()) << where << ": " << stats.status();
  auto snapshot = client->Snapshot("c");
  ASSERT_TRUE(snapshot.ok()) << where << ": " << snapshot.status();
  ASSERT_EQ(snapshot->epoch, stats->epoch) << where;

  // Rebuild the sent prefix the recovered epoch covers.
  PointSet prefix(2);
  for (const PointSet& batch : sent) {
    if (prefix.size() >= snapshot->epoch) {
      break;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      prefix.Add(batch[i]);
    }
  }
  ASSERT_EQ(prefix.size(), snapshot->epoch)
      << where << ": recovered epoch is not a batch boundary";

  PointSet live(2);
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (snapshot->alive[i] != 0) {
      live.Add(prefix[i]);
    }
  }
  auto oracle = core::DetectSequential(live, TestParams());
  ASSERT_TRUE(oracle.ok()) << where;
  size_t j = 0;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (snapshot->alive[i] == 0) {
      continue;
    }
    ASSERT_EQ(snapshot->kinds[i], oracle->kinds[j])
        << where << ": live point " << i;
    ++j;
  }
  EXPECT_EQ(stats->live_points, live.size()) << where;

  // A probe far from every cluster must come back an outlier.
  auto probe = client->QueryPoint("c", {1e6, 1e6}, /*want_score=*/false);
  ASSERT_TRUE(probe.ok()) << where;
  EXPECT_EQ(probe->kind, PointKind::kOutlier) << where;
}

TEST(CrashRecoveryTest, Kill9MidIngestLosesNoAcknowledgedData) {
  const std::string dir = FreshDataDir("kill");
  const std::string dir_flag = "--data-dir=" + dir;

  Rng rng(0xdeae);
  const std::vector<PointSet> batches = MakeBatches(&rng, 200);

  ServeProcess serve =
      StartServe({dir_flag, "--wal-fsync=interval"});
  ASSERT_NE(serve.port, 0);

  // Hammer the server from one connection (so the sent order is total)
  // until the kill below severs it mid-call.
  std::atomic<size_t> acked_batches{0};
  ThreadPool hammer(1);
  hammer.Submit([&] {
    auto client = Client::Connect("127.0.0.1", serve.port);
    if (!client.ok()) {
      return;
    }
    for (const PointSet& batch : batches) {
      auto epoch = client->Ingest("c", 2, Flatten(batch));
      if (!epoch.ok()) {
        break;  // the kill severed the connection
      }
      acked_batches.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  serve.Kill();
  hammer.WaitIdle();
  const size_t acked = acked_batches.load();
  ASSERT_GT(acked, 0u) << "server died before acknowledging anything";

  uint64_t acked_epoch = 0;
  for (size_t i = 0; i < acked; ++i) {
    acked_epoch += batches[i].size();
  }

  // Restart over the same directory: every acknowledged batch must be
  // there, and the labeling must match the sequential oracle.
  ServeProcess restarted =
      StartServe({dir_flag, "--wal-fsync=interval"});
  ASSERT_NE(restarted.port, 0) << "crash recovery failed on restart";
  {
    auto client = Client::Connect("127.0.0.1", restarted.port);
    ASSERT_TRUE(client.ok()) << client.status();
    auto stats = client->Stats("c");
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_GE(stats->epoch, acked_epoch)
        << "acknowledged data lost across kill -9 (acked " << acked
        << " batches)";
    ExpectOracleSnapshot(&*client, batches, "after kill restart");

    // The recovered collection still takes writes.
    PointSet extra = testing::UniformPoints(&rng, 20, 2, 0.0, 10.0);
    auto epoch = client->Ingest("c", 2, Flatten(extra));
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    EXPECT_EQ(*epoch, stats->epoch + extra.size());
  }
  restarted.Kill();
}

TEST(CrashRecoveryTest, Kill9WithSlidingWindowKeepsExpiryDurable) {
  const std::string dir = FreshDataDir("ttl");
  const std::string dir_flag = "--data-dir=" + dir;

  Rng rng(0xfeee);
  std::vector<PointSet> sent;
  std::vector<PointKind> kinds_before;
  std::vector<uint8_t> alive_before;

  ServeProcess serve = StartServe(
      {dir_flag, "--wal-fsync=interval", "--ttl-seconds=1"});
  ASSERT_NE(serve.port, 0);
  {
    auto client = Client::Connect("127.0.0.1", serve.port);
    ASSERT_TRUE(client.ok()) << client.status();
    // The plan batch ages past the 1s TTL while we wait; the server's
    // 100ms expiry ticks write its EXPIRE record well before the kill.
    sent.push_back(testing::UniformPoints(&rng, 80, 2, 0.0, 10.0));
    ASSERT_TRUE(client->Ingest("c", 2, Flatten(sent.back())).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1400));
    sent.push_back(testing::ClusteredPoints(&rng, 40, 2, 2, 0.2));
    ASSERT_TRUE(client->Ingest("c", 2, Flatten(sent.back())).ok());
    auto stats = client->Stats("c");
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->window_begin, sent[0].size())
        << "first batch should have expired before the kill";
    // The expired plan batch answers as it will after the restart.
    auto expired = client->QueryId("c", 0, /*want_score=*/false);
    EXPECT_EQ(expired.status().code(), StatusCode::kNotFound)
        << expired.status();
    auto snapshot = client->Snapshot("c");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    kinds_before = snapshot->kinds;
    alive_before = snapshot->alive;
  }
  serve.Kill();

  ServeProcess restarted = StartServe(
      {dir_flag, "--wal-fsync=interval", "--ttl-seconds=1"});
  ASSERT_NE(restarted.port, 0) << "crash recovery failed on restart";
  {
    auto client = Client::Connect("127.0.0.1", restarted.port);
    ASSERT_TRUE(client.ok()) << client.status();
    auto stats = client->Stats("c");
    ASSERT_TRUE(stats.ok()) << stats.status();
    // The window never rewinds: the expired prefix stays expired.
    EXPECT_GE(stats->window_begin, sent[0].size());
    EXPECT_EQ(stats->epoch, sent[0].size() + sent[1].size());
    ExpectOracleSnapshot(&*client, sent, "after TTL restart");
    // One rule for expired ids, before the kill and after the restart:
    // the SNAPSHOT arrays over [0, epoch) match id for id.
    auto snapshot = client->Snapshot("c");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    EXPECT_EQ(snapshot->kinds, kinds_before);
    EXPECT_EQ(snapshot->alive, alive_before);
    auto expired = client->QueryId("c", 0, /*want_score=*/false);
    EXPECT_EQ(expired.status().code(), StatusCode::kNotFound)
        << expired.status();
  }
  restarted.Kill();
}

// Flags dbscout_serve cannot honour exit with usage (status 2) before
// the server binds, instead of wrapping into a different value, starting
// a server whose every INGEST fails, or ignoring a misspelt flag (a
// --data_dir server would serve in memory) or a positional argument.
TEST(ServeFlagsTest, UnhonourableFlagsExitWithUsage) {
  for (const char* flag :
       {"--port=70000", "--min-pts=2147483648", "--min-pts=4294967297",
        "--eps=-1", "--min-pts=0", "--eps=0", "--data_dir=D",
        "--ttl_seconds=5", "positional"}) {
    SCOPED_TRACE(flag);
    ServeProcess serve = StartServe({flag});
    serve.Kill();  // stops a server that did start; closes the pipe
    EXPECT_EQ(serve.port, 0);
    EXPECT_EQ(serve.banner.find("listening"), std::string::npos)
        << serve.banner;
    ASSERT_NE(serve.exit_status, -1);
    EXPECT_TRUE(WIFEXITED(serve.exit_status));
    EXPECT_EQ(WEXITSTATUS(serve.exit_status), 2);
  }
}

/// Runs dbscout_client with `args` (output discarded) and returns its
/// waitpid status.
int RunClient(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    std::vector<std::string> full = {DBSCOUT_CLIENT_BIN};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : full) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int wstatus = -1;
  ::waitpid(pid, &wstatus, 0);
  return wstatus;
}

// Integer flags dbscout_client would have to narrow exit with usage
// (status 2) before connecting, instead of wrapping into a different port
// or id: against a live server, a wrapped --port=P+65536 would reach P
// and a wrapped --query-id=2^32+5 would answer for id 5. So does an
// unknown flag, instead of being ignored.
TEST(ClientFlagsTest, OutOfRangeFlagsExitWithUsage) {
  ServeProcess serve = StartServe({});
  ASSERT_NE(serve.port, 0);
  const std::string port = "--port=" + std::to_string(serve.port);
  {
    auto client = Client::Connect("127.0.0.1", serve.port);
    ASSERT_TRUE(client.ok()) << client.status();
    Rng rng(0xc1);
    const PointSet points = testing::UniformPoints(&rng, 8, 2, 0.0, 1.0);
    ASSERT_TRUE(client->Ingest("c", 2, Flatten(points)).ok());
  }
  // In range, the same verbs succeed, so a refusal below is the check.
  for (const std::vector<std::string>& ok :
       {std::vector<std::string>{port, "--collection=c", "--query-id=5"},
        std::vector<std::string>{port, "--trace-dump",
                                 "--trace-limit=4294967295"}}) {
    const int status = RunClient(ok);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << ok[1] << " " << ok[2];
  }
  const std::string wrapped_port =
      "--port=" + std::to_string(serve.port + 65536);
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{wrapped_port, "--collection=c", "--stats"},
        std::vector<std::string>{"--port=18446744073709551616",
                                 "--collection=c", "--stats"},
        std::vector<std::string>{port, "--collection=c",
                                 "--query-id=4294967301"},
        std::vector<std::string>{port, "--trace-dump",
                                 "--trace-limit=4294967296"},
        std::vector<std::string>{port, "--trace-dump", "--colection=c"}}) {
    SCOPED_TRACE(bad[0] + " " + bad[2]);
    const int status = RunClient(bad);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
  serve.Kill();
}

}  // namespace
}  // namespace dbscout::service

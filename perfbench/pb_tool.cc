// pb_tool: the benchmark's helper binary. perfbench/run.py drives it; every
// subcommand prints one JSON object on stdout (or writes the files named by
// its flags) and exits nonzero on failure.
//
//   gen        --kind=osm2d|clustered4d --n=N --seed=S --out=FILE
//   layers     --input=FILE --eps=E --min-pts=M --stripe-points=P
//   shared2    --input=FILE --eps=E --min-pts=M
//   preload    --port=P --stream=FILE --count=N --batch=B --acks=FILE
//   load       --port=P --stream=FILE --offset=K --ingest-rate=R
//              --query-rate=Q --seconds=T
//              --batch=B --seed=S --trace=0|1 --requests=FILE
//   fetch      --port=P --out-prefix=PATH   (TRACE per span name + METRICS)
//   verify     --port=P --stream=FILE --acks=FILE --eps=E --min-pts=M
//              [--plant=label|ack]
//   replay     --stream=FILE --acks=FILE --window-begin=W --eps=E
//              --min-pts=M --seed=S
//   store-open --dir=DIR
//   isa        (the SIMD kernel table the dispatcher picked)
//
// The load generator is open loop: one thread drives every connection from
// a precomputed schedule and never waits on a reply before the next send.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "core/incremental.h"
#include "data/io.h"
#include "datasets/geo.h"
#include "external/external_detector.h"
#include "grid/grid.h"
#include "grid/neighborhood.h"
#include "service/client.h"
#include "service/protocol.h"
#include "simd/distance_kernel.h"
#include "storage/store.h"

namespace {

using namespace dbscout;

constexpr const char* kCollection = "c";

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

double FlagD(int argc, char** argv, const std::string& name, double fallback) {
  const std::string v = Flag(argc, argv, name);
  return v.empty() ? fallback : std::stod(v);
}

uint64_t FlagU(int argc, char** argv, const std::string& name,
               uint64_t fallback) {
  const std::string v = Flag(argc, argv, name);
  return v.empty() ? fallback : std::stoull(v);
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "pb_tool: %s\n", what.c_str());
  return 1;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Minimal JSON object writer: one flat object of numbers and strings.
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// gen

// Ablation E's generator (bench/bench_ablation_dims.cc): 12 Gaussian
// clusters (sigma 2) in [-100, 100]^d plus 2% uniform noise in
// [-120, 120]^d. The cluster layout comes from `layout_seed`, the points
// from `seed`.
PointSet Clustered(size_t n, size_t dims, uint64_t layout_seed,
                   uint64_t seed) {
  Rng layout(layout_seed);
  std::vector<std::vector<double>> centers(12, std::vector<double>(dims));
  for (auto& center : centers) {
    for (auto& c : center) {
      c = layout.Uniform(-100.0, 100.0);
    }
  }
  Rng rng(seed);
  PointSet out(dims);
  out.Reserve(n);
  std::vector<double> p(dims);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.02)) {
      for (size_t k = 0; k < dims; ++k) {
        p[k] = rng.Uniform(-120.0, 120.0);
      }
    } else {
      const auto& center = centers[rng.NextBounded(centers.size())];
      for (size_t k = 0; k < dims; ++k) {
        p[k] = rng.Gaussian(center[k], 2.0);
      }
    }
    out.Add(p);
  }
  return out;
}

// n points drawn without replacement from `pool`, in random order.
PointSet Sample(const PointSet& pool, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> order(pool.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  PointSet out(pool.dims());
  out.Reserve(n);
  for (size_t i = 0; i < n && i < order.size(); ++i) {
    std::swap(order[i], order[i + rng.NextBounded(order.size() - i)]);
    out.Add(pool[order[i]]);
  }
  return out;
}

int CmdGen(int argc, char** argv) {
  const std::string kind = Flag(argc, argv, "kind");
  const size_t n = FlagU(argc, argv, "n", 0);
  const uint64_t seed = FlagU(argc, argv, "seed", 1);
  // The map stays fixed across seeds so that runs differ by sampling, not
  // by layout: OsmLike's 600 cities come from its seed 12 (the sample
  // bench_table2 uses), the clusters from Ablation E's seed at d = 4 (87).
  // --seed draws the points, and their order.
  PointSet points(2);
  if (kind == "osm2d") {
    points = Sample(datasets::OsmLike(n + n / 2, 12), n, seed);
  } else if (kind == "clustered4d") {
    points = Clustered(n, 4, 87, seed);
  } else {
    return Fail("unknown --kind=" + kind);
  }
  const Status saved = SavePointsBinary(Flag(argc, argv, "out"), points);
  if (!saved.ok()) {
    return Fail(saved.ToString());
  }
  JsonOut out;
  out.Num("points", static_cast<double>(points.size()));
  out.Num("dims", static_cast<double>(points.dims()));
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// layers: per-layer batch numbers, each timed around one public call.

int CmdLayers(int argc, char** argv) {
  const std::string input = Flag(argc, argv, "input");
  core::Params params;
  params.eps = FlagD(argc, argv, "eps", 1.0);
  params.min_pts = static_cast<int>(FlagU(argc, argv, "min-pts", 5));
  JsonOut out;

  // data: LoadPointsBinary.
  std::vector<double> load_s;
  PointSet points(2);
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = Now();
    auto loaded = LoadPointsBinary(input);
    load_s.push_back(Now() - t0);
    if (!loaded.ok()) {
      return Fail(loaded.status().ToString());
    }
    points = std::move(*loaded);
  }
  const double n = static_cast<double>(points.size());
  const size_t dims = points.dims();
  out.Num("data.load_s", Median(load_s));

  // grid: Grid::Build, the stencil, and one neighbor sweep over the
  // non-dense cells (the cells phase 3 probes).
  std::vector<double> build_s;
  std::optional<grid::Grid> g;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = Now();
    auto built = grid::Grid::Build(points, params.eps);
    build_s.push_back(Now() - t0);
    if (!built.ok()) {
      return Fail(built.status().ToString());
    }
    g.emplace(std::move(*built));
  }
  out.Num("grid.build_s", Median(build_s));
  auto stencil = grid::GetNeighborStencil(dims);
  if (!stencil.ok()) {
    return Fail(stencil.status().ToString());
  }
  size_t dense = 0;
  uint64_t probes = 0;
  uint64_t found = 0;
  const double probe_t0 = Now();
  for (uint32_t c = 0; c < g->num_cells(); ++c) {
    if (g->CellSize(c) >= static_cast<size_t>(params.min_pts)) {
      ++dense;
      continue;
    }
    probes += (*stencil)->size();
    g->ForEachNeighborCell(c, **stencil, [&](uint32_t) { ++found; });
  }
  out.Num("grid.neighbor_probe_s", Now() - probe_t0);
  out.Num("grid.occupied_per_probe",
          probes == 0 ? 0.0 : static_cast<double>(found) / probes);
  out.Num("grid.cells", static_cast<double>(g->num_cells()));
  out.Num("grid.dense_cells", static_cast<double>(dense));
  out.Num("grid.stencil_offsets", static_cast<double>((*stencil)->size()));

  // simd: the dispatched CountWithinEps2 over every cell block, each cell's
  // first points as queries against their own block.
  const double eps2 = params.eps * params.eps;
  uint64_t compared = 0;
  uint64_t hits = 0;
  const double simd_t0 = Now();
  double simd_s = 0.0;
  do {
    for (uint32_t c = 0; c < g->num_cells(); ++c) {
      const size_t size = g->CellSize(c);
      const double* block = g->CellBlock(c);
      for (size_t q = 0; q < std::min<size_t>(size, 16); ++q) {
        hits += simd::CountWithinEps2(block + q * dims, block, size, dims,
                                      eps2, 0);
        compared += size;
      }
    }
    simd_s = Now() - simd_t0;
  } while (simd_s < 0.2);
  out.Num("simd.count_within_mpts", compared / simd_s / 1e6);
  out.Str("simd.isa", simd::DispatchedKernels().name);
  g.reset();

  // core: the sequential engine's own phase times.
  auto seq = core::DetectSequential(points, params);
  if (!seq.ok()) {
    return Fail(seq.status().ToString());
  }
  uint64_t comps = 0;
  for (const core::PhaseStats& phase : seq->phases) {
    out.Num("core." + phase.name + "_s", phase.seconds);
    comps += phase.distance_computations;
  }
  out.Num("core.dist_comps_per_pt", comps / n);

  // dataflow: DetectParallel's shuffle volume.
  core::Params dataflow_params = params;
  dataflow_params.engine = core::Engine::kParallel;
  auto par = core::Detect(points, dataflow_params);
  if (!par.ok()) {
    return Fail(par.status().ToString());
  }
  out.Num("dataflow.shuffled_records",
          static_cast<double>(par->shuffled_records));
  out.Num("dataflow.records_per_pt", par->shuffled_records / n);

  // external: striping under the benchmark's memory budget.
  external::ExternalParams ext_params;
  ext_params.eps = params.eps;
  ext_params.min_pts = params.min_pts;
  ext_params.target_stripe_points =
      FlagU(argc, argv, "stripe-points", ext_params.target_stripe_points);
  auto ext = external::DetectExternal(input, ext_params);
  if (!ext.ok()) {
    return Fail(ext.status().ToString());
  }
  out.Num("external.stripes", static_cast<double>(ext->stripes));
  out.Num("external.spilled_records",
          static_cast<double>(ext->spilled_records));
  out.Num("external.max_stripe_points",
          static_cast<double>(ext->max_stripe_points));
  out.Num("hits", static_cast<double>(hits));
  out.Print();
  return 0;
}

// shared2: a first and a second DetectSharedMemory call in one fresh
// process, on a pool created before either.
int CmdShared2(int argc, char** argv) {
  auto points = LoadPointsBinary(Flag(argc, argv, "input"));
  if (!points.ok()) {
    return Fail(points.status().ToString());
  }
  core::Params params;
  params.eps = FlagD(argc, argv, "eps", 1.0);
  params.min_pts = static_cast<int>(FlagU(argc, argv, "min-pts", 5));
  ThreadPool pool(std::thread::hardware_concurrency());
  double seconds[2] = {0.0, 0.0};
  for (double& s : seconds) {
    const double t0 = Now();
    auto r = core::DetectSharedMemory(*points, params, &pool);
    s = Now() - t0;
    if (!r.ok()) {
      return Fail(r.status().ToString());
    }
  }
  JsonOut out;
  out.Num("first_s", seconds[0]);
  out.Num("second_s", seconds[1]);
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// Stream side.

struct Ack {
  uint64_t end_epoch = 0;
  uint64_t count = 0;
  uint64_t offset = 0;  // index of the batch's first point in the stream file
};

std::vector<Ack> ReadAcks(const std::string& path) {
  std::vector<Ack> acks;
  std::ifstream in(path);
  Ack a;
  while (in >> a.end_epoch >> a.count >> a.offset) {
    acks.push_back(a);
  }
  std::sort(acks.begin(), acks.end(), [](const Ack& x, const Ack& y) {
    return x.end_epoch < y.end_epoch;
  });
  return acks;
}

std::vector<double> Slice(const PointSet& stream, size_t offset,
                          size_t count) {
  const size_t d = stream.dims();
  const auto& v = stream.values();
  return {v.begin() + offset * d, v.begin() + (offset + count) * d};
}

int CmdPreload(int argc, char** argv) {
  auto stream = LoadPointsBinary(Flag(argc, argv, "stream"));
  if (!stream.ok()) {
    return Fail(stream.status().ToString());
  }
  auto client = service::Client::Connect(
      "127.0.0.1", static_cast<uint16_t>(FlagU(argc, argv, "port", 0)));
  if (!client.ok()) {
    return Fail(client.status().ToString());
  }
  const size_t count = std::min<size_t>(FlagU(argc, argv, "count", 0),
                                        stream->size());
  const size_t batch = FlagU(argc, argv, "batch", 4096);
  std::ofstream acks(Flag(argc, argv, "acks"), std::ios::app);
  for (size_t off = 0; off < count; off += batch) {
    const size_t k = std::min(batch, count - off);
    auto epoch = client->Ingest(kCollection,
                                static_cast<uint16_t>(stream->dims()),
                                Slice(*stream, off, k));
    if (!epoch.ok()) {
      return Fail("preload: " + epoch.status().ToString());
    }
    acks << *epoch << " " << k << " " << off << "\n";
  }
  JsonOut out;
  out.Num("points", static_cast<double>(count));
  out.Print();
  return 0;
}

// One connection of the open-loop generator: non-blocking socket, bytes
// queued for sending, bytes received and not yet framed, and the requests
// sent and not yet answered (the server answers each session in order).
struct Conn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  std::vector<uint8_t> in;
  std::deque<size_t> inflight;
};

enum class Kind : uint8_t { kIngest = 0, kQueryPoint = 1, kQueryId = 2 };

struct Sent {
  Kind kind = Kind::kIngest;
  uint32_t conn = 0;
  double scheduled = 0.0;
  double sent = 0.0;
  double done = 0.0;  // 0 = no reply
  int status = -1;    // StatusCode, -1 = no reply
  uint64_t trace_id = 0;
  uint64_t offset = 0;
  uint64_t count = 0;
  uint64_t epoch = 0;
};

Result<int> ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Open-loop mix: `ingest_conns` connections carry INGEST batches and one
// carries queries (half QueryPoint near a recently sent point, half QueryId
// of a recently acknowledged point). Each class runs at its own fixed rate
// on a phase-staggered timeline; latency is completion minus the scheduled
// send.
int CmdLoad(int argc, char** argv) {
  auto stream = LoadPointsBinary(Flag(argc, argv, "stream"));
  if (!stream.ok()) {
    return Fail(stream.status().ToString());
  }
  const uint16_t port = static_cast<uint16_t>(FlagU(argc, argv, "port", 0));
  const double ingest_rate = FlagD(argc, argv, "ingest-rate", 150);
  const double query_rate = FlagD(argc, argv, "query-rate", 300);
  const double seconds = FlagD(argc, argv, "seconds", 5);
  const size_t batch = FlagU(argc, argv, "batch", 64);
  const bool traced = FlagU(argc, argv, "trace", 0) != 0;
  const double eps = FlagD(argc, argv, "eps", 1.0);
  constexpr size_t ingest_conns = 3;
  constexpr size_t query_conns = 1;
  size_t next_offset = FlagU(argc, argv, "offset", 0);
  uint64_t acked_hi = FlagU(argc, argv, "acked", 0);  // ids below are acked
  constexpr uint64_t recent_ids = 4096;  // QueryId picks among the newest
  Rng rng(FlagU(argc, argv, "seed", 1));
  const size_t d = stream->dims();

  struct Slot {
    double t;
    uint32_t conn;
  };
  std::vector<Slot> schedule;
  const double t0 = Now() + 0.2;
  const auto add_class = [&](size_t first_conn, size_t conns, double r) {
    const size_t total = static_cast<size_t>(r * seconds);
    const double interval = 1.0 / r;
    for (size_t k = 0; k < total; ++k) {
      schedule.push_back(
          {t0 + interval * static_cast<double>(k),
           static_cast<uint32_t>(first_conn + k % conns)});
    }
  };
  add_class(0, ingest_conns, ingest_rate);
  add_class(ingest_conns, query_conns, query_rate);
  std::sort(schedule.begin(), schedule.end(),
            [](const Slot& a, const Slot& b) { return a.t < b.t; });

  std::vector<Conn> conns(ingest_conns + query_conns);
  for (Conn& c : conns) {
    auto fd = ConnectRaw(port);
    if (!fd.ok()) {
      return Fail(fd.status().ToString());
    }
    c.fd = *fd;
  }
  std::vector<Sent> sent;
  sent.reserve(schedule.size());
  size_t next = 0;
  size_t outstanding = 0;
  const double deadline = t0 + seconds + 10.0;

  const auto send = [&](const Slot& slot) {
    service::Request req;
    req.collection = kCollection;
    Sent rec;
    rec.conn = slot.conn;
    rec.scheduled = slot.t;
    if (slot.conn < ingest_conns) {
      if (next_offset + batch > stream->size()) {
        return false;  // stream exhausted: size the stream file larger
      }
      rec.kind = Kind::kIngest;
      req.verb = service::Verb::kIngest;
      req.dims = static_cast<uint16_t>(d);
      req.coords = Slice(*stream, next_offset, batch);
      rec.offset = next_offset;
      rec.count = batch;
      next_offset += batch;
    } else {
      req.verb = service::Verb::kQuery;
      if (rng.NextBool(0.5)) {
        rec.kind = Kind::kQueryPoint;
        const size_t window = std::min<size_t>(next_offset, 4096);
        const size_t base =
            next_offset - 1 - rng.NextBounded(std::max<size_t>(window, 1));
        for (size_t k = 0; k < d; ++k) {
          req.query_point.push_back(stream->at(base, k) +
                                    rng.Gaussian(0.0, eps * 0.1));
        }
      } else {
        rec.kind = Kind::kQueryId;
        req.query_by_id = true;
        const uint64_t span = std::min<uint64_t>(acked_hi, recent_ids);
        req.query_id =
            static_cast<uint32_t>(acked_hi - 1 - rng.NextBounded(span));
      }
    }
    // A traced run stamps every other request, so stamped and unstamped
    // requests see the same server state and their difference is the
    // cost of tracing.
    if (traced && sent.size() % 2 == 0) {
      req.context.trace_id = service::NextTraceId();
      req.context.origin_seconds = Now();
      rec.trace_id = req.context.trace_id;
    }
    const std::vector<uint8_t> payload = service::EncodeRequest(req);
    Conn& c = conns[slot.conn];
    const uint32_t len = static_cast<uint32_t>(payload.size());
    for (int b = 0; b < 4; ++b) {
      c.out.push_back(static_cast<uint8_t>(len >> (8 * b)));
    }
    c.out.insert(c.out.end(), payload.begin(), payload.end());
    rec.sent = Now();
    c.inflight.push_back(sent.size());
    sent.push_back(rec);
    ++outstanding;
    return true;
  };

  const auto flush = [&](Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (w <= 0) {
        return !(w < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
      }
      c.out_pos += static_cast<size_t>(w);
    }
    c.out.clear();
    c.out_pos = 0;
    return true;
  };

  const auto drain = [&](Conn& c) {
    uint8_t buf[1 << 16];
    while (true) {
      const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
      if (r <= 0) {
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        return false;
      }
      c.in.insert(c.in.end(), buf, buf + r);
    }
    size_t pos = 0;
    while (c.in.size() - pos >= 4) {
      uint32_t len = 0;
      for (int b = 0; b < 4; ++b) {
        len |= static_cast<uint32_t>(c.in[pos + b]) << (8 * b);
      }
      if (c.in.size() - pos - 4 < len) {
        break;
      }
      const double done = Now();
      auto resp = service::DecodeResponse(
          std::span<const uint8_t>(c.in.data() + pos + 4, len));
      pos += 4 + len;
      if (c.inflight.empty()) {
        return false;
      }
      Sent& rec = sent[c.inflight.front()];
      c.inflight.pop_front();
      --outstanding;
      rec.done = done;
      if (!resp.ok()) {
        rec.status = static_cast<int>(StatusCode::kInternal);
        continue;
      }
      rec.status = static_cast<int>(resp->status.code());
      if (rec.kind == Kind::kIngest && resp->status.ok()) {
        rec.epoch = resp->epoch;
        acked_hi = std::max<uint64_t>(acked_hi, resp->epoch);
      }
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<ptrdiff_t>(pos));
    return true;
  };

  // Wake up within microseconds of a deadline, not the default 50 us, and
  // where the OS allows it run ahead of the server's threads: the
  // generator mostly sleeps, and a starved generator would send late and
  // charge its own delay to the server.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ::setpriority(PRIO_PROCESS, 0, -10);
  std::vector<pollfd> fds(conns.size());
  bool broken = false;
  while (!broken && (next < schedule.size() || outstanding > 0)) {
    double now = Now();
    if (now > deadline) {
      break;
    }
    while (next < schedule.size() && schedule[next].t <= now) {
      if (!send(schedule[next])) {
        return Fail("stream file exhausted");
      }
      ++next;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      if (!flush(conns[i])) {
        broken = true;
      }
      fds[i] = {conns[i].fd,
                static_cast<short>(POLLIN | (conns[i].out.empty() ? 0
                                                                  : POLLOUT)),
                0};
    }
    // Sleep until the next send is due or a reply arrives, with
    // microsecond resolution (a millisecond poll timeout would have to
    // spin, and the spinning core would compete with the server).
    double wait_s = 0.05;
    if (next < schedule.size()) {
      wait_s = std::clamp(schedule[next].t - Now(), 0.0, 0.05);
    }
    timespec timeout{0, static_cast<long>(wait_s * 1e9)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready > 0) {
      for (size_t i = 0; i < conns.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
            !drain(conns[i])) {
          broken = true;
        }
      }
    }
  }
  for (Conn& c : conns) {
    ::close(c.fd);
  }

  std::FILE* f = std::fopen(Flag(argc, argv, "requests").c_str(), "w");
  if (f == nullptr) {
    return Fail("cannot write --requests");
  }
  std::fprintf(f, "kind,conn,scheduled,sent,done,status,trace_id,offset,"
                  "count,epoch\n");
  for (const Sent& r : sent) {
    std::fprintf(f, "%d,%u,%.9f,%.9f,%.9f,%d,%016llx,%llu,%llu,%llu\n",
                 static_cast<int>(r.kind), r.conn, r.scheduled - t0,
                 r.sent - t0, r.done == 0.0 ? -1.0 : r.done - t0, r.status,
                 static_cast<unsigned long long>(r.trace_id),
                 static_cast<unsigned long long>(r.offset),
                 static_cast<unsigned long long>(r.count),
                 static_cast<unsigned long long>(r.epoch));
  }
  std::fclose(f);
  JsonOut out;
  out.Num("scheduled", static_cast<double>(schedule.size()));
  out.Num("sent", static_cast<double>(sent.size()));
  out.Num("unanswered", static_cast<double>(outstanding));
  out.Num("next_offset", static_cast<double>(next_offset));
  out.Num("acked_hi", static_cast<double>(acked_hi));
  out.Num("broken", broken ? 1.0 : 0.0);
  out.Print();
  return 0;
}

// fetch: the server's own accounting after a traced run — TRACE once per
// span name, and one METRICS scrape.
int CmdFetch(int argc, char** argv) {
  auto client = service::Client::Connect(
      "127.0.0.1", static_cast<uint16_t>(FlagU(argc, argv, "port", 0)));
  if (!client.ok()) {
    return Fail(client.status().ToString());
  }
  const std::string prefix = Flag(argc, argv, "out-prefix");
  JsonOut out;
  for (const char* name :
       {"frame_decode", "queue_wait", "apply_pass", "wal_commit",
        "snapshot_publish", "reply_encode", "ingest", "query"}) {
    auto dump = client->TraceDump("", name);
    if (!dump.ok()) {
      return Fail(std::string("TRACE ") + name + ": " +
                  dump.status().ToString());
    }
    std::ofstream(prefix + "trace_" + name + ".json") << dump->json;
    out.Num(std::string("dropped_") + name,
            static_cast<double>(dump->spans_dropped));
  }
  auto metrics = client->Metrics();
  if (!metrics.ok()) {
    return Fail("METRICS: " + metrics.status().ToString());
  }
  std::ofstream(prefix + "metrics.txt") << *metrics;
  auto stats = client->Stats(kCollection);
  if (!stats.ok()) {
    return Fail("STATS: " + stats.status().ToString());
  }
  out.Num("admission_rejections",
          static_cast<double>(stats->admission_rejections));
  out.Num("window_begin", static_cast<double>(stats->window_begin));
  out.Num("epoch", static_cast<double>(stats->epoch));
  out.Print();
  return 0;
}

// verify: after a kill -9 and restart, the server must hold every
// acknowledged ingest, and its labels must equal DetectSequential on the
// live window.
int CmdVerify(int argc, char** argv) {
  auto stream = LoadPointsBinary(Flag(argc, argv, "stream"));
  if (!stream.ok()) {
    return Fail(stream.status().ToString());
  }
  std::vector<Ack> acks = ReadAcks(Flag(argc, argv, "acks"));
  const std::string plant = Flag(argc, argv, "plant");
  auto client = service::Client::Connect(
      "127.0.0.1", static_cast<uint16_t>(FlagU(argc, argv, "port", 0)));
  if (!client.ok()) {
    return Fail(client.status().ToString());
  }
  auto health = client->Health();
  if (!health.ok()) {
    return Fail("HEALTH: " + health.status().ToString());
  }
  auto snap = client->Snapshot(kCollection);
  if (!snap.ok()) {
    return Fail("SNAPSHOT: " + snap.status().ToString());
  }
  if (plant == "ack") {
    // A planted lost write: an acknowledgement the server never applied.
    acks.push_back({snap->epoch + 64, 64, 0});
  }
  std::string problem;
  // Acknowledged batches must tile [0, epoch) exactly: ids are dense, and
  // nothing the server applied went unacknowledged in a quiescent kill.
  uint64_t expect = 0;
  std::vector<uint64_t> source(snap->epoch);  // id -> stream index
  for (const Ack& a : acks) {
    if (a.end_epoch - a.count != expect || a.end_epoch > snap->epoch) {
      problem = "acknowledged ingest missing or out of place at epoch " +
                std::to_string(a.end_epoch);
      break;
    }
    for (uint64_t k = 0; k < a.count; ++k) {
      source[expect + k] = a.offset + k;
    }
    expect = a.end_epoch;
  }
  if (problem.empty() && expect != snap->epoch) {
    problem = "server holds unacknowledged points";
  }
  uint64_t window_begin = 0;
  while (window_begin < snap->epoch && snap->alive[window_begin] == 0) {
    ++window_begin;
  }
  size_t mismatches = 0;
  if (problem.empty()) {
    PointSet live(stream->dims());
    for (uint64_t id = window_begin; id < snap->epoch; ++id) {
      if (snap->alive[id] == 0) {
        problem = "expiry is not a prefix";
        break;
      }
      live.Add((*stream)[source[id]]);
    }
    if (plant == "label" && window_begin < snap->epoch) {
      snap->kinds[window_begin] =
          snap->kinds[window_begin] == core::PointKind::kOutlier
              ? core::PointKind::kCore
              : core::PointKind::kOutlier;
    }
    core::Params params;
    params.eps = FlagD(argc, argv, "eps", 1.0);
    params.min_pts = static_cast<int>(FlagU(argc, argv, "min-pts", 5));
    auto oracle = core::DetectSequential(live, params);
    if (!oracle.ok()) {
      return Fail(oracle.status().ToString());
    }
    for (size_t i = 0; problem.empty() && i < live.size(); ++i) {
      if (oracle->kinds[i] != snap->kinds[window_begin + i]) {
        ++mismatches;
      }
    }
    if (mismatches > 0) {
      problem = std::to_string(mismatches) +
                " labels differ from DetectSequential on the live window";
    }
  }
  JsonOut out;
  out.Raw("ok", problem.empty() ? "true" : "false");
  out.Str("problem", problem);
  out.Num("health_state", static_cast<double>(health->state));
  out.Num("epoch", static_cast<double>(snap->epoch));
  out.Num("window_begin", static_cast<double>(window_begin));
  out.Num("live", static_cast<double>(snap->epoch - window_begin));
  out.Print();
  return 0;
}

// replay: the stream's exact batches, in id order, through the incremental
// detector's public API in this process.
int CmdReplay(int argc, char** argv) {
  auto stream = LoadPointsBinary(Flag(argc, argv, "stream"));
  if (!stream.ok()) {
    return Fail(stream.status().ToString());
  }
  const std::vector<Ack> acks = ReadAcks(Flag(argc, argv, "acks"));
  core::Params params;
  params.eps = FlagD(argc, argv, "eps", 1.0);
  params.min_pts = static_cast<int>(FlagU(argc, argv, "min-pts", 5));
  const size_t d = stream->dims();
  auto detector = core::IncrementalDetector::Create(d, params);
  if (!detector.ok()) {
    return Fail(detector.status().ToString());
  }
  ThreadPool pool(std::thread::hardware_concurrency());
  double insert_s = 0.0;
  uint64_t inserted = 0;
  std::vector<double> codec_us;
  for (const Ack& a : acks) {
    std::vector<double> coords = Slice(*stream, a.offset, a.count);
    {
      service::Request req;
      req.verb = service::Verb::kIngest;
      req.collection = kCollection;
      req.dims = static_cast<uint16_t>(d);
      req.coords = coords;
      const double t0 = Now();
      const std::vector<uint8_t> bytes = service::EncodeRequest(req);
      auto decoded = service::DecodeRequest(bytes);
      codec_us.push_back((Now() - t0) * 1e6);
      if (!decoded.ok()) {
        return Fail(decoded.status().ToString());
      }
    }
    auto batch = PointSet::FromRowMajor(d, std::move(coords));
    if (!batch.ok()) {
      return Fail(batch.status().ToString());
    }
    const double t0 = Now();
    const Status st = detector->AddBatchParallel(*batch, &pool);
    insert_s += Now() - t0;
    if (!st.ok()) {
      return Fail(st.ToString());
    }
    inserted += a.count;
  }
  const uint64_t window_begin = std::min<uint64_t>(
      FlagU(argc, argv, "window-begin", 0), detector->epoch());
  const double remove_t0 = Now();
  for (uint32_t id = 0; id < window_begin; ++id) {
    const Status st = detector->Remove(id);
    if (!st.ok()) {
      return Fail(st.ToString());
    }
  }
  const double remove_s = Now() - remove_t0;
  auto snapshot = detector->SnapshotNow();
  Rng rng(FlagU(argc, argv, "seed", 1));
  std::vector<double> classify_us;
  std::vector<double> probe(d);
  for (int q = 0; q < 2000 && detector->epoch() > window_begin; ++q) {
    const uint64_t id =
        window_begin + rng.NextBounded(detector->epoch() - window_begin);
    const auto p = snapshot->PointAt(static_cast<uint32_t>(id));
    for (size_t k = 0; k < d; ++k) {
      probe[k] = p[k] + rng.Gaussian(0.0, params.eps * 0.1);
    }
    const double t0 = Now();
    auto r = snapshot->Classify(probe, false);
    classify_us.push_back((Now() - t0) * 1e6);
    if (!r.ok()) {
      return Fail(r.status().ToString());
    }
  }
  JsonOut out;
  out.Num("core.insert_us_per_pt",
          inserted == 0 ? 0.0 : insert_s * 1e6 / inserted);
  out.Num("core.remove_us_per_pt",
          window_begin == 0 ? 0.0 : remove_s * 1e6 / window_begin);
  out.Num("core.classify_p50_us", Median(classify_us));
  out.Num("service.codec_us", Median(codec_us));
  out.Num("replayed_points", static_cast<double>(inserted));
  out.Print();
  return 0;
}

int CmdIsa() {
  JsonOut out;
  out.Str("isa", simd::DispatchedKernels().name);
  out.Print();
  return 0;
}

int CmdStoreOpen(int argc, char** argv) {
  const std::string dir = Flag(argc, argv, "dir");
  storage::StoreOptions options;
  options.collection = kCollection;
  storage::RecoveredCollection recovered;
  const double t0 = Now();
  auto store = storage::CollectionStore::Open(dir, options, &recovered);
  const double seconds = Now() - t0;
  if (!store.ok()) {
    return Fail(store.status().ToString());
  }
  JsonOut out;
  out.Num("storage.open_s", seconds);
  out.Num("suffix_records", static_cast<double>(recovered.suffix.size()));
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: pb_tool <subcommand> [--flag=value ...]");
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "layers") return CmdLayers(argc, argv);
  if (cmd == "shared2") return CmdShared2(argc, argv);
  if (cmd == "preload") return CmdPreload(argc, argv);
  if (cmd == "load") return CmdLoad(argc, argv);
  if (cmd == "fetch") return CmdFetch(argc, argv);
  if (cmd == "verify") return CmdVerify(argc, argv);
  if (cmd == "replay") return CmdReplay(argc, argv);
  if (cmd == "store-open") return CmdStoreOpen(argc, argv);
  if (cmd == "isa") return CmdIsa();
  return Fail("unknown subcommand " + cmd);
}

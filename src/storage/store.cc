#include "storage/store.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "storage/file_io.h"

namespace dbscout::storage {
namespace {

namespace fs = std::filesystem;

/// Parses "<prefix>NNNNNN<suffix>" into its sequence number; nullopt for
/// anything else (foreign files in the directory are ignored).
std::optional<uint64_t> ParseSeq(const std::string& name,
                                 const std::string& prefix,
                                 const std::string& suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
          0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
      return std::nullopt;
    }
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq == 0 ? std::nullopt : std::optional<uint64_t>(seq);
}

struct DirListing {
  std::map<uint64_t, std::string> segments;   // seq -> path
  std::map<uint64_t, std::string> snapshots;  // seq -> path
};

Result<DirListing> ListDir(const std::string& dir) {
  DirListing listing;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto seq = ParseSeq(name, "wal-", ".log")) {
      listing.segments[*seq] = entry.path().string();
    } else if (const auto seq = ParseSeq(name, "snap-", ".snap")) {
      listing.snapshots[*seq] = entry.path().string();
    }
  }
  if (ec) {
    return Status::IoError(StrFormat("list %s: %s", dir.c_str(),
                                     ec.message().c_str()));
  }
  return listing;
}

}  // namespace

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") {
    return FsyncPolicy::kAlways;
  }
  if (name == "interval") {
    return FsyncPolicy::kInterval;
  }
  if (name == "never") {
    return FsyncPolicy::kNever;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown fsync policy '%s' (always|interval|never)", name.c_str()));
}

std::string EncodeCollectionDirName(const std::string& name) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '_' || c == '-') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    }
  }
  return out;
}

Result<std::string> DecodeCollectionDirName(const std::string& dir_name) {
  std::string out;
  out.reserve(dir_name.size());
  for (size_t i = 0; i < dir_name.size(); ++i) {
    if (dir_name[i] != '%') {
      out.push_back(dir_name[i]);
      continue;
    }
    if (i + 2 >= dir_name.size()) {
      return Status::InvalidArgument(
          StrFormat("bad collection dir name '%s'", dir_name.c_str()));
    }
    unsigned value = 0;
    for (int k = 1; k <= 2; ++k) {
      const char c = dir_name[i + k];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Status::InvalidArgument(
            StrFormat("bad collection dir name '%s'", dir_name.c_str()));
      }
    }
    out.push_back(static_cast<char>(value));
    i += 2;
  }
  return out;
}

std::string CollectionStore::SegmentPath(uint64_t seq) const {
  return StrFormat("%s/wal-%06llu.log", dir_.c_str(),
                   static_cast<unsigned long long>(seq));
}

std::string CollectionStore::SnapshotPath(uint64_t seq) const {
  return StrFormat("%s/snap-%06llu.snap", dir_.c_str(),
                   static_cast<unsigned long long>(seq));
}

Result<std::unique_ptr<CollectionStore>> CollectionStore::Open(
    const std::string& dir, const StoreOptions& options,
    RecoveredCollection* recovered) {
  std::error_code ec;
  const bool created = fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError(
        StrFormat("mkdir %s: %s", dir.c_str(), ec.message().c_str()));
  }
  if (created) {
    // A new collection directory must survive power loss before its WAL
    // segment (synced into it by WalWriter::Create) acknowledges anything.
    DBSCOUT_RETURN_IF_ERROR(SyncParentDir(dir));
  }
  std::unique_ptr<CollectionStore> store(new CollectionStore(dir));
  store->collection_ = options.collection;
  store->trace_ = options.trace;
  store->fsync_ = options.fsync;
  store->fsync_interval_seconds_ = options.fsync_interval_seconds;
  store->snapshot_interval_bytes_ = options.snapshot_interval_bytes;
  store->clock_ =
      options.clock ? options.clock : [] { return MonotonicSeconds(); };

  obs::Registry* registry = options.registry != nullptr
                                ? options.registry
                                : &obs::Registry::Global();
  const obs::Labels labels = {{"collection", options.collection}};
  store->wal_appends_total_ = registry->GetCounter(
      "dbscout_wal_appends_total", "WAL record frames appended", labels);
  store->wal_bytes_total_ = registry->GetCounter(
      "dbscout_wal_bytes_total", "WAL bytes appended (frames + headers)",
      labels);
  store->wal_frame_bytes_ = registry->GetHistogram(
      "dbscout_wal_frame_bytes", "Payload size of appended WAL frames",
      obs::HistogramLayout::Bytes(), labels);
  store->fsync_total_ = registry->GetCounter(
      "dbscout_wal_fsync_total", "WAL fsync calls", labels);
  store->fsync_seconds_ = registry->GetHistogram(
      "dbscout_wal_fsync_seconds", "WAL fsync latency",
      obs::HistogramLayout::Latency(), labels);
  store->compactions_total_ = registry->GetCounter(
      "dbscout_snapshot_compactions_total",
      "WAL-to-snapshot compaction cycles", labels);
  store->snapshot_bytes_ = registry->GetGauge(
      "dbscout_snapshot_bytes", "Size of the newest snapshot file", labels);

  // ---- Recovery. ----
  DBSCOUT_ASSIGN_OR_RETURN(DirListing listing, ListDir(dir));

  // Newest snapshot that validates wins; a torn or corrupt generation
  // falls back to the previous one (retention keeps the segments that
  // generation needs).
  *recovered = RecoveredCollection();
  for (auto it = listing.snapshots.rbegin(); it != listing.snapshots.rend();
       ++it) {
    auto state = ReadSnapshotFile(it->second);
    if (state.ok()) {
      recovered->base = *std::move(state);
      store->base_seq_ = it->first;
      store->snapshot_bytes_->Set(
          static_cast<int64_t>(fs::file_size(it->second, ec)));
      break;
    }
    DBSCOUT_LOG(kWarning) << "snapshot " << it->second
                          << " rejected: " << state.status().message()
                          << "; falling back";
  }

  // Contiguous segment run after the snapshot. A gap means a deleted or
  // lost segment: replaying past it would silently drop acknowledged
  // writes, so fail loudly instead.
  std::vector<std::pair<uint64_t, std::string>> replayable;
  for (const auto& [seq, path] : listing.segments) {
    if (seq > store->base_seq_) {
      replayable.emplace_back(seq, path);
    }
  }
  for (size_t i = 0; i < replayable.size(); ++i) {
    const uint64_t expect = store->base_seq_ + 1 + i;
    if (replayable[i].first != expect) {
      return Status::IoError(StrFormat(
          "%s: missing wal segment %llu (found %llu); cannot replay",
          dir.c_str(), static_cast<unsigned long long>(expect),
          static_cast<unsigned long long>(replayable[i].first)));
    }
  }

  uint64_t tail_valid_bytes = 0;
  for (size_t i = 0; i < replayable.size(); ++i) {
    const auto& [seq, path] = replayable[i];
    DBSCOUT_ASSIGN_OR_RETURN(WalScan scan, ScanWalFile(path));
    if (scan.valid_bytes >= kWalHeaderBytes && scan.seq != seq) {
      return Status::IoError(StrFormat(
          "%s: segment header seq %llu does not match filename",
          path.c_str(), static_cast<unsigned long long>(scan.seq)));
    }
    const bool last = i + 1 == replayable.size();
    if (scan.torn && !last) {
      return Status::IoError(StrFormat(
          "%s: torn tail in a sealed segment; cannot replay", path.c_str()));
    }
    for (const std::vector<uint8_t>& frame : scan.frames) {
      DBSCOUT_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(frame));
      recovered->suffix.push_back(std::move(record));
    }
    if (last) {
      tail_valid_bytes = scan.valid_bytes;
    }
  }

  // Reopen the tail segment for append (truncating any torn tail), or
  // start a fresh one.
  if (!replayable.empty()) {
    store->active_seq_ = replayable.back().first;
    const std::string& path = replayable.back().second;
    if (tail_valid_bytes < kWalHeaderBytes) {
      // Header itself was torn: the segment is empty; recreate it.
      fs::remove(path, ec);
      DBSCOUT_ASSIGN_OR_RETURN(
          WalWriter writer, WalWriter::Create(path, store->active_seq_));
      store->writer_ = std::move(writer);
    } else {
      DBSCOUT_ASSIGN_OR_RETURN(
          WalWriter writer, WalWriter::OpenForAppend(path, tail_valid_bytes));
      store->writer_ = std::move(writer);
    }
  } else {
    store->active_seq_ = store->base_seq_ + 1;
    DBSCOUT_ASSIGN_OR_RETURN(
        WalWriter writer,
        WalWriter::Create(store->SegmentPath(store->active_seq_),
                          store->active_seq_));
    store->writer_ = std::move(writer);
  }
  store->last_sync_seconds_ = store->clock_();
  return store;
}

CollectionStore::~CollectionStore() {
  const Status status = Close();
  if (!status.ok()) {
    DBSCOUT_LOG(kWarning) << "closing store " << dir_ << ": "
                          << status.message();
  }
}

Status CollectionStore::AppendLocked(const WalRecord& record) {
  if (closed_) {
    return Status::FailedPrecondition("store is closed");
  }
  const std::vector<uint8_t> payload = EncodeWalRecord(record);
  const uint64_t before = writer_->bytes();
  DBSCOUT_RETURN_IF_ERROR(writer_->Append(payload));
  dirty_since_sync_ = true;
  wal_appends_total_->Increment();
  wal_bytes_total_->Increment(writer_->bytes() - before);
  wal_frame_bytes_->Observe(static_cast<double>(payload.size()));
  return Status::OK();
}

Status CollectionStore::SyncLocked() {
  WallTimer timer;
  DBSCOUT_RETURN_IF_ERROR(writer_->Sync());
  fsync_seconds_->Observe(timer.ElapsedSeconds());
  fsync_total_->Increment();
  dirty_since_sync_ = false;
  last_sync_seconds_ = clock_();
  return Status::OK();
}

Status CollectionStore::LogRecord(const WalRecord& record) {
  MutexLock lock(mu_);
  return AppendLocked(record);
}

Status CollectionStore::LogConfigure(double ttl_seconds) {
  WalRecord record;
  record.type = WalRecordType::kConfigure;
  record.ttl_seconds = ttl_seconds;
  MutexLock lock(mu_);
  DBSCOUT_RETURN_IF_ERROR(AppendLocked(record));
  return SyncLocked();
}

Status CollectionStore::Commit(uint64_t trace_id) {
  WallTimer timer;
  Status status = [&]() -> Status {
    MutexLock lock(mu_);
    if (closed_) {
      return Status::FailedPrecondition("store is closed");
    }
    if (dirty_since_sync_) {
      switch (fsync_) {
        case FsyncPolicy::kAlways:
          DBSCOUT_RETURN_IF_ERROR(SyncLocked());
          break;
        case FsyncPolicy::kInterval:
          if (clock_() - last_sync_seconds_ >= fsync_interval_seconds_) {
            DBSCOUT_RETURN_IF_ERROR(SyncLocked());
          }
          break;
        case FsyncPolicy::kNever:
          break;
      }
    }
    if (snapshot_interval_bytes_ > 0 &&
        writer_->bytes() > snapshot_interval_bytes_) {
      return CompactLocked();
    }
    return Status::OK();
  }();
  // The span is emitted outside mu_ so a TRACE dump never serializes
  // behind an in-flight fsync.
  if (trace_ != nullptr) {
    trace_->AddTracedSpan("wal_commit", "storage", trace_id, collection_,
                          timer.ElapsedSeconds());
  }
  return status;
}

Status CollectionStore::CompactNow() {
  MutexLock lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition("store is closed");
  }
  return CompactLocked();
}

Status CollectionStore::CompactLocked() {
  // 1. Seal the active segment (final sync + close).
  const uint64_t sealed = active_seq_;
  DBSCOUT_RETURN_IF_ERROR(writer_->Close());

  // 2. Open the next active segment BEFORE writing the snapshot: if the
  // snapshot write crashes, recovery still finds snapshot base_seq_ plus
  // a contiguous segment run.
  DBSCOUT_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Create(SegmentPath(sealed + 1), sealed + 1));
  writer_ = std::move(writer);
  active_seq_ = sealed + 1;
  dirty_since_sync_ = false;

  // 3. File-level merge: previous snapshot + sealed segments -> state.
  CollectionState state;
  if (base_seq_ > 0) {
    DBSCOUT_ASSIGN_OR_RETURN(state, ReadSnapshotFile(SnapshotPath(base_seq_)));
  }
  for (uint64_t seq = base_seq_ + 1; seq <= sealed; ++seq) {
    DBSCOUT_ASSIGN_OR_RETURN(WalScan scan, ScanWalFile(SegmentPath(seq)));
    if (scan.torn) {
      return Status::IoError(StrFormat(
          "%s: torn tail in a sealed segment during compaction",
          SegmentPath(seq).c_str()));
    }
    for (const std::vector<uint8_t>& frame : scan.frames) {
      DBSCOUT_ASSIGN_OR_RETURN(const WalRecord record,
                               DecodeWalRecord(frame));
      DBSCOUT_RETURN_IF_ERROR(ApplyRecordToState(record, &state));
    }
  }
  DBSCOUT_RETURN_IF_ERROR(WriteSnapshotFile(SnapshotPath(sealed), state));
  compactions_total_->Increment();
  std::error_code ec;
  snapshot_bytes_->Set(
      static_cast<int64_t>(fs::file_size(SnapshotPath(sealed), ec)));

  // 4. Retention: keep this generation and the previous one (fallback),
  // drop everything the previous generation no longer needs.
  const uint64_t prev = base_seq_;
  base_seq_ = sealed;
  DBSCOUT_ASSIGN_OR_RETURN(const DirListing listing, ListDir(dir_));
  for (const auto& [seq, path] : listing.snapshots) {
    if (seq < prev || (prev == 0 && seq < sealed)) {
      fs::remove(path, ec);
    }
  }
  for (const auto& [seq, path] : listing.segments) {
    if (seq <= prev) {
      fs::remove(path, ec);
    }
  }
  return Status::OK();
}

Status CollectionStore::Close() {
  MutexLock lock(mu_);
  if (closed_) {
    return Status::OK();
  }
  closed_ = true;
  if (!writer_.has_value()) {
    // Open failed before the WAL writer was engaged; the partially
    // constructed store has nothing to flush.
    return Status::OK();
  }
  return writer_->Close();
}

uint64_t CollectionStore::active_wal_bytes() {
  MutexLock lock(mu_);
  return writer_->bytes();
}

}  // namespace dbscout::storage

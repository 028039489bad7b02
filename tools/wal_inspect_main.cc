// Offline WAL / snapshot inspector: prints what a collection directory
// (or a single wal-*.log / snap-*.snap file) holds, record by record,
// without touching the files. The exit status distinguishes clean logs
// from torn tails from hard corruption, so scripts can assert on it:
//
//   0  everything scanned decoded cleanly (a torn tail is reported but
//      still exit 0 with --allow-torn, the default; use --strict to make
//      a torn tail exit 3)
//   1  usage / io error
//   2  hard corruption: a complete frame with a bad CRC, a bad magic, or
//      an undecodable record (recovery would refuse this file)
//   3  torn tail under --strict
//
// usage: wal_inspect [--strict] [--quiet] PATH...
//   PATH is a collection directory, a wal segment, or a snapshot file.

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "storage/snapshot.h"
#include "storage/store.h"
#include "storage/wal.h"

namespace {

using dbscout::storage::CollectionState;
using dbscout::storage::DecodeWalRecord;
using dbscout::storage::kSnapshotVersion;
using dbscout::storage::ReadSnapshotFile;
using dbscout::storage::ScanWalFile;
using dbscout::storage::WalRecord;
using dbscout::storage::WalRecordType;
using dbscout::storage::WalScan;

struct Flags {
  bool strict = false;
  bool quiet = false;
};

const char* RecordName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCreate:
      return "CREATE";
    case WalRecordType::kIngest:
      return "INGEST";
    case WalRecordType::kExpire:
      return "EXPIRE";
    case WalRecordType::kConfigure:
      return "CONFIGURE";
  }
  return "?";
}

void PrintRecord(const WalRecord& record, size_t index, const Flags& flags) {
  if (flags.quiet) {
    return;
  }
  std::cout << "  [" << index << "] " << RecordName(record.type);
  switch (record.type) {
    case WalRecordType::kCreate:
      std::cout << " dims=" << record.dims << " ttl=" << record.ttl_seconds;
      break;
    case WalRecordType::kIngest:
      std::cout << " base_epoch=" << record.base_epoch << " points="
                << (record.dims == 0 ? 0
                                     : record.coords.size() / record.dims)
                << " dims=" << record.dims;
      break;
    case WalRecordType::kExpire:
      std::cout << " [" << record.expire_begin << ", " << record.expire_end
                << ")";
      break;
    case WalRecordType::kConfigure:
      std::cout << " ttl=" << record.ttl_seconds;
      break;
  }
  std::cout << "\n";
}

// Returns the worst exit code seen for one wal segment.
int InspectWal(const std::string& path, const Flags& flags) {
  auto scan = ScanWalFile(path);
  if (!scan.ok()) {
    std::cout << path << ": CORRUPT: " << scan.status().message() << "\n";
    return 2;
  }
  std::cout << path << ": seq=" << scan->seq << " frames="
            << scan->frames.size() << " valid_bytes=" << scan->valid_bytes
            << (scan->torn ? " TORN-TAIL" : "") << "\n";
  size_t index = 0;
  for (const std::vector<uint8_t>& frame : scan->frames) {
    auto record = DecodeWalRecord(
        std::span<const uint8_t>(frame.data(), frame.size()));
    if (!record.ok()) {
      std::cout << "  [" << index << "] UNDECODABLE: "
                << record.status().message() << "\n";
      return 2;
    }
    PrintRecord(*record, index, flags);
    ++index;
  }
  return scan->torn && flags.strict ? 3 : 0;
}

int InspectSnapshot(const std::string& path, const Flags& flags) {
  auto state = ReadSnapshotFile(path);
  if (!state.ok()) {
    std::cout << path << ": CORRUPT: " << state.status().message() << "\n";
    return 2;
  }
  std::cout << path << ": version=" << kSnapshotVersion
            << " dims=" << state->dims
            << " epoch=" << state->epoch
            << " window_begin=" << state->window_begin
            << " rows=[" << state->window_begin << ", " << state->epoch
            << ") ttl=" << state->ttl_seconds << " live="
            << (state->epoch - state->window_begin) << "\n";
  (void)flags;
  return 0;
}

int InspectPath(const std::string& path, const Flags& flags) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> children;
    for (const fs::directory_entry& entry : fs::directory_iterator(path, ec)) {
      children.push_back(entry.path().string());
    }
    if (ec) {
      std::cerr << "wal_inspect: scan " << path << ": " << ec.message()
                << "\n";
      return 1;
    }
    std::sort(children.begin(), children.end());
    int worst = 0;
    for (const std::string& child : children) {
      worst = std::max(worst, InspectPath(child, flags));
    }
    return worst;
  }
  const std::string name = fs::path(path).filename().string();
  if (name.rfind("wal-", 0) == 0) {
    return InspectWal(path, flags);
  }
  if (name.rfind("snap-", 0) == 0) {
    return InspectSnapshot(path, flags);
  }
  std::cerr << "wal_inspect: skipping unrecognized file " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      flags.strict = true;
    } else if (arg == "--quiet") {
      flags.quiet = true;
    } else if (arg == "--allow-torn") {
      flags.strict = false;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "usage: wal_inspect [--strict] [--quiet] PATH...\n";
      return 1;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: wal_inspect [--strict] [--quiet] PATH...\n";
    return 1;
  }
  int worst = 0;
  for (const std::string& path : paths) {
    worst = std::max(worst, InspectPath(path, flags));
  }
  return worst;
}

#include "data/point_stream.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/str_util.h"

namespace dbscout {

Result<PointFileReader> PointFileReader::Open(const std::string& path) {
  PointFileReader reader;
  reader.path_ = path;
  reader.file_.reset(std::fopen(path.c_str(), "rb"));
  if (reader.file_ == nullptr) {
    return Status::IoError("cannot open file: " + path);
  }
  char magic[4];
  uint32_t version = 0;
  uint32_t dims = 0;
  uint64_t count = 0;
  std::FILE* f = reader.file_.get();
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kDbscMagic, 4) != 0) {
    return Status::InvalidArgument(path + ": not a DBSC binary point file");
  }
  if (std::fread(&version, sizeof(version), 1, f) != 1 ||
      version != kDbscVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: unsupported version %u", path.c_str(), version));
  }
  if (std::fread(&dims, sizeof(dims), 1, f) != 1 ||
      std::fread(&count, sizeof(count), 1, f) != 1) {
    return Status::IoError(path + ": truncated header");
  }
  if (dims == 0) {
    return Status::InvalidArgument(path + ": dims must be >= 1");
  }
  if (count > std::numeric_limits<uint64_t>::max() / dims / sizeof(double)) {
    return Status::InvalidArgument(
        StrFormat("%s: header count %llu x dims %u overflows", path.c_str(),
                  static_cast<unsigned long long>(count), dims));
  }
  struct stat st;
  if (::fstat(::fileno(f), &st) != 0) {
    return Status::IoError(path + ": fstat failed");
  }
  reader.dims_ = dims;
  reader.num_points_ = count;
  reader.file_bytes_ = static_cast<uint64_t>(st.st_size);
  reader.data_offset_ = std::ftell(f);
  if (reader.data_offset_ < 0) {
    return Status::IoError(path + ": ftell failed");
  }
  return reader;
}

Result<size_t> PointFileReader::ReadBatch(size_t max_points, PointSet* batch) {
  *batch = PointSet(dims_);
  if (max_points == 0 || position_ >= num_points_) {
    return size_t{0};
  }
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(max_points, num_points_ - position_));
  // Open bounded count * dims * 8, so neither product overflows.
  const uint64_t point_bytes = dims_ * sizeof(double);
  const uint64_t offset = data_offset_ + position_ * point_bytes;
  if (want * point_bytes > file_bytes_ - std::min(offset, file_bytes_)) {
    return Status::IoError(path_ + ": truncated data section");
  }
  std::vector<double> buffer(want * dims_);
  if (std::fread(buffer.data(), point_bytes, want, file_.get()) != want) {
    return Status::IoError(path_ + ": truncated data section");
  }
  DBSCOUT_ASSIGN_OR_RETURN(*batch,
                           PointSet::FromRowMajor(dims_, std::move(buffer)));
  position_ += want;
  return want;
}

Status PointFileReader::Rewind() {
  if (std::fseek(file_.get(), data_offset_, SEEK_SET) != 0) {
    return Status::IoError(path_ + ": seek failed");
  }
  position_ = 0;
  return Status::OK();
}

}  // namespace dbscout

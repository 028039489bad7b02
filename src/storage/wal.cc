#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/str_util.h"
#include "storage/file_io.h"

namespace dbscout::storage {
namespace {

std::vector<uint8_t> EncodeSegmentHeader(uint64_t seq) {
  std::vector<uint8_t> out;
  Put<uint32_t>(&out, kWalMagic);
  Put<uint32_t>(&out, kWalVersion);
  Put<uint64_t>(&out, seq);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Records

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  std::vector<uint8_t> out;
  Put<uint8_t>(&out, static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kCreate:
      Put<uint16_t>(&out, record.dims);
      Put<double>(&out, record.ttl_seconds);
      break;
    case WalRecordType::kIngest: {
      Put<uint16_t>(&out, record.dims);
      Put<uint64_t>(&out, record.base_epoch);
      const uint32_t count =
          record.dims == 0
              ? 0
              : static_cast<uint32_t>(record.coords.size() / record.dims);
      Put<uint32_t>(&out, count);
      PutDoubles(&out, record.coords);
      break;
    }
    case WalRecordType::kExpire:
      Put<uint64_t>(&out, record.expire_begin);
      Put<uint64_t>(&out, record.expire_end);
      break;
    case WalRecordType::kConfigure:
      Put<double>(&out, record.ttl_seconds);
      break;
  }
  return out;
}

Result<WalRecord> DecodeWalRecord(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  WalRecord record;
  DBSCOUT_ASSIGN_OR_RETURN(const uint8_t raw, reader.Read<uint8_t>());
  if (raw < static_cast<uint8_t>(WalRecordType::kCreate) ||
      raw > static_cast<uint8_t>(WalRecordType::kConfigure)) {
    return Status::InvalidArgument(
        StrFormat("unknown wal record type %u", raw));
  }
  record.type = static_cast<WalRecordType>(raw);
  switch (record.type) {
    case WalRecordType::kCreate: {
      DBSCOUT_ASSIGN_OR_RETURN(record.dims, reader.Read<uint16_t>());
      if (record.dims == 0) {
        return Status::InvalidArgument("wal create record: dims 0");
      }
      DBSCOUT_ASSIGN_OR_RETURN(record.ttl_seconds, reader.Read<double>());
      break;
    }
    case WalRecordType::kIngest: {
      DBSCOUT_ASSIGN_OR_RETURN(record.dims, reader.Read<uint16_t>());
      if (record.dims == 0) {
        return Status::InvalidArgument("wal ingest record: dims 0");
      }
      DBSCOUT_ASSIGN_OR_RETURN(record.base_epoch, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(const uint32_t count, reader.Read<uint32_t>());
      DBSCOUT_ASSIGN_OR_RETURN(
          record.coords,
          reader.ReadDoubles(static_cast<uint64_t>(count) * record.dims));
      break;
    }
    case WalRecordType::kExpire: {
      DBSCOUT_ASSIGN_OR_RETURN(record.expire_begin, reader.Read<uint64_t>());
      DBSCOUT_ASSIGN_OR_RETURN(record.expire_end, reader.Read<uint64_t>());
      if (record.expire_end < record.expire_begin) {
        return Status::InvalidArgument("wal expire record: end < begin");
      }
      break;
    }
    case WalRecordType::kConfigure: {
      DBSCOUT_ASSIGN_OR_RETURN(record.ttl_seconds, reader.Read<double>());
      break;
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("malformed wal record: trailing bytes");
  }
  return record;
}

// ---------------------------------------------------------------------------
// WalWriter

Result<WalWriter> WalWriter::Create(const std::string& path, uint64_t seq) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd < 0) {
    return Errno("create wal segment", path);
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  const std::vector<uint8_t> header = EncodeSegmentHeader(seq);
  DBSCOUT_RETURN_IF_ERROR(WriteAll(fd, header.data(), header.size(), path));
  // The segment's directory entry must be durable before its first
  // acknowledged frame: fdatasync on commit covers the data only.
  DBSCOUT_RETURN_IF_ERROR(SyncParentDir(path));
  writer.bytes_ = header.size();
  return writer;
}

Result<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                           uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Errno("open wal segment", path);
  }
  // Truncate the torn tail (if any) before appending: the next frame must
  // start at the last valid offset, not after garbage.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    const Status status = Errno("truncate wal segment", path);
    ::close(fd);
    return status;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const Status status = Errno("seek wal segment", path);
    ::close(fd);
    return status;
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.bytes_ = valid_bytes;
  return writer;
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      bytes_(other.bytes_),
      path_(std::move(other.path_)) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = std::exchange(other.fd_, -1);
    bytes_ = other.bytes_;
    path_ = std::move(other.path_);
  }
  return *this;
}

WalWriter::~WalWriter() {
  // Best-effort close; owners that care about the final sync call Close().
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status WalWriter::Append(std::span<const uint8_t> payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  if (payload.size() > kMaxWalPayload) {
    return Status::InvalidArgument(
        StrFormat("wal frame payload %zu exceeds cap %u", payload.size(),
                  kMaxWalPayload));
  }
  std::vector<uint8_t> frame;
  frame.reserve(8 + payload.size());
  Put<uint32_t>(&frame, static_cast<uint32_t>(payload.size()));
  Put<uint32_t>(&frame, Crc32c(payload));
  const size_t old_size = frame.size();
  frame.resize(old_size + payload.size());
  if (!payload.empty()) {
    std::memcpy(frame.data() + old_size, payload.data(), payload.size());
  }
  DBSCOUT_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size(), path_));
  bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  if (::fdatasync(fd_) != 0) {
    return Errno("fdatasync wal segment", path_);
  }
  return Status::OK();
}

Status WalWriter::Close() {
  if (fd_ < 0) {
    return Status::OK();
  }
  Status status = Status::OK();
  if (::fdatasync(fd_) != 0) {
    status = Errno("fdatasync wal segment", path_);
  }
  if (::close(fd_) != 0 && status.ok()) {
    status = Errno("close wal segment", path_);
  }
  fd_ = -1;
  return status;
}

// ---------------------------------------------------------------------------
// Scanning

Result<WalScan> ScanWalFile(const std::string& path) {
  DBSCOUT_ASSIGN_OR_RETURN(const std::vector<uint8_t> data,
                           ReadWholeFile(path, "wal segment"));

  WalScan scan;
  if (data.size() < kWalHeaderBytes) {
    // A header torn by a crash at creation time: an empty segment.
    scan.torn = !data.empty();
    return scan;
  }
  ByteReader header(std::span<const uint8_t>(data.data(), kWalHeaderBytes));
  DBSCOUT_ASSIGN_OR_RETURN(const uint32_t magic, header.Read<uint32_t>());
  DBSCOUT_ASSIGN_OR_RETURN(const uint32_t version, header.Read<uint32_t>());
  DBSCOUT_ASSIGN_OR_RETURN(scan.seq, header.Read<uint64_t>());
  if (magic != kWalMagic) {
    return Status::IoError(
        StrFormat("%s: not a wal segment (bad magic)", path.c_str()));
  }
  if (version != kWalVersion) {
    return Status::IoError(
        StrFormat("%s: unsupported wal version %u", path.c_str(), version));
  }

  size_t pos = kWalHeaderBytes;
  scan.valid_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      scan.torn = true;  // frame header cut short at EOF
      return scan;
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    if (len > kMaxWalPayload) {
      return Status::IoError(
          StrFormat("%s: corrupt wal frame at offset %zu: length %u "
                    "exceeds cap",
                    path.c_str(), pos, len));
    }
    if (data.size() - pos - 8 < len) {
      scan.torn = true;  // payload cut short at EOF
      return scan;
    }
    const std::span<const uint8_t> payload(data.data() + pos + 8, len);
    if (Crc32c(payload) != crc) {
      return Status::IoError(
          StrFormat("%s: corrupt wal frame at offset %zu: crc mismatch",
                    path.c_str(), pos));
    }
    scan.frames.emplace_back(payload.begin(), payload.end());
    pos += 8 + len;
    scan.valid_bytes = pos;
  }
  return scan;
}

}  // namespace dbscout::storage

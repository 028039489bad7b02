#include "storage/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/str_util.h"
#include "storage/file_io.h"

namespace dbscout::storage {

Status ApplyRecordToState(const WalRecord& record, CollectionState* state) {
  switch (record.type) {
    case WalRecordType::kCreate:
      if (state->epoch != 0) {
        return Status::IoError("wal create record after ingests");
      }
      state->dims = record.dims;
      state->ttl_seconds = record.ttl_seconds;
      return Status::OK();
    case WalRecordType::kIngest: {
      if (state->dims == 0) {
        state->dims = record.dims;
      }
      if (record.dims != state->dims) {
        return Status::IoError(
            StrFormat("wal ingest record dims %u != collection dims %u",
                      record.dims, state->dims));
      }
      if (record.base_epoch != state->epoch) {
        return Status::IoError(StrFormat(
            "wal ingest record at epoch %llu but collection is at %llu "
            "(lost or reordered records)",
            static_cast<unsigned long long>(record.base_epoch),
            static_cast<unsigned long long>(state->epoch)));
      }
      state->coords.insert(state->coords.end(), record.coords.begin(),
                           record.coords.end());
      state->epoch += record.coords.size() / state->dims;
      return Status::OK();
    }
    case WalRecordType::kExpire: {
      // Prefix-only expiry: the window never rewinds, and ranges arrive
      // in order, so `end` monotonically advances window_begin and the
      // expired rows are the front of `coords`.
      if (record.expire_end > state->epoch) {
        return Status::IoError("wal expire record past the epoch");
      }
      if (record.expire_begin != state->window_begin ||
          record.expire_end < record.expire_begin) {
        return Status::IoError("wal expire record does not extend the "
                               "expired prefix");
      }
      const uint64_t dropped =
          (record.expire_end - record.expire_begin) * state->dims;
      if (dropped > state->coords.size()) {
        return Status::IoError("wal expire record drops rows it lacks");
      }
      state->coords.erase(state->coords.begin(),
                          state->coords.begin() +
                              static_cast<std::ptrdiff_t>(dropped));
      state->window_begin = record.expire_end;
      return Status::OK();
    }
    case WalRecordType::kConfigure:
      state->ttl_seconds = record.ttl_seconds;
      return Status::OK();
  }
  return Status::IoError("unknown wal record type");
}

Status WriteSnapshotFile(const std::string& path,
                         const CollectionState& state) {
  std::vector<uint8_t> payload;
  Put<uint16_t>(&payload, state.dims);
  Put<uint64_t>(&payload, state.epoch);
  Put<uint64_t>(&payload, state.window_begin);
  Put<double>(&payload, state.ttl_seconds);
  Put<uint64_t>(&payload, static_cast<uint64_t>(state.coords.size()));
  PutDoubles(&payload, state.coords);

  std::vector<uint8_t> file;
  file.reserve(payload.size() + 20);
  Put<uint32_t>(&file, kSnapshotMagic);
  Put<uint32_t>(&file, kSnapshotVersion);
  Put<uint64_t>(&file, static_cast<uint64_t>(payload.size()));
  const size_t old_size = file.size();
  file.resize(old_size + payload.size());
  if (!payload.empty()) {
    std::memcpy(file.data() + old_size, payload.data(), payload.size());
  }
  Put<uint32_t>(&file, Crc32c(payload));

  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Errno("create snapshot", tmp);
  }
  Status status = WriteAll(fd, file.data(), file.size(), tmp);
  if (status.ok() && ::fdatasync(fd) != 0) {
    status = Errno("fdatasync snapshot", tmp);
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Errno("close snapshot", tmp);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Errno("rename snapshot", path);
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncParentDir(path);
}

Result<CollectionState> ReadSnapshotFile(const std::string& path) {
  DBSCOUT_ASSIGN_OR_RETURN(const std::vector<uint8_t> data,
                           ReadWholeFile(path, "snapshot"));

  ByteReader outer(data);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_len = 0;
  {
    auto m = outer.Read<uint32_t>();
    auto v = outer.Read<uint32_t>();
    auto l = outer.Read<uint64_t>();
    if (!m.ok() || !v.ok() || !l.ok()) {
      return Status::IoError(
          StrFormat("%s: truncated snapshot header", path.c_str()));
    }
    magic = *m;
    version = *v;
    payload_len = *l;
  }
  if (magic != kSnapshotMagic) {
    return Status::IoError(
        StrFormat("%s: not a snapshot (bad magic)", path.c_str()));
  }
  if (version != kSnapshotVersion) {
    return Status::IoError(StrFormat("%s: unsupported snapshot version %u",
                                     path.c_str(), version));
  }
  if (data.size() < 16 || data.size() - 16 < payload_len + 4) {
    return Status::IoError(
        StrFormat("%s: truncated snapshot", path.c_str()));
  }
  const std::span<const uint8_t> payload(data.data() + 16, payload_len);
  uint32_t crc = 0;
  std::memcpy(&crc, data.data() + 16 + payload_len, 4);
  if (Crc32c(payload) != crc) {
    return Status::IoError(
        StrFormat("%s: snapshot crc mismatch", path.c_str()));
  }
  if (data.size() - 16 != payload_len + 4) {
    return Status::IoError(
        StrFormat("%s: trailing bytes after snapshot", path.c_str()));
  }

  ByteReader reader(payload);
  CollectionState state;
  DBSCOUT_ASSIGN_OR_RETURN(state.dims, reader.Read<uint16_t>());
  DBSCOUT_ASSIGN_OR_RETURN(state.epoch, reader.Read<uint64_t>());
  DBSCOUT_ASSIGN_OR_RETURN(state.window_begin, reader.Read<uint64_t>());
  DBSCOUT_ASSIGN_OR_RETURN(state.ttl_seconds, reader.Read<double>());
  DBSCOUT_ASSIGN_OR_RETURN(const uint64_t ncoords, reader.Read<uint64_t>());
  DBSCOUT_ASSIGN_OR_RETURN(state.coords, reader.ReadDoubles(ncoords));
  if (!reader.AtEnd()) {
    return Status::IoError(
        StrFormat("%s: trailing bytes in snapshot payload", path.c_str()));
  }
  if (state.dims == 0 && (state.epoch != 0 || !state.coords.empty())) {
    return Status::IoError(
        StrFormat("%s: snapshot has points but dims 0", path.c_str()));
  }
  if (state.window_begin > state.epoch) {
    return Status::IoError(
        StrFormat("%s: snapshot window past epoch", path.c_str()));
  }
  // The coordinate block must hold exactly the window's rows. The product
  // is checked without overflow (ReadDoubles already bounded the block by
  // the file size).
  const uint64_t rows = state.epoch - state.window_begin;
  if (state.dims != 0 &&
      (rows > state.coords.size() / state.dims ||
       rows * state.dims != state.coords.size())) {
    return Status::IoError(
        StrFormat("%s: snapshot coords do not match its rows", path.c_str()));
  }
  return state;
}

}  // namespace dbscout::storage

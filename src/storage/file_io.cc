#include "storage/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/str_util.h"

namespace dbscout::storage {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(
      StrFormat("%s %s: %s", what.c_str(), path.c_str(), std::strerror(errno)));
}

Status WriteAll(int fd, const uint8_t* data, size_t len,
                const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("write", path);
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path,
                                           const char* what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Errno(std::string("open ") + what, path);
  }
  std::vector<uint8_t> data;
  uint8_t buf[1u << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status status = Errno(std::string("read ") + what, path);
      ::close(fd);
      return status;
    }
    if (n == 0) {
      break;
    }
    data.insert(data.end(), buf, buf + n);
  }
  ::close(fd);
  return data;
}

Status SyncParentDir(const std::string& path) {
  std::filesystem::path entry(path);
  if (!entry.has_filename()) {
    entry = entry.parent_path();  // "a/b/" names the directory "a/b"
  }
  const std::string dir = entry.parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Errno("open dir", dir);
  }
  Status status = Status::OK();
  if (::fsync(fd) != 0) {
    status = Errno("fsync dir", dir);
  }
  ::close(fd);
  return status;
}

}  // namespace dbscout::storage

#ifndef DBSCOUT_STORAGE_FILE_IO_H_
#define DBSCOUT_STORAGE_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dbscout::storage {

/// IoError "`what` `path`: strerror(errno)".
Status Errno(const std::string& what, const std::string& path);

/// Full write() loop: short writes only split frames on signals/ENOSPC,
/// and a partial frame at EOF is exactly the torn tail the WAL scanner
/// truncates, so retrying the remainder is always safe.
Status WriteAll(int fd, const uint8_t* data, size_t len,
                const std::string& path);

/// Reads the whole file; `what` names it in errors ("wal segment").
Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path,
                                           const char* what);

/// fsyncs the directory containing `path`, making a create or rename of
/// `path` durable. Every new file or directory of the store goes through
/// this (DESIGN §15.1).
Status SyncParentDir(const std::string& path);

}  // namespace dbscout::storage

#endif  // DBSCOUT_STORAGE_FILE_IO_H_

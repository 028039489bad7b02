#ifndef DBSCOUT_DATA_POINT_STREAM_H_
#define DBSCOUT_DATA_POINT_STREAM_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/result.h"
#include "data/point_set.h"

namespace dbscout {

/// The DBSC binary point format:
///   magic "DBSC" | uint32 version | uint32 dims | uint64 count |
///   count*dims little-endian float64, row-major.
/// SavePointsBinary (data/io.h) writes it; PointFileReader::Open is the
/// one place that parses the header.
inline constexpr char kDbscMagic[4] = {'D', 'B', 'S', 'C'};
inline constexpr uint32_t kDbscVersion = 1;

/// Streaming reader for DBSC files: reads the header eagerly, then
/// delivers points in bounded batches so callers can process files far
/// larger than memory. The substrate of the out-of-core detector
/// (src/external); LoadPointsBinary is one batch of the whole file.
class PointFileReader {
 public:
  /// Opens `path` and validates the header. Rejects a header whose
  /// count * dims * 8 bytes overflows 64 bits.
  static Result<PointFileReader> Open(const std::string& path);

  PointFileReader(PointFileReader&&) noexcept = default;
  PointFileReader& operator=(PointFileReader&&) noexcept = default;

  size_t dims() const { return dims_; }
  uint64_t num_points() const { return num_points_; }
  /// Index of the next point ReadBatch will deliver.
  uint64_t position() const { return position_; }

  /// Reads up to `max_points` points into `*batch` (replacing its previous
  /// contents; the batch keeps this file's dims). Returns the number of
  /// points read — 0 at end of file. Fails with IoError on a truncated
  /// data section, before allocating more than the bytes left in the file.
  Result<size_t> ReadBatch(size_t max_points, PointSet* batch);

  /// Rewinds to the first point (for multi-pass algorithms).
  Status Rewind();

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) {
        std::fclose(f);
      }
    }
  };

  PointFileReader() = default;

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  size_t dims_ = 0;
  uint64_t num_points_ = 0;
  uint64_t position_ = 0;
  uint64_t file_bytes_ = 0;
  long data_offset_ = 0;  // NOLINT(runtime/int) — ftell/fseek interface
};

}  // namespace dbscout

#endif  // DBSCOUT_DATA_POINT_STREAM_H_

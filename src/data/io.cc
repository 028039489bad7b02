#include "data/io.h"

#include <cstdio>
#include <memory>

#include "data/point_stream.h"

namespace dbscout {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

Result<PointSet> LoadPointsCsv(const std::string& path,
                               const CsvOptions& options) {
  DBSCOUT_ASSIGN_OR_RETURN(NumericCsv csv, ReadNumericCsv(path, options));
  if (csv.rows == 0) {
    return Status::InvalidArgument(path + ": no data rows");
  }
  return PointSet::FromRowMajor(csv.cols, std::move(csv.values));
}

Status SavePointsCsv(const std::string& path, const PointSet& points) {
  return WriteNumericCsv(path, points.values().data(), points.size(),
                         points.dims());
}

Status SavePointsBinary(const std::string& path, const PointSet& points) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot create file: " + path);
  }
  const uint32_t dims = static_cast<uint32_t>(points.dims());
  const uint64_t count = points.size();
  if (std::fwrite(kDbscMagic, 1, 4, f.get()) != 4 ||
      std::fwrite(&kDbscVersion, sizeof(kDbscVersion), 1, f.get()) != 1 ||
      std::fwrite(&dims, sizeof(dims), 1, f.get()) != 1 ||
      std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
    return Status::IoError("header write failure: " + path);
  }
  const auto& values = points.values();
  if (!values.empty() &&
      std::fwrite(values.data(), sizeof(double), values.size(), f.get()) !=
          values.size()) {
    return Status::IoError("data write failure: " + path);
  }
  return Status::OK();
}

Result<PointSet> LoadPointsBinary(const std::string& path) {
  DBSCOUT_ASSIGN_OR_RETURN(PointFileReader reader,
                           PointFileReader::Open(path));
  PointSet points(reader.dims());
  DBSCOUT_RETURN_IF_ERROR(
      reader.ReadBatch(reader.num_points(), &points).status());
  return points;
}

Result<PointFormat> PointFileFormat(const std::string& path,
                                    const std::string& format) {
  if (format == "csv") {
    return PointFormat::kCsv;
  }
  if (format == "binary") {
    return PointFormat::kDbsc;
  }
  if (!format.empty()) {
    return Status::InvalidArgument("unknown --format=" + format +
                                   " (csv|binary)");
  }
  return path.ends_with(".csv") ? PointFormat::kCsv : PointFormat::kDbsc;
}

Result<PointSet> LoadPointFile(const std::string& path, PointFormat format) {
  return format == PointFormat::kCsv ? LoadPointsCsv(path)
                                     : LoadPointsBinary(path);
}

Status SavePointFile(const std::string& path, const PointSet& points,
                     PointFormat format) {
  return format == PointFormat::kCsv ? SavePointsCsv(path, points)
                                     : SavePointsBinary(path, points);
}

}  // namespace dbscout

#ifndef DBSCOUT_DATA_IO_H_
#define DBSCOUT_DATA_IO_H_

#include <string>

#include "common/csv.h"
#include "common/result.h"
#include "data/point_set.h"

namespace dbscout {

/// Loads a PointSet from a numeric CSV file; every row is one point, every
/// column one dimension.
Result<PointSet> LoadPointsCsv(const std::string& path,
                               const CsvOptions& options = {});

/// Writes a PointSet as CSV (lossless round-trip).
Status SavePointsCsv(const std::string& path, const PointSet& points);

/// Loads a whole DBSC binary point file (format in data/point_stream.h)
/// as one PointFileReader batch.
Result<PointSet> LoadPointsBinary(const std::string& path);

/// Writes a PointSet in the DBSC binary format. Roughly 3x smaller and 10x
/// faster than CSV for large experiment datasets.
Status SavePointsBinary(const std::string& path, const PointSet& points);

enum class PointFormat { kCsv, kDbsc };

/// The one format rule for a point file named on a command line: a
/// non-empty `format` ("csv" or "binary") decides; otherwise a path ending
/// in ".csv" is CSV and any other path is DBSC. Any other `format` is
/// InvalidArgument.
Result<PointFormat> PointFileFormat(const std::string& path,
                                    const std::string& format);

/// Loads or saves a point file in `format`.
Result<PointSet> LoadPointFile(const std::string& path, PointFormat format);
Status SavePointFile(const std::string& path, const PointSet& points,
                     PointFormat format);

}  // namespace dbscout

#endif  // DBSCOUT_DATA_IO_H_

#ifndef DBSCOUT_DATA_POINT_SET_H_
#define DBSCOUT_DATA_POINT_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/result.h"

namespace dbscout {

/// Maximum dimensionality supported by the grid machinery. The paper targets
/// low-dimensional data (2D/3D GPS); the neighbor-cell constant k_d and the
/// fixed-capacity cell coordinates cap out at 9 dimensions (Table I).
inline constexpr size_t kMaxDims = 9;

/// Flat, row-major storage for n points in d dimensions: point i occupies
/// values()[i*d .. i*d+d). This layout keeps per-point distance computations
/// cache-friendly and is the canonical dataset representation across the
/// library (generators produce it, algorithms consume it).
class PointSet {
 public:
  /// Creates an empty set of `dims`-dimensional points (1 <= dims <= 9 for
  /// grid-based algorithms; the container itself allows any dims >= 1).
  explicit PointSet(size_t dims = 2) : dims_(dims) {}

  PointSet(const PointSet&) = default;
  PointSet& operator=(const PointSet&) = default;
  PointSet(PointSet&&) noexcept = default;
  PointSet& operator=(PointSet&&) noexcept = default;

  /// Builds a point set from row-major data; size must be a multiple of dims.
  static Result<PointSet> FromRowMajor(size_t dims, std::vector<double> data);

  size_t dims() const { return dims_; }
  size_t size() const { return dims_ == 0 ? 0 : data_.size() / dims_; }
  bool empty() const { return data_.empty(); }

  /// Read-only view of point i's coordinates.
  std::span<const double> operator[](size_t i) const {
    return {data_.data() + i * dims_, dims_};
  }

  /// Coordinate j of point i.
  double at(size_t i, size_t j) const { return data_[i * dims_ + j]; }
  double& at(size_t i, size_t j) { return data_[i * dims_ + j]; }

  const std::vector<double>& values() const { return data_; }

  void Reserve(size_t n) { data_.reserve(n * dims_); }

  /// Appends one point; `coords` must have exactly dims() elements.
  void Add(std::span<const double> coords);
  void Add(std::initializer_list<double> coords) {
    Add(std::span<const double>(coords.begin(), coords.size()));
  }

  /// Appends all points of `other` (same dims() required).
  void Append(const PointSet& other);

  /// Squared Euclidean distance between points i and j of this set.
  double SquaredDistance(size_t i, size_t j) const {
    return SquaredDistance((*this)[i], (*this)[j]);
  }

  /// Squared Euclidean distance between two coordinate spans of equal length.
  static double SquaredDistance(std::span<const double> a,
                                std::span<const double> b) {
    double sum = 0.0;
    for (size_t k = 0; k < a.size(); ++k) {
      const double diff = a[k] - b[k];
      sum += diff * diff;
    }
    return sum;
  }

  /// Per-dimension [min, max] bounding box; undefined when empty().
  struct BoundingBox {
    std::vector<double> min;
    std::vector<double> max;
  };
  BoundingBox Bounds() const;

 private:
  size_t dims_;
  std::vector<double> data_;
};

}  // namespace dbscout

#endif  // DBSCOUT_DATA_POINT_SET_H_

#include "data/point_set.h"

#include <algorithm>
#include <cassert>

#include "common/str_util.h"

namespace dbscout {

Result<PointSet> PointSet::FromRowMajor(size_t dims,
                                        std::vector<double> data) {
  if (dims == 0) {
    return Status::InvalidArgument("dims must be >= 1");
  }
  if (data.size() % dims != 0) {
    return Status::InvalidArgument(
        StrFormat("row-major buffer of %zu doubles is not a multiple of "
                  "dims=%zu",
                  data.size(), dims));
  }
  PointSet out(dims);
  out.data_ = std::move(data);
  return out;
}

void PointSet::Add(std::span<const double> coords) {
  assert(coords.size() == dims_);
  data_.insert(data_.end(), coords.begin(), coords.end());
}

void PointSet::Append(const PointSet& other) {
  assert(other.dims_ == dims_);
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
}

PointSet::BoundingBox PointSet::Bounds() const {
  BoundingBox box;
  box.min.assign(dims_, 0.0);
  box.max.assign(dims_, 0.0);
  if (empty()) {
    return box;
  }
  for (size_t j = 0; j < dims_; ++j) {
    box.min[j] = box.max[j] = data_[j];
  }
  const size_t n = size();
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < dims_; ++j) {
      const double v = data_[i * dims_ + j];
      box.min[j] = std::min(box.min[j], v);
      box.max[j] = std::max(box.max[j], v);
    }
  }
  return box;
}

}  // namespace dbscout

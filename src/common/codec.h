#ifndef DBSCOUT_COMMON_CODEC_H_
#define DBSCOUT_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/str_util.h"

namespace dbscout {

/// Little-endian binary append/read helpers shared by every framed
/// encoding in the repo: the service wire protocol and the storage WAL
/// and snapshot files speak the same byte discipline, so a payload
/// recorded by one layer is decodable by the other's tooling. memcpy
/// keeps this alignment- and strict-aliasing-safe; on LE hosts it
/// compiles to a plain store/load.
template <typename T>
void Put(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint8_t raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  // push_back per byte rather than insert(): GCC 12 mis-fires
  // -Wstringop-overflow on single-byte range inserts.
  for (uint8_t b : raw) {
    out->push_back(b);
  }
}

// resize + memcpy rather than range insert(): same GCC 12 misfire as
// above. The pragma shields the resize itself — once these are inlined
// from a header GCC 12 also mis-models vector::resize's memset as
// writing into a zero-size region.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
inline void PutBytes(std::vector<uint8_t>* out, const std::string& s) {
  const size_t old_size = out->size();
  out->resize(old_size + s.size());
  if (!s.empty()) {
    std::memcpy(out->data() + old_size, s.data(), s.size());
  }
}

inline void PutString(std::vector<uint8_t>* out, const std::string& s) {
  Put<uint16_t>(out, static_cast<uint16_t>(s.size()));
  PutBytes(out, s);
}

inline void PutDoubles(std::vector<uint8_t>* out,
                       std::span<const double> values) {
  const size_t old_size = out->size();
  out->resize(old_size + values.size() * sizeof(double));
  if (!values.empty()) {
    std::memcpy(out->data() + old_size, values.data(),
                values.size() * sizeof(double));
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Bounds-checked sequential reader over a payload. Every Read checks
/// the remaining length before touching memory, so embedded lengths are
/// never trusted and a truncated or hostile payload yields a clean
/// InvalidArgument instead of an out-of-bounds read.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  template <typename T>
  Result<T> Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_.size() - pos_ < sizeof(T)) {
      return Truncated();
    }
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Result<std::string> ReadString(size_t max_len) {
    DBSCOUT_ASSIGN_OR_RETURN(const uint16_t len, Read<uint16_t>());
    if (len > max_len) {
      return Status::InvalidArgument(
          StrFormat("string length %u exceeds cap %zu", len, max_len));
    }
    if (data_.size() - pos_ < len) {
      return Truncated();
    }
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return out;
  }

  Result<std::string> ReadBytes(uint64_t count) {
    if (data_.size() - pos_ < count) {
      return Truncated();
    }
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                    count);
    pos_ += count;
    return out;
  }

  Result<std::vector<double>> ReadDoubles(uint64_t count) {
    if ((data_.size() - pos_) / sizeof(double) < count) {
      return Truncated();
    }
    std::vector<double> out(count);
    if (count > 0) {  // an empty vector's data() may be null
      std::memcpy(out.data(), data_.data() + pos_, count * sizeof(double));
    }
    pos_ += count * sizeof(double);
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t pos() const { return pos_; }

  Status Truncated() const {
    return Status::InvalidArgument(
        StrFormat("malformed frame: truncated at byte %zu of %zu", pos_,
                  data_.size()));
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace dbscout

#endif  // DBSCOUT_COMMON_CODEC_H_

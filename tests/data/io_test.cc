#include "data/io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace dbscout {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

PointSet SamplePoints() {
  PointSet ps(3);
  ps.Add({1.5, -2.25, 1e10});
  ps.Add({0.0, 1.0 / 3.0, -7.0});
  return ps;
}

TEST(IoTest, CsvRoundTrip) {
  const std::string path = TempPath("points.csv");
  const PointSet original = SamplePoints();
  ASSERT_TRUE(SavePointsCsv(path, original).ok());
  auto loaded = LoadPointsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dims(), 3u);
  EXPECT_EQ(loaded->values(), original.values());
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRoundTrip) {
  const std::string path = TempPath("points.dbsc");
  const PointSet original = SamplePoints();
  ASSERT_TRUE(SavePointsBinary(path, original).ok());
  auto loaded = LoadPointsBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dims(), 3u);
  EXPECT_EQ(loaded->values(), original.values());
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRoundTripEmptySet) {
  const std::string path = TempPath("empty.dbsc");
  PointSet original(2);
  ASSERT_TRUE(SavePointsBinary(path, original).ok());
  auto loaded = LoadPointsBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dims(), 2u);
  EXPECT_EQ(loaded->size(), 0u);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsWrongMagic) {
  const std::string path = TempPath("bogus.dbsc");
  std::ofstream(path) << "not a dbsc file at all";
  auto loaded = LoadPointsBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsTruncatedFile) {
  const std::string full = TempPath("full.dbsc");
  ASSERT_TRUE(SavePointsBinary(full, SamplePoints()).ok());
  std::ifstream in(full, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  const std::string truncated_path = TempPath("truncated.dbsc");
  std::ofstream(truncated_path, std::ios::binary)
      << contents.substr(0, contents.size() - 8);
  auto loaded = LoadPointsBinary(truncated_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(full.c_str());
  std::remove(truncated_path.c_str());
}

// A header whose count * dims * 8 bytes overflows 64 bits (dims 1), or
// whose count * dims wraps to 0 (dims 8), is an error: no abort on a huge
// allocation, and no 0-point success.
TEST(IoTest, BinaryRejectsOverflowingHeaderCount) {
  for (const uint32_t dims : {1u, 8u}) {
    SCOPED_TRACE(dims);
    const std::string path = TempPath("huge.dbsc");
    const uint32_t version = 1;
    const uint64_t count = uint64_t{1} << 61;
    const double value = 0.5;
    {
      std::ofstream out(path, std::ios::binary);
      out.write("DBSC", 4);
      out.write(reinterpret_cast<const char*>(&version), sizeof(version));
      out.write(reinterpret_cast<const char*>(&dims), sizeof(dims));
      out.write(reinterpret_cast<const char*>(&count), sizeof(count));
      out.write(reinterpret_cast<const char*>(&value), sizeof(value));
    }
    auto loaded = LoadPointsBinary(path);
    EXPECT_FALSE(loaded.ok());
    std::remove(path.c_str());
  }
}

TEST(IoTest, LoadCsvRejectsEmptyFile) {
  const std::string path = TempPath("empty.csv");
  std::ofstream(path) << "";
  auto loaded = LoadPointsCsv(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(IoTest, LoadCsvMissingFile) {
  auto loaded = LoadPointsCsv("/no/such/file.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dbscout

// Snapshot files and the WAL-record fold: round-trips, CRC rejection of
// every single-bit flip, truncation rejection, partial rows and other
// versions rejected, and the continuity checks ApplyRecordToState
// enforces (base-epoch gaps, non-prefix expiry).

#include "storage/snapshot.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/crc32c.h"

namespace dbscout::storage {
namespace {

std::string TestPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Coordinates of every id in [0, epoch): value 0.25 * (id * dims + k).
std::vector<double> AllRows(uint64_t epoch, uint16_t dims) {
  std::vector<double> coords;
  for (uint64_t i = 0; i < epoch * dims; ++i) {
    coords.push_back(0.25 * static_cast<double>(i));
  }
  return coords;
}

/// Three live rows [1, 4) of 3-d points; id 0 has expired.
CollectionState SampleState() {
  CollectionState state;
  state.dims = 3;
  state.epoch = 4;
  state.window_begin = 1;
  state.ttl_seconds = 7.5;
  const std::vector<double> all = AllRows(state.epoch, state.dims);
  state.coords.assign(all.begin() + state.window_begin * state.dims,
                      all.end());
  return state;
}

/// Frames `payload` as a snapshot file of `version` with a valid CRC.
void WriteRawSnapshot(const std::string& path, uint32_t version,
                      const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> file;
  Put<uint32_t>(&file, kSnapshotMagic);
  Put<uint32_t>(&file, version);
  Put<uint64_t>(&file, payload.size());
  file.insert(file.end(), payload.begin(), payload.end());
  Put<uint32_t>(&file, Crc32c(payload));
  WriteFileBytes(path, file);
}

/// A version-2 payload of `state`'s header fields with `coords` as the
/// coordinate block.
std::vector<uint8_t> Payload(const CollectionState& state,
                             const std::vector<double>& coords) {
  std::vector<uint8_t> payload;
  Put<uint16_t>(&payload, state.dims);
  Put<uint64_t>(&payload, state.epoch);
  Put<uint64_t>(&payload, state.window_begin);
  Put<double>(&payload, state.ttl_seconds);
  Put<uint64_t>(&payload, coords.size());
  PutDoubles(&payload, coords);
  return payload;
}

TEST(SnapshotFileTest, RoundTrips) {
  const std::string path = TestPath("snap_roundtrip.snap");
  const CollectionState state = SampleState();
  ASSERT_TRUE(WriteSnapshotFile(path, state).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dims, state.dims);
  EXPECT_EQ(loaded->epoch, state.epoch);
  EXPECT_EQ(loaded->window_begin, state.window_begin);
  EXPECT_DOUBLE_EQ(loaded->ttl_seconds, state.ttl_seconds);
  EXPECT_EQ(loaded->coords, state.coords);
}

TEST(SnapshotFileTest, WritesOnlyTheWindowRows) {
  const std::string path = TestPath("snap_window_only.snap");
  const CollectionState state = SampleState();
  ASSERT_TRUE(WriteSnapshotFile(path, state).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Magic, version, length; dims, epoch, window_begin, ttl, count (34
  // bytes); the 3 live rows; crc.
  EXPECT_EQ(ReadFileBytes(path).size(), 16u + 34u + 3u * 3u * 8u + 4u);
}

TEST(SnapshotFileTest, PartialRowIsRejected) {
  // CRC-valid files whose coordinate block is one double longer or
  // shorter than its rows: a stray trailing double is not a row. The raw
  // files hold every id's row, as version 1 did: a version-2 header over
  // that layout is rejected too, with or without the stray double.
  const std::string path = TestPath("snap_partial_row.snap");
  const CollectionState state = SampleState();
  for (const int delta : {+1, -1}) {
    std::vector<double> window = state.coords;
    std::vector<double> all = AllRows(state.epoch, state.dims);
    if (delta > 0) {
      window.push_back(9.0);
      all.push_back(9.0);
    } else {
      window.pop_back();
      all.pop_back();
    }
    CollectionState v2 = state;
    v2.coords = window;
    ASSERT_TRUE(WriteSnapshotFile(path, v2).ok());
    EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "v2 delta " << delta;
    WriteRawSnapshot(path, kSnapshotVersion, Payload(state, all));
    EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "all rows delta " << delta;
  }
  WriteRawSnapshot(path, kSnapshotVersion,
                   Payload(state, AllRows(state.epoch, state.dims)));
  EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "all rows";
}

TEST(SnapshotFileTest, UnknownVersionIsRejected) {
  // Version 1 (every id's row, and an optional region plan block) is no
  // longer read either. Both payloads are otherwise valid version-2 ones.
  const std::string path = TestPath("snap_unknown_version.snap");
  const CollectionState state = SampleState();
  for (const uint32_t version : {kSnapshotVersion - 1, kSnapshotVersion + 1}) {
    WriteRawSnapshot(path, version, Payload(state, state.coords));
    EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "version " << version;
  }
  WriteRawSnapshot(path, kSnapshotVersion, Payload(state, state.coords));
  EXPECT_TRUE(ReadSnapshotFile(path).ok());
}

TEST(SnapshotFileTest, EmptyStateRoundTrips) {
  const std::string path = TestPath("snap_empty.snap");
  CollectionState state;
  state.dims = 2;
  ASSERT_TRUE(WriteSnapshotFile(path, state).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_TRUE(loaded->coords.empty());
}

TEST(SnapshotFileTest, EveryBitFlipIsRejected) {
  const std::string path = TestPath("snap_bitflip.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SampleState()).ok());
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  auto clean_state = ReadSnapshotFile(path);
  ASSERT_TRUE(clean_state.ok());
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    std::vector<uint8_t> flipped = clean;
    flipped[byte] ^= 1u << (byte % 8);
    WriteFileBytes(path, flipped);
    auto loaded = ReadSnapshotFile(path);
    // A flip anywhere must either be rejected outright or (only possible
    // for flips inside the coordinate payload that somehow collide — the
    // CRC makes this impossible for single bits) reproduce the state.
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << byte << " accepted";
  }
}

TEST(SnapshotFileTest, TruncationIsRejected) {
  const std::string path = TestPath("snap_truncated.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SampleState()).ok());
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  for (size_t keep = 0; keep < clean.size(); keep += 7) {
    WriteFileBytes(path,
                   std::vector<uint8_t>(clean.begin(), clean.begin() + keep));
    EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "kept " << keep;
  }
}

TEST(SnapshotFileTest, PointsWithoutDimsAreRejected) {
  // A CRC-valid snapshot claiming points but no dims cannot be loaded;
  // recovery must not mistake it for an empty collection.
  const std::string path = TestPath("snap_zero_dims.snap");
  CollectionState state;
  state.epoch = 3;
  ASSERT_TRUE(WriteSnapshotFile(path, state).ok());
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
  state.epoch = 0;
  state.coords = {1.0, 2.0};
  ASSERT_TRUE(WriteSnapshotFile(path, state).ok());
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
}

TEST(SnapshotFileTest, MissingFileIsError) {
  EXPECT_FALSE(ReadSnapshotFile(TestPath("snap_missing.snap")).ok());
}

TEST(ApplyRecordToStateTest, FoldsALogIntoState) {
  CollectionState state;
  WalRecord create;
  create.type = WalRecordType::kCreate;
  create.dims = 2;
  create.ttl_seconds = 1.0;
  ASSERT_TRUE(ApplyRecordToState(create, &state).ok());
  EXPECT_EQ(state.dims, 2u);
  EXPECT_DOUBLE_EQ(state.ttl_seconds, 1.0);

  WalRecord ingest;
  ingest.type = WalRecordType::kIngest;
  ingest.dims = 2;
  ingest.base_epoch = 0;
  ingest.coords = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(ApplyRecordToState(ingest, &state).ok());
  EXPECT_EQ(state.epoch, 2u);
  EXPECT_EQ(state.coords.size(), 4u);

  WalRecord expire;
  expire.type = WalRecordType::kExpire;
  expire.expire_begin = 0;
  expire.expire_end = 1;
  ASSERT_TRUE(ApplyRecordToState(expire, &state).ok());
  EXPECT_EQ(state.window_begin, 1u);
  // The expired row is dropped: the state holds only the window.
  EXPECT_EQ(state.coords, (std::vector<double>{3.0, 4.0}));

  WalRecord configure;
  configure.type = WalRecordType::kConfigure;
  configure.ttl_seconds = 9.0;
  ASSERT_TRUE(ApplyRecordToState(configure, &state).ok());
  EXPECT_DOUBLE_EQ(state.ttl_seconds, 9.0);
}

TEST(ApplyRecordToStateTest, RejectsEpochGaps) {
  CollectionState state;
  WalRecord ingest;
  ingest.type = WalRecordType::kIngest;
  ingest.dims = 2;
  ingest.base_epoch = 5;  // state is at epoch 0: a lost record
  ingest.coords = {1.0, 2.0};
  EXPECT_FALSE(ApplyRecordToState(ingest, &state).ok());
}

TEST(ApplyRecordToStateTest, RejectsNonPrefixExpiry) {
  CollectionState state;
  WalRecord ingest;
  ingest.type = WalRecordType::kIngest;
  ingest.dims = 1;
  ingest.base_epoch = 0;
  ingest.coords = {1.0, 2.0, 3.0};
  ASSERT_TRUE(ApplyRecordToState(ingest, &state).ok());
  WalRecord expire;
  expire.type = WalRecordType::kExpire;
  expire.expire_begin = 1;  // window_begin is 0: not a prefix extension
  expire.expire_end = 2;
  EXPECT_FALSE(ApplyRecordToState(expire, &state).ok());
  expire.expire_begin = 0;
  expire.expire_end = 9;  // past the epoch
  EXPECT_FALSE(ApplyRecordToState(expire, &state).ok());
}

TEST(ApplyRecordToStateTest, RejectsDimsMismatch) {
  CollectionState state;
  WalRecord first;
  first.type = WalRecordType::kIngest;
  first.dims = 2;
  first.base_epoch = 0;
  first.coords = {1.0, 2.0};
  ASSERT_TRUE(ApplyRecordToState(first, &state).ok());
  WalRecord second = first;
  second.dims = 3;
  second.base_epoch = 1;
  second.coords = {1.0, 2.0, 3.0};
  EXPECT_FALSE(ApplyRecordToState(second, &state).ok());
}

}  // namespace
}  // namespace dbscout::storage

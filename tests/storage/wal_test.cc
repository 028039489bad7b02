// WAL framing and scanning: record round-trips, torn-tail truncation
// (clean prefix recovery), and an exhaustive bit-flip sweep asserting
// that no corruption is ever silently decoded — every flip either fails
// the scan or yields a strict prefix of the clean frames (a length-field
// flip can make a complete frame look like a torn tail; what it can
// never do is produce a frame that was not written).

#include "storage/wal.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"

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

WalRecord IngestRecord(uint16_t dims, uint64_t base_epoch,
                       std::vector<double> coords) {
  WalRecord record;
  record.type = WalRecordType::kIngest;
  record.dims = dims;
  record.base_epoch = base_epoch;
  record.coords = std::move(coords);
  return record;
}

// Writes a small mixed log of every record type and returns its frame
// payloads.
std::vector<std::vector<uint8_t>> WriteMixedLog(const std::string& path) {
  std::vector<std::vector<uint8_t>> payloads;
  WalRecord create;
  create.type = WalRecordType::kCreate;
  create.dims = 2;
  create.ttl_seconds = 0.5;
  payloads.push_back(EncodeWalRecord(create));
  payloads.push_back(
      EncodeWalRecord(IngestRecord(2, 0, {0.0, 0.1, 1.0, 1.1, 2.0, 2.1})));
  WalRecord expire;
  expire.type = WalRecordType::kExpire;
  expire.expire_begin = 0;
  expire.expire_end = 2;
  payloads.push_back(EncodeWalRecord(expire));
  WalRecord configure;
  configure.type = WalRecordType::kConfigure;
  configure.ttl_seconds = 2.25;
  payloads.push_back(EncodeWalRecord(configure));
  payloads.push_back(EncodeWalRecord(IngestRecord(2, 3, {5.0, 5.5})));

  auto writer = WalWriter::Create(path, 7);
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (const std::vector<uint8_t>& payload : payloads) {
    EXPECT_TRUE(writer->Append(payload).ok());
  }
  EXPECT_TRUE(writer->Close().ok());
  return payloads;
}

TEST(WalRecordTest, AllTypesRoundTrip) {
  const std::string path = TestPath("wal_roundtrip.log");
  WriteMixedLog(path);
  auto scan = ScanWalFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->seq, 7u);
  EXPECT_FALSE(scan->torn);
  ASSERT_EQ(scan->frames.size(), 5u);

  auto create = DecodeWalRecord(scan->frames[0]);
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(create->type, WalRecordType::kCreate);
  EXPECT_EQ(create->dims, 2u);
  EXPECT_DOUBLE_EQ(create->ttl_seconds, 0.5);

  auto ingest = DecodeWalRecord(scan->frames[1]);
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest->type, WalRecordType::kIngest);
  EXPECT_EQ(ingest->base_epoch, 0u);
  EXPECT_EQ(ingest->coords,
            (std::vector<double>{0.0, 0.1, 1.0, 1.1, 2.0, 2.1}));

  auto expire = DecodeWalRecord(scan->frames[2]);
  ASSERT_TRUE(expire.ok());
  EXPECT_EQ(expire->type, WalRecordType::kExpire);
  EXPECT_EQ(expire->expire_begin, 0u);
  EXPECT_EQ(expire->expire_end, 2u);

  auto configure = DecodeWalRecord(scan->frames[3]);
  ASSERT_TRUE(configure.ok());
  EXPECT_EQ(configure->type, WalRecordType::kConfigure);
  EXPECT_DOUBLE_EQ(configure->ttl_seconds, 2.25);
}

TEST(WalRecordTest, RejectsMalformedPayloads) {
  // Unknown type byte.
  EXPECT_FALSE(DecodeWalRecord(std::vector<uint8_t>{0x42}).ok());
  // Empty payload.
  EXPECT_FALSE(DecodeWalRecord(std::vector<uint8_t>{}).ok());
  // Truncated ingest header.
  auto full = EncodeWalRecord(IngestRecord(2, 5, {1.0, 2.0}));
  EXPECT_FALSE(
      DecodeWalRecord(std::span<const uint8_t>(full.data(), 4)).ok());
  // Trailing bytes.
  full.push_back(0);
  EXPECT_FALSE(DecodeWalRecord(full).ok());
  // Expire with end < begin.
  WalRecord bad;
  bad.type = WalRecordType::kExpire;
  bad.expire_begin = 9;
  bad.expire_end = 3;
  EXPECT_FALSE(DecodeWalRecord(EncodeWalRecord(bad)).ok());
  // CREATE or INGEST with dims 0: the state fold would divide by zero.
  WalRecord create;
  create.type = WalRecordType::kCreate;
  create.dims = 0;
  EXPECT_FALSE(DecodeWalRecord(EncodeWalRecord(create)).ok());
  EXPECT_FALSE(DecodeWalRecord(EncodeWalRecord(IngestRecord(0, 0, {}))).ok());
  // Type 5, the region plan older writers logged, is an unknown type now,
  // even well formed: [i64 halo][u32 stripe count 0].
  std::vector<uint8_t> plan;
  Put<uint8_t>(&plan, 5);
  Put<int64_t>(&plan, 3);
  Put<uint32_t>(&plan, 0);
  EXPECT_FALSE(DecodeWalRecord(plan).ok());
}

TEST(WalScanTest, TornTailIsTruncatedCleanly) {
  const std::string path = TestPath("wal_torn.log");
  WriteMixedLog(path);
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  auto clean_scan = ScanWalFile(path);
  ASSERT_TRUE(clean_scan.ok());
  const size_t frames = clean_scan->frames.size();

  // Cut the file at every length from just-past-header to full: the scan
  // must always succeed with a prefix of the frames, flag every cut that
  // lands mid-frame as torn, and report valid_bytes at a frame boundary.
  for (size_t cut = kWalHeaderBytes; cut <= clean.size(); ++cut) {
    WriteFileBytes(path, std::vector<uint8_t>(clean.begin(),
                                              clean.begin() + cut));
    auto scan = ScanWalFile(path);
    ASSERT_TRUE(scan.ok()) << "cut at " << cut << ": " << scan.status();
    EXPECT_LE(scan->frames.size(), frames);
    EXPECT_EQ(scan->torn, scan->valid_bytes != cut) << "cut at " << cut;
    EXPECT_LE(scan->valid_bytes, cut);
    // Every recovered frame matches the clean log's frame exactly.
    for (size_t i = 0; i < scan->frames.size(); ++i) {
      EXPECT_EQ(scan->frames[i], clean_scan->frames[i]);
    }
  }
}

TEST(WalScanTest, AppendAfterTornTailResumesAtValidOffset) {
  const std::string path = TestPath("wal_resume.log");
  WriteMixedLog(path);
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  // Tear mid-way through the last frame.
  WriteFileBytes(path, std::vector<uint8_t>(clean.begin(),
                                            clean.end() - 5));
  auto scan = ScanWalFile(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(scan->torn);
  const size_t surviving = scan->frames.size();

  auto writer = WalWriter::OpenForAppend(path, scan->valid_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const auto payload = EncodeWalRecord(IngestRecord(2, 3, {7.0, 7.5}));
  ASSERT_TRUE(writer->Append(payload).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto rescan = ScanWalFile(path);
  ASSERT_TRUE(rescan.ok()) << rescan.status();
  EXPECT_FALSE(rescan->torn);
  ASSERT_EQ(rescan->frames.size(), surviving + 1);
  EXPECT_EQ(rescan->frames.back(), payload);
}

TEST(WalScanTest, BitFlipSweepNeverDecodesCorruptFrames) {
  const std::string path = TestPath("wal_bitflip.log");
  WriteMixedLog(path);
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  auto clean_scan = ScanWalFile(path);
  ASSERT_TRUE(clean_scan.ok());

  // Flip one bit per byte position across the whole file (header and
  // every frame). Acceptable outcomes: the scan errors out, or it
  // returns frames that are all byte-identical to a prefix of the clean
  // log (e.g. a frame-length flip that turns the tail into a "torn"
  // region). A decoded frame that differs from what was written is a
  // correctness failure: recovery would load corrupt points.
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    std::vector<uint8_t> flipped = clean;
    flipped[byte] ^= 1u << (byte % 8);
    WriteFileBytes(path, flipped);
    auto scan = ScanWalFile(path);
    if (!scan.ok()) {
      continue;  // detected: recovery refuses the file
    }
    ASSERT_LE(scan->frames.size(), clean_scan->frames.size())
        << "flip at byte " << byte;
    for (size_t i = 0; i < scan->frames.size(); ++i) {
      ASSERT_EQ(scan->frames[i], clean_scan->frames[i])
          << "flip at byte " << byte << " corrupted frame " << i;
    }
    // A flip inside the scanned region must not go entirely unnoticed:
    // either some tail got dropped or the scan flagged a tear. (Flips in
    // the seq field of the header change scan->seq, which recovery
    // cross-checks against the filename.)
    if (byte >= kWalHeaderBytes) {
      EXPECT_TRUE(scan->torn ||
                  scan->frames.size() < clean_scan->frames.size())
          << "flip at byte " << byte << " was silently accepted";
    }
  }
  WriteFileBytes(path, clean);
}

TEST(WalScanTest, OversizedLengthFieldIsHardError) {
  const std::string path = TestPath("wal_overlen.log");
  WriteMixedLog(path);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Overwrite the first frame's length with something past the cap.
  const uint32_t huge = kMaxWalPayload + 1;
  std::memcpy(bytes.data() + kWalHeaderBytes, &huge, 4);
  WriteFileBytes(path, bytes);
  auto scan = ScanWalFile(path);
  EXPECT_FALSE(scan.ok());
}

TEST(WalScanTest, BadMagicIsHardError) {
  const std::string path = TestPath("wal_magic.log");
  WriteMixedLog(path);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[0] ^= 0xFF;
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(ScanWalFile(path).ok());
}

TEST(WalWriterTest, CreateRefusesExistingFile) {
  const std::string path = TestPath("wal_exclusive.log");
  auto first = WalWriter::Create(path, 1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Close().ok());
  EXPECT_FALSE(WalWriter::Create(path, 1).ok());
}

}  // namespace
}  // namespace dbscout::storage

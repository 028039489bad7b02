#ifndef DBSCOUT_STORAGE_WAL_H_
#define DBSCOUT_STORAGE_WAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dbscout::storage {

/// On-disk write-ahead log for one collection, one file per segment:
///
///   [16-byte segment header][frame][frame]...
///
/// Segment header: magic "DBWL", u32 version, u64 segment sequence number
/// (also encoded in the filename; a mismatch flags a mis-renamed file).
///
/// Each frame is the service protocol's discipline with a checksum:
///
///   [u32 payload_len][u32 crc32c(payload)][payload]
///
/// all little-endian. Appends are single write() calls on an append-only
/// fd, so a crash leaves at most one torn frame at the tail — a frame cut
/// short by EOF. Torn tails are normal recovery input (truncate to the
/// last complete frame); a COMPLETE frame whose CRC mismatches is
/// corruption and fails the scan with a clean error so replay never loads
/// corrupt points.
inline constexpr uint32_t kWalMagic = 0x4C574244;  // "DBWL" little-endian
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalHeaderBytes = 16;
/// Frame payload cap, same bound as the service protocol: any length
/// field above it (e.g. a high-bit flip) is corruption, not a frame.
inline constexpr uint32_t kMaxWalPayload = 64u << 20;

/// The mutation records the detection service logs. Replay feeds them
/// back through the normal apply pipeline in log order, which reproduces
/// the exact detector state: labels are an order-independent function of
/// the live point set, and expiry ranges are recorded (not recomputed
/// from a clock), so recovery is deterministic.
enum class WalRecordType : uint8_t {
  /// Collection created: fixes dims (and the creation-time TTL) so a
  /// collection is recoverable even before its first ingest record.
  kCreate = 1,
  /// One validated INGEST batch: `count` points appended at global ids
  /// [base_epoch, base_epoch + count). base_epoch makes gaps detectable.
  kIngest = 2,
  /// Sliding-window expiry of global ids [expire_begin, expire_end).
  kExpire = 3,
  /// CONFIGURE: the collection's TTL changed.
  kConfigure = 4,
};

/// One decoded WAL record; `type` selects the meaningful fields.
struct WalRecord {
  WalRecordType type = WalRecordType::kCreate;

  // kCreate / kIngest.
  uint16_t dims = 0;

  // kCreate / kConfigure.
  double ttl_seconds = 0.0;

  // kIngest.
  uint64_t base_epoch = 0;
  std::vector<double> coords;  // row-major, count * dims

  // kExpire.
  uint64_t expire_begin = 0;
  uint64_t expire_end = 0;
};

/// Serializes one record into a frame payload (no frame header; the
/// writer adds length + CRC).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& record);

/// Parses a frame payload. Fails with InvalidArgument on malformed bytes
/// (including a CREATE or INGEST with dims 0, which the fold could not
/// divide by); never reads out of bounds, never trusts embedded lengths.
Result<WalRecord> DecodeWalRecord(std::span<const uint8_t> payload);

/// Append-only writer over one segment file. Not thread-safe; the owner
/// (CollectionStore) serializes access under its mutex.
class WalWriter {
 public:
  /// Creates a fresh segment (fails if the file exists) and writes its
  /// header. The header is counted in bytes().
  static Result<WalWriter> Create(const std::string& path, uint64_t seq);

  /// Reopens an existing segment for append after a scan validated it;
  /// `valid_bytes` (the scan's result) truncates any torn tail first.
  static Result<WalWriter> OpenForAppend(const std::string& path,
                                         uint64_t valid_bytes);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one frame in a single write() call (so a crash tears at
  /// most the tail). Durability is separate: call Sync().
  Status Append(std::span<const uint8_t> payload);

  /// fdatasync. The group-commit point; policy lives in CollectionStore.
  Status Sync();

  /// Final sync + close. Further Appends fail. Idempotent.
  Status Close();

  uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter() = default;

  int fd_ = -1;
  uint64_t bytes_ = 0;
  std::string path_;
};

/// Result of scanning one segment file.
struct WalScan {
  uint64_t seq = 0;  // from the segment header
  std::vector<std::vector<uint8_t>> frames;
  /// Header plus all complete, CRC-valid frames. When `torn`, the bytes
  /// past this offset are an incomplete tail frame to truncate away.
  uint64_t valid_bytes = 0;
  bool torn = false;
};

/// Reads every frame of a segment. Returns OK with torn=true when the
/// file ends inside a frame (the normal post-crash state on an
/// append-only file); returns IoError when a complete frame fails its
/// CRC or a length field exceeds the cap (real corruption — the caller
/// must not replay past it).
Result<WalScan> ScanWalFile(const std::string& path);

}  // namespace dbscout::storage

#endif  // DBSCOUT_STORAGE_WAL_H_

#ifndef DBSCOUT_STORAGE_SNAPSHOT_H_
#define DBSCOUT_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/wal.h"

namespace dbscout::storage {

/// Logical state of one collection, as reconstructible from disk: the
/// compaction unit. Only the live window's coordinates are kept: `coords`
/// holds rows [window_begin, epoch), and folding a kExpire record drops
/// the rows it expires. Global ids stay dense insertion indices across
/// restart without rows for the dead prefix: recovery loads the live rows
/// at ids window_begin.. (the collection's base id), so compaction,
/// snapshot size and restart cost all scale with the window, not lifetime
/// ingest.
struct CollectionState {
  uint16_t dims = 0;
  uint64_t epoch = 0;         // points ever ingested
  uint64_t window_begin = 0;  // ids below are expired (alive mask is 0*1*)
  double ttl_seconds = 0.0;
  /// Row-major, (epoch - window_begin) * dims doubles: row k is id
  /// window_begin + k.
  std::vector<double> coords;
};

/// Folds one WAL record into the state — the shared definition of replay
/// used by compaction (file-level merge) and crash recovery
/// (DetectionService::RecoverCollection folds the WAL suffix onto the
/// snapshot base). Validates continuity: an ingest record whose
/// base_epoch is not the current epoch means a lost or reordered record
/// and fails.
Status ApplyRecordToState(const WalRecord& record, CollectionState* state);

/// Snapshot files:
///
///   [u32 magic "DBSP"][u32 version][u64 payload_len][payload][u32 crc]
///
/// The payload of version 2, the only one read or written, in codec
/// encoding: u16 dims, u64 epoch, u64 window_begin, f64 ttl, u64
/// coordinate count, then the live rows [window_begin, epoch) — the same
/// row-major double layout as the DBSC point-stream format. The trailing
/// CRC32C covers the payload; a mismatch, any other version, a short file
/// or a coordinate count that is not exactly the row count times dims
/// rejects the snapshot, so recovery falls back to the previous
/// generation.
inline constexpr uint32_t kSnapshotMagic = 0x50534244;  // "DBSP" LE
inline constexpr uint32_t kSnapshotVersion = 2;

/// Writes atomically: tmp file + fdatasync + rename + directory fsync.
/// A crash mid-write leaves the previous snapshot untouched.
Status WriteSnapshotFile(const std::string& path,
                         const CollectionState& state);

/// Reads and validates (magic, version, length, CRC, row count) a
/// snapshot into the window-only state. IoError on any mismatch — the
/// caller treats that as "this generation is unusable", not as data loss,
/// as long as an older generation + WAL suffix exists.
Result<CollectionState> ReadSnapshotFile(const std::string& path);

}  // namespace dbscout::storage

#endif  // DBSCOUT_STORAGE_SNAPSHOT_H_

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
/// compaction unit. Coordinates are kept for EVERY global id in
/// [0, epoch) — expired ids included — because detector global ids are
/// dense insertion indices that must be preserved across restart (the
/// router's id->shard table and the prefix-only alive mask both index
/// from 0). Replay re-adds all of them and then expires [0, window_begin)
/// in one pass. Compacting the dead prefix out of the id space is future
/// work (it needs an id-remap epoch in the protocol).
struct CollectionState {
  uint16_t dims = 0;
  uint64_t epoch = 0;         // points ever ingested
  uint64_t window_begin = 0;  // ids below are expired (alive mask is 0*1*)
  double ttl_seconds = 0.0;
  std::vector<double> coords;  // row-major, epoch * dims doubles
};

/// Folds one WAL record into the state — the shared definition of replay
/// used by compaction (file-level merge) and wal_inspect. Validates
/// continuity: an ingest record whose base_epoch is not the current epoch
/// means a lost or reordered record and fails.
Status ApplyRecordToState(const WalRecord& record, CollectionState* state);

/// Snapshot files:
///
///   [u32 magic "DBSP"][u32 version][u64 payload_len][payload][u32 crc]
///
/// with the payload in codec encoding (dims, epoch, window_begin, ttl, a
/// plan flag, then the coordinate block — the same row-major double
/// layout as the DBSC point-stream format). The writer sets the plan flag
/// to 0; the reader skips the plan block a legacy flag of 1 announces.
/// The trailing CRC32C covers the payload; a mismatch or short file
/// rejects the snapshot so recovery falls back to the previous generation.
inline constexpr uint32_t kSnapshotMagic = 0x50534244;  // "DBSP" LE
inline constexpr uint32_t kSnapshotVersion = 1;

/// Writes atomically: tmp file + fdatasync + rename + directory fsync.
/// A crash mid-write leaves the previous snapshot untouched.
Status WriteSnapshotFile(const std::string& path,
                         const CollectionState& state);

/// Reads and validates (magic, version, length, CRC). IoError on any
/// mismatch — the caller treats that as "this generation is unusable",
/// not as data loss, as long as an older generation + WAL suffix exists.
Result<CollectionState> ReadSnapshotFile(const std::string& path);

}  // namespace dbscout::storage

#endif  // DBSCOUT_STORAGE_SNAPSHOT_H_

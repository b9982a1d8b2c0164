// Checkpointing: an atomically-written snapshot of all table stores plus an
// opaque metadata blob (catalog + ledger state serialized by the layer
// above). After a successful checkpoint the WAL is reset; recovery loads
// the latest checkpoint and replays the WAL tail (paper §3.3.2).
//
// Durability protocol (DESIGN.md §4): ReplaceFileDurably with the previous
// checkpoint retained as `path + ".prev"`, so a crash at any point leaves
// either the new checkpoint or the previous one loadable.

#ifndef SQLLEDGER_STORAGE_CHECKPOINT_H_
#define SQLLEDGER_STORAGE_CHECKPOINT_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/table_store.h"
#include "util/result.h"
#include "util/slice.h"

namespace sqlledger {

/// Everything a checkpoint holds.
struct CheckpointData {
  std::vector<uint8_t> meta;  // opaque blob owned by the caller's layer
  std::vector<std::unique_ptr<TableStore>> tables;
};

/// WriteCheckpoint encodes the payload into chunks of this many bytes (the
/// last one shorter) rather than one growing buffer; the file bytes are the
/// same either way. In a file, chunk k ends at header size + (k+1) times
/// this.
constexpr size_t kCheckpointChunkBytes = size_t{1} << 20;

/// Serializes `meta` and `tables` to `path` via ReplaceFileDurably, keeping
/// the replaced checkpoint as `path + ".prev"`. The payload is CRC-protected.
/// `env` = nullptr uses Env::Default().
Status WriteCheckpoint(const std::string& path, Slice meta,
                       const std::vector<const TableStore*>& tables,
                       Env* env = nullptr);

/// Loads a checkpoint. NotFound if the file does not exist; NotSupported
/// for a file of a retired format (SLCKPT01, SLCKPT02); Corruption on CRC
/// or format errors. `env` = nullptr uses Env::Default().
Result<CheckpointData> ReadCheckpoint(const std::string& path,
                                      Env* env = nullptr);

}  // namespace sqlledger

#endif  // SQLLEDGER_STORAGE_CHECKPOINT_H_

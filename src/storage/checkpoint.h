// Checkpointing: an atomically-written snapshot of every table store's rows
// plus an opaque metadata blob (the catalog, with each store's definition,
// and ledger state, serialized by the layer above). After a successful
// checkpoint the WAL is reset; recovery loads the latest checkpoint and
// replays the WAL tail (paper §3.3.2).
//
// Durability protocol (DESIGN.md §4): ReplaceFileDurably with the previous
// checkpoint retained as `path + ".prev"`, so a crash at any point leaves
// either the new checkpoint or the previous one loadable.

#ifndef SQLLEDGER_STORAGE_CHECKPOINT_H_
#define SQLLEDGER_STORAGE_CHECKPOINT_H_

#include <map>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/table_store.h"
#include "util/result.h"
#include "util/slice.h"

namespace sqlledger {

/// A checkpoint whose payload matched its CRC: the caller's meta blob, then
/// one section per store, for LoadCheckpointStores.
struct CheckpointData {
  std::vector<uint8_t> meta;     // opaque blob owned by the caller's layer
  std::vector<uint8_t> payload;  // the whole payload, meta included
  size_t stores_offset = 0;      // where in `payload` the sections start
};

/// WriteCheckpoint encodes the payload into chunks of this many bytes (the
/// last one shorter) rather than one growing buffer; the file bytes are the
/// same either way. In a file, chunk k ends at header size + (k+1) times
/// this.
constexpr size_t kCheckpointChunkBytes = size_t{1} << 20;

/// Serializes `meta` and the rows of `tables` (not their definitions) to
/// `path` via ReplaceFileDurably, keeping the replaced checkpoint as
/// `path + ".prev"`. The payload is CRC-protected. `env` = nullptr uses
/// Env::Default().
Status WriteCheckpoint(const std::string& path, Slice meta,
                       const std::vector<const TableStore*>& tables,
                       Env* env = nullptr);

/// Reads a checkpoint and checks its CRC; decodes nothing past the meta
/// blob. NotFound if the file does not exist; NotSupported for a file of a
/// retired format (SLCKPT01-06); Corruption on CRC or format errors.
/// `env` = nullptr uses Env::Default().
Result<CheckpointData> ReadCheckpoint(const std::string& path,
                                      Env* env = nullptr);

/// Inserts each section's rows, in file order, into the store of its id in
/// `stores`. Corruption for an id `stores` lacks, a row that does not
/// decode or does not insert (a duplicate key, a row the store's schema
/// refuses), or trailing bytes.
Status LoadCheckpointStores(const CheckpointData& checkpoint,
                            const std::map<uint32_t, TableStore*>& stores);

}  // namespace sqlledger

#endif  // SQLLEDGER_STORAGE_CHECKPOINT_H_

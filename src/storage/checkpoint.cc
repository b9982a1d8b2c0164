#include "storage/checkpoint.h"

#include <cstring>

#include "catalog/row.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
// 02: compact cells (tag byte, zigzag varint integers). No reader for the
// fixed-width 01 cells is kept; a 01 file is refused as NotSupported.
constexpr char kMagic[] = "SLCKPT02";
constexpr char kMagicV1[] = "SLCKPT01";
constexpr size_t kMagicLen = 8;
}  // namespace

Status WriteCheckpoint(const std::string& path, Slice meta,
                       const std::vector<const TableStore*>& tables,
                       Env* env) {
  if (env == nullptr) env = Env::Default();
  std::vector<uint8_t> payload;
  PutLengthPrefixed(&payload, meta);
  PutVarint32(&payload, static_cast<uint32_t>(tables.size()));
  for (const TableStore* table : tables) {
    PutVarint32(&payload, table->table_id());
    PutLengthPrefixed(&payload, Slice(table->name()));
    EncodeSchema(table->schema(), &payload);
    EncodeIndexDefs(table->IndexDefs(), &payload);
    PutVarint64(&payload, table->row_count());
    for (BTree::Iterator it = table->Scan(); it.Valid(); it.Next()) {
      EncodeRow(it.value(), &payload);
    }
  }

  std::vector<uint8_t> header;
  header.insert(header.end(), kMagic, kMagic + kMagicLen);
  PutFixed64(&header, payload.size());
  PutFixed32(&header, Crc32c(Slice(payload)));

  // Two appends: joining header and payload would copy the whole payload.
  // Recovery falls back to the `.prev` generation (plus the rotated WAL) if
  // the new checkpoint is ever found torn or corrupt.
  Status st = ReplaceFileDurably(env, path, {Slice(header), Slice(payload)},
                                 /*keep_previous=*/true);
  if (!st.ok())
    return Status::IOError("checkpoint write failed: " + st.message());
  return Status::OK();
}

Result<CheckpointData> ReadCheckpoint(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto file = env->NewSequentialFile(path);
  if (!file.ok()) {
    if (file.status().IsNotFound())
      return Status::NotFound("no checkpoint at " + path);
    return file.status();
  }

  uint8_t header[kMagicLen + 12];
  auto header_n = (*file)->Read(sizeof(header), header);
  if (!header_n.ok()) return header_n.status();
  if (*header_n != sizeof(header))
    return Status::Corruption("checkpoint header truncated");
  if (std::memcmp(header, kMagicV1, kMagicLen) == 0)
    return Status::NotSupported(
        "checkpoint " + path +
        " has format SLCKPT01 (fixed-width cells), which this build no "
        "longer reads; it reads only SLCKPT02");
  if (std::memcmp(header, kMagic, kMagicLen) != 0)
    return Status::Corruption("bad checkpoint magic");
  uint64_t len = 0;
  for (int i = 0; i < 8; i++)
    len |= static_cast<uint64_t>(header[kMagicLen + i]) << (8 * i);
  uint32_t crc = 0;
  for (int i = 0; i < 4; i++)
    crc |= static_cast<uint32_t>(header[kMagicLen + 8 + i]) << (8 * i);
  // A corrupted length field must not drive a giant allocation: the payload
  // can never exceed what is actually in the file.
  auto file_size = env->GetFileSize(path);
  if (file_size.ok() && len > *file_size)
    return Status::Corruption("checkpoint length field exceeds file size");

  std::vector<uint8_t> payload(len);
  auto payload_n = (*file)->Read(len, payload.data());
  if (!payload_n.ok()) return payload_n.status();
  if (*payload_n != len)
    return Status::Corruption("checkpoint payload truncated");
  if (Crc32c(Slice(payload)) != crc)
    return Status::Corruption("checkpoint CRC mismatch");

  Decoder dec{Slice(payload)};
  CheckpointData out;
  auto meta = dec.GetLengthPrefixed();
  if (!meta.ok()) return meta.status();
  out.meta = meta->ToVector();

  auto num_tables = dec.GetVarint32();
  if (!num_tables.ok()) return num_tables.status();
  for (uint32_t t = 0; t < *num_tables; t++) {
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    auto name = dec.GetLengthPrefixed();
    if (!name.ok()) return name.status();
    auto schema = DecodeSchema(&dec);
    if (!schema.ok()) return schema.status();

    auto table = std::make_unique<TableStore>(*table_id, name->ToString(),
                                              std::move(*schema));

    auto index_defs = DecodeIndexDefs(&dec);
    if (!index_defs.ok()) return index_defs.status();

    auto row_count = dec.GetVarint64();
    if (!row_count.ok()) return row_count.status();
    for (uint64_t r = 0; r < *row_count; r++) {
      auto row = DecodeRow(&dec);
      if (!row.ok()) return row.status();
      SL_RETURN_IF_ERROR(table->Insert(*row));
    }
    // Rebuild secondary indexes after rows are loaded so unique checks see
    // the final data.
    for (const IndexDef& def : *index_defs) {
      SL_RETURN_IF_ERROR(table->CreateIndex(def.name, def.ordinals, def.unique));
    }
    out.tables.push_back(std::move(table));
  }
  if (!dec.done()) return Status::Corruption("trailing bytes in checkpoint");
  return out;
}

}  // namespace sqlledger

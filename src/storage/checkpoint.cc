#include "storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "catalog/row.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
// 07: a store's section holds its id, row count and rows, each encoded
// against the row before it (EncodeRow's cell states, a DOUBLE that is
// exactly k/100 as the varint of k); the caller's meta holds the
// definitions, and a ledger transaction row's table roots carry varint
// table ids. No reader is kept for the retired formats, which are refused
// as NotSupported.
constexpr char kMagic[] = "SLCKPT07";
constexpr const char* kRetired[][2] = {
    {"SLCKPT01", "fixed-width cells"},
    {"SLCKPT02", "rows without predecessors"},
    {"SLCKPT03", "store definitions beside their rows"},
    {"SLCKPT04", "repeat bitmaps, changed cells written whole"},
    {"SLCKPT05", "fixed32 table ids in table roots"},
    {"SLCKPT06", "every DOUBLE stored as 8 raw bytes"}};
constexpr size_t kMagicLen = 8;
// Room past a chunk's end, so the item that crosses the boundary is
// encoded without the chunk reallocating. Larger items still fit: the chunk
// grows once and Seal() splits the excess into further chunks.
constexpr size_t kChunkHeadroom = size_t{64} << 10;

// The checkpoint payload as a list of kCheckpointChunkBytes chunks. One
// growing vector would copy a multi-megabyte payload on every doubling.
// Each chunk is checksummed when it is sealed, while still in cache.
class ChunkedPayload {
 public:
  ChunkedPayload() { AddChunk(); }

  /// Where the next item is encoded. Call Seal() after each item.
  std::vector<uint8_t>* tail() { return &chunks_.back(); }

  /// Cuts the tail at every chunk boundary it has crossed, moving the
  /// excess into new chunks, and checksums the full ones.
  void Seal() {
    const size_t grown = chunks_.size() - 1;
    const size_t size = chunks_[grown].size();
    if (size < kCheckpointChunkBytes) return;
    for (size_t off = kCheckpointChunkBytes; off <= size;
         off += kCheckpointChunkBytes) {
      AddChunk();
      const uint8_t* from = chunks_[grown].data() + off;
      chunks_.back().assign(
          from, from + std::min(kCheckpointChunkBytes, size - off));
    }
    chunks_[grown].resize(kCheckpointChunkBytes);
    for (size_t i = grown; i + 1 < chunks_.size(); i++) Checksum(chunks_[i]);
  }

  /// Checksums the tail and returns the whole payload's size and CRC.
  /// Nothing may be encoded afterwards.
  std::pair<uint64_t, uint32_t> Finish() {
    Checksum(chunks_.back());
    return {size_, crc_};
  }

  /// Appends one Slice per chunk to `parts`.
  void AppendParts(std::vector<Slice>* parts) const {
    for (const std::vector<uint8_t>& chunk : chunks_)
      parts->push_back(Slice(chunk));
  }

 private:
  void AddChunk() {
    chunks_.emplace_back();
    chunks_.back().reserve(kCheckpointChunkBytes + kChunkHeadroom);
  }
  void Checksum(const std::vector<uint8_t>& chunk) {
    crc_ = Crc32cExtend(crc_, chunk.data(), chunk.size());
    size_ += chunk.size();
  }

  std::vector<std::vector<uint8_t>> chunks_;
  uint64_t size_ = 0;
  uint32_t crc_ = 0;
};
}  // namespace

Status WriteCheckpoint(const std::string& path, Slice meta,
                       const std::vector<const TableStore*>& tables,
                       Env* env) {
  if (env == nullptr) env = Env::Default();
  ChunkedPayload payload;
  PutLengthPrefixed(payload.tail(), meta);
  PutVarint32(payload.tail(), static_cast<uint32_t>(tables.size()));
  payload.Seal();
  for (const TableStore* table : tables) {
    PutVarint32(payload.tail(), table->table_id());
    PutVarint64(payload.tail(), table->row_count());
    payload.Seal();
    const Row* prev = nullptr;
    for (BTree::Iterator it = table->Scan(); it.Valid(); it.Next()) {
      EncodeRow(it.value(), prev, payload.tail());
      payload.Seal();
      prev = &it.value();
    }
  }
  const auto [payload_size, payload_crc] = payload.Finish();

  std::vector<uint8_t> header(kMagic, kMagic + kMagicLen);
  PutFixed64(&header, payload_size);
  PutFixed32(&header, payload_crc);

  // The header and the chunks go out as separate appends, so the payload is
  // never joined into one buffer. Recovery falls back to the `.prev`
  // generation (plus the rotated WAL) if the new checkpoint is ever found
  // torn or corrupt.
  std::vector<Slice> parts = {Slice(header)};
  payload.AppendParts(&parts);
  Status st = ReplaceFileDurably(env, path, parts, /*keep_previous=*/true);
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
  for (const auto& [retired, layout] : kRetired) {
    if (std::memcmp(header, retired, kMagicLen) == 0)
      return Status::NotSupported("checkpoint " + path + " has format " +
                                  retired + " (" + layout +
                                  "), which this build no longer reads; it "
                                  "reads only " + kMagic);
  }
  if (std::memcmp(header, kMagic, kMagicLen) != 0)
    return Status::Corruption("bad checkpoint magic");
  Decoder fields{Slice(header + kMagicLen, 12)};
  const uint64_t len = *fields.GetFixed64();
  const uint32_t crc = *fields.GetFixed32();
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
  auto meta = dec.GetLengthPrefixed();
  if (!meta.ok()) return meta.status();
  const size_t stores_offset = payload.size() - dec.remaining();
  return CheckpointData{meta->ToVector(), std::move(payload), stores_offset};
}

Status LoadCheckpointStores(const CheckpointData& checkpoint,
                            const std::map<uint32_t, TableStore*>& stores) {
  const Slice payload(checkpoint.payload);
  Decoder dec{Slice(payload.data() + checkpoint.stores_offset,
                    payload.size() - checkpoint.stores_offset)};
  auto num_tables = dec.GetVarint32();
  if (!num_tables.ok()) return num_tables.status();
  for (uint32_t t = 0; t < *num_tables; t++) {
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    auto store = stores.find(*table_id);
    if (store == stores.end())
      return Status::Corruption("checkpoint holds rows of store id " +
                                std::to_string(*table_id) +
                                ", which no table defines");
    auto row_count = dec.GetVarint64();
    if (!row_count.ok()) return row_count.status();
    // The predecessor is the row just loaded, which stays put until the
    // next insert: after the next row has been decoded against it.
    const Row* prev = nullptr;
    for (uint64_t r = 0; r < *row_count; r++) {
      auto row = DecodeRow(&dec, prev);
      if (!row.ok()) return row.status();
      Status st = store->second->Insert(std::move(*row), &prev);
      if (!st.ok())
        return Status::Corruption("checkpoint row of store id " +
                                  std::to_string(*table_id) +
                                  " does not load: " + st.message());
    }
  }
  if (!dec.done()) return Status::Corruption("trailing bytes in checkpoint");
  return Status::OK();
}

}  // namespace sqlledger

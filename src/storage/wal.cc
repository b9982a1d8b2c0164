#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "catalog/row.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
constexpr size_t kFrameHeaderSize = 8;  // fixed32 length + fixed32 crc32c
// Set in a logged op's type byte when a sequence gap follows its table id.
constexpr uint8_t kSeqGapFlag = 0x80;
}  // namespace

void AppendFrame(Slice payload, std::vector<uint8_t>* dst) {
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, Crc32c(payload));
  dst->insert(dst->end(), payload.data(), payload.data() + payload.size());
}

Result<FrameLogScan> ReadFrameLog(
    Env* env, const std::string& path,
    const std::function<Status(Slice payload)>& fn) {
  FrameLogScan scan;
  auto file = env->NewSequentialFile(path);
  if (!file.ok()) {
    if (file.status().IsNotFound()) return scan;
    return file.status();
  }
  auto size = env->GetFileSize(path);
  if (!size.ok()) return size.status();
  std::vector<uint8_t> buf;
  while (*size - scan.intact_bytes >= kFrameHeaderSize) {
    uint8_t header[kFrameHeaderSize];
    auto n = (*file)->Read(kFrameHeaderSize, header);
    if (!n.ok()) return n.status();
    if (*n < kFrameHeaderSize) break;
    Decoder dec(Slice(header, kFrameHeaderSize));
    const uint32_t len = *dec.GetFixed32();
    const uint32_t crc = *dec.GetFixed32();
    const uint64_t frame_end = scan.intact_bytes + kFrameHeaderSize + len;
    if (len == 0 || frame_end > *size) break;  // zero-filled or torn tail
    buf.resize(len);
    auto got = (*file)->Read(len, buf.data());
    if (!got.ok()) return got.status();
    if (*got < len) break;
    if (Crc32c(buf.data(), len) != crc) {
      scan.corrupt_mid_log = *size - frame_end >= kFrameHeaderSize;
      break;
    }
    SL_RETURN_IF_ERROR(fn(Slice(buf)));
    scan.records++;
    scan.intact_bytes = frame_end;
  }
  scan.has_tail = scan.intact_bytes < *size;
  return scan;
}

namespace {
void EncodeStore(const TableDefinition::Store& store,
                 std::vector<uint8_t>* dst) {
  PutLengthPrefixed(dst, Slice(store.name));
  EncodeSchema(store.schema, dst);
  EncodeIndexDefs(store.indexes, dst);
}

Status DecodeStore(Decoder* dec, TableDefinition::Store* store) {
  auto name = dec->GetLengthPrefixed();
  if (!name.ok()) return name.status();
  store->name = name->ToString();
  auto schema = DecodeSchema(dec);
  if (!schema.ok()) return schema.status();
  store->schema = std::move(*schema);
  auto indexes = DecodeIndexDefs(dec);
  if (!indexes.ok()) return indexes.status();
  store->indexes = std::move(*indexes);
  return Status::OK();
}
}  // namespace

TableDefinition::Store TableDefinition::Store::Of(const TableStore& store) {
  return Store{store.name(), store.schema(), store.IndexDefs()};
}

void TableDefinition::EncodeTo(std::vector<uint8_t>* dst) const {
  dst->push_back(kind);
  dst->push_back(dropped ? 1 : 0);
  EncodeStore(main, dst);
  PutVarint32(dst, history_table_id);
  if (history_table_id != 0) EncodeStore(history, dst);
}

Result<TableDefinition> TableDefinition::Decode(Decoder* dec) {
  TableDefinition def;
  auto flags = dec->GetBytes(2);
  if (!flags.ok()) return flags.status();
  def.kind = (*flags)[0];
  def.dropped = (*flags)[1] != 0;
  SL_RETURN_IF_ERROR(DecodeStore(dec, &def.main));
  auto history_id = dec->GetVarint32();
  if (!history_id.ok()) return history_id.status();
  def.history_table_id = *history_id;
  if (def.history_table_id != 0)
    SL_RETURN_IF_ERROR(DecodeStore(dec, &def.history));
  return def;
}

namespace {
// The last tuple of each (table, cell count) a record has logged so far:
// the predecessor of the next such tuple.
class TuplePredecessors {
 public:
  /// The predecessor slot of a tuple of `width` cells of table `table_id`,
  /// null until a tuple is noted in it. Valid until the next call.
  const Row*& Slot(uint32_t table_id, size_t width) {
    for (Entry& e : last_) {
      if (e.table_id == table_id && e.width == width) return e.row;
    }
    last_.push_back({table_id, width, nullptr});
    return last_.back().row;
  }

 private:
  struct Entry {
    uint32_t table_id;
    size_t width;
    const Row* row;
  };
  std::vector<Entry> last_;
};
}  // namespace

size_t WalCommitRecord::EncodeTo(const std::vector<WalOp>& ops,
                                 std::vector<uint8_t>* dst) const {
  PutVarint64(dst, txn_id);
  PutFixed64(dst, static_cast<uint64_t>(commit_ts_micros));
  PutLengthPrefixed(dst, Slice(user_name));
  // Fixed width so the group-commit leader can patch the slot in after
  // encoding (the slot is only known once the leader assigns it).
  size_t slot_offset = dst->size();
  PutFixed64(dst, block_id);
  PutFixed64(dst, block_ordinal);
  PutVarint32(dst, ledger_tables);
  if (ledger_tables > 0) PutFixed64(dst, roots_check);
  PutVarint32(dst, static_cast<uint32_t>(ops.size()));
  TuplePredecessors predecessors;
  for (const WalOp& op : ops) {
    const uint8_t type = static_cast<uint8_t>(op.type);
    dst->push_back(op.seq_gap != 0 ? type | kSeqGapFlag : type);
    PutVarint32(dst, op.table_id);
    if (op.type == WalOpType::kDefineTable) {
      op.definition->EncodeTo(dst);
      continue;
    }
    if (op.seq_gap != 0) PutVarint64(dst, op.seq_gap);
    const bool deletes = op.type == WalOpType::kDelete ||
                         op.type == WalOpType::kLedgerDelete;
    const Row& tuple = deletes ? op.key : op.new_row;
    const Row*& prev = predecessors.Slot(op.table_id, tuple.size());
    EncodeRow(tuple, prev, dst);
    prev = &tuple;
  }
  return slot_offset;
}

size_t WalCommitRecord::EncodedBytesBound(
    const std::vector<WalOp>& ops) const {
  // Varints at their widest: the txn id, the user name's length, the
  // ledger table count and the op count; then the fixed-width fields.
  size_t bytes = 10 + 5 + user_name.size() + 5 + 5 + 8 + 16 + 8;
  for (const WalOp& op : ops) {
    // The type byte, the table id and the sequence gap, then the tuple:
    // the key or the row, whichever the op logs (the other is empty).
    bytes += 1 + 5 + 10 + EncodedRowBound(op.key) +
             EncodedRowBound(op.new_row);
  }
  return bytes;
}

void WalCommitRecord::SetTableRoots(
    const std::vector<std::pair<uint32_t, Hash256>>& roots) {
  ledger_tables = static_cast<uint32_t>(roots.size());
  roots_check = roots.empty() ? 0 : RootsCheck(roots);
}

uint64_t WalCommitRecord::RootsCheck(
    const std::vector<std::pair<uint32_t, Hash256>>& roots) {
  std::vector<uint8_t> list;
  list.reserve(roots.size() * 37);
  for (const auto& [table_id, root] : roots) {
    PutVarint32(&list, table_id);
    list.insert(list.end(), root.bytes.begin(), root.bytes.end());
  }
  // Read as a fixed64, so that PutFixed64 logs the digest's first 8 bytes.
  const Hash256 digest = Sha256::Digest(Slice(list));
  Decoder prefix(Slice(digest.bytes.data(), 8));
  return *prefix.GetFixed64();
}

void WalCommitRecord::PatchSlot(std::vector<uint8_t>* buf, size_t slot_offset,
                                uint64_t block_id, uint64_t block_ordinal) {
  std::vector<uint8_t> slot;
  slot.reserve(16);
  PutFixed64(&slot, block_id);
  PutFixed64(&slot, block_ordinal);
  std::memcpy(buf->data() + slot_offset, slot.data(), slot.size());
}

Result<WalCommitRecord> WalCommitRecord::Decode(
    Slice payload, std::vector<size_t>* tuple_bytes) {
  Decoder dec(payload);
  WalCommitRecord rec;

  auto txn_id = dec.GetVarint64();
  if (!txn_id.ok()) return txn_id.status();
  rec.txn_id = *txn_id;

  auto ts = dec.GetFixed64();
  if (!ts.ok()) return ts.status();
  rec.commit_ts_micros = static_cast<int64_t>(*ts);

  auto user = dec.GetLengthPrefixed();
  if (!user.ok()) return user.status();
  rec.user_name = user->ToString();

  auto block_id = dec.GetFixed64();
  if (!block_id.ok()) return block_id.status();
  rec.block_id = *block_id;

  auto ordinal = dec.GetFixed64();
  if (!ordinal.ok()) return ordinal.status();
  rec.block_ordinal = *ordinal;

  auto ledger_tables = dec.GetVarint32();
  if (!ledger_tables.ok()) return ledger_tables.status();
  rec.ledger_tables = *ledger_tables;
  if (rec.ledger_tables > 0) {
    auto check = dec.GetFixed64();
    if (!check.ok()) return check.status();
    rec.roots_check = *check;
  }

  // The op count is bounded by the bytes left before anything is reserved:
  // an op takes at least 3 (type, table id varint, row count varint).
  auto num_ops = dec.GetVarint32();
  if (!num_ops.ok()) return num_ops.status();
  if (*num_ops > dec.remaining() / 3)
    return Status::Corruption("WAL op count exceeds the record");
  // Reserved, so a decoded tuple stays put while it is a predecessor.
  rec.ops.reserve(*num_ops);
  if (tuple_bytes != nullptr) tuple_bytes->assign(*num_ops, 0);
  TuplePredecessors predecessors;
  for (uint32_t i = 0; i < *num_ops; i++) {
    auto type_byte = dec.GetBytes(1);
    if (!type_byte.ok()) return type_byte.status();
    WalOp& op = rec.ops.emplace_back();
    const uint8_t t = (*type_byte)[0] & ~kSeqGapFlag;
    const bool has_gap = ((*type_byte)[0] & kSeqGapFlag) != 0;
    if (t < 1 || t > 5) return Status::Corruption("bad WAL op type");
    op.type = static_cast<WalOpType>(t);
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    op.table_id = *table_id;
    if (op.type == WalOpType::kDefineTable) {
      if (has_gap) return Status::Corruption("sequence gap on a definition");
      auto def = TableDefinition::Decode(&dec);
      if (!def.ok()) return def.status();
      op.definition = std::make_shared<const TableDefinition>(std::move(*def));
      continue;
    }
    if (has_gap) {
      auto gap = dec.GetVarint64();
      if (!gap.ok()) return gap.status();
      if (*gap == 0) return Status::Corruption("zero sequence gap logged");
      op.seq_gap = *gap;
    }
    // The tuple's width picks its predecessor: peek at its cell count.
    Decoder peek = dec;
    auto width = peek.GetVarint32();
    if (!width.ok()) return width.status();
    const Row*& prev = predecessors.Slot(op.table_id, *width);
    const bool deletes = op.type == WalOpType::kDelete ||
                         op.type == WalOpType::kLedgerDelete;
    Row& tuple = deletes ? op.key : op.new_row;
    const size_t before = dec.remaining();
    auto row = DecodeRow(&dec, prev);
    if (!row.ok()) return row.status();
    tuple = std::move(*row);
    prev = &tuple;
    if (tuple_bytes != nullptr) (*tuple_bytes)[i] = before - dec.remaining();
  }
  if (!dec.done()) return Status::Corruption("trailing bytes in WAL record");
  return rec;
}

Wal::Wal(std::string path, std::unique_ptr<WritableFile> file,
         WalOptions options)
    : path_(std::move(path)),
      file_(std::move(file)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {}

Wal::~Wal() {
  // Destructor has nowhere to report; loss is bounded by the last Sync.
  if (file_ != nullptr) (void)file_->Close();
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       WalOptions options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  auto file = env->NewWritableFile(path, WritableFileOptions{});
  if (!file.ok())
    return Status::IOError("cannot open WAL file " + path + ": " +
                           file.status().message());
  return std::unique_ptr<Wal>(new Wal(path, std::move(*file), options));
}

Status Wal::Poison(Status error) {
  // First failure wins; it names the record at the hole.
  if (sticky_error_.ok())
    sticky_error_ = Status::IOError("WAL poisoned after lost write: " +
                                    error.ToString());
  return error;
}

Status Wal::AppendRecord(Slice payload) {
  return AppendBatch({payload});
}

void Wal::SetMetrics(MetricRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    m_append_micros_ = nullptr;
    m_sync_micros_ = nullptr;
    m_syncs_total_ = nullptr;
    m_bytes_total_ = nullptr;
    return;
  }
  m_append_micros_ = registry->GetHistogram("wal.append_micros");
  m_sync_micros_ = registry->GetHistogram("wal.sync_micros");
  m_syncs_total_ = registry->GetCounter("wal.syncs_total");
  m_bytes_total_ = registry->GetCounter("wal.bytes_total");
}

Status Wal::AppendBatch(const std::vector<Slice>& payloads,
                        bool force_sync) {
  if (payloads.empty()) return Status::OK();
  if (!sticky_error_.ok()) return sticky_error_;
  // All frames go out as one write so a torn append tears a suffix of
  // whole frames (plus at most one partial frame the replayer truncates),
  // never a header/payload split it would misparse. One trailing fsync
  // makes the whole group durable — this is where group commit amortizes
  // the sync cost across members.
  size_t total = 0;
  for (const Slice& p : payloads) total += kFrameHeaderSize + p.size();
  std::vector<uint8_t> frames;
  frames.reserve(total);
  for (const Slice& p : payloads) AppendFrame(p, &frames);
  // Two latency sections when instrumented: the buffered write+flush
  // (wal.append_micros) and the trailing fsync (wal.sync_micros) — the
  // split Figure 7 cares about, since group commit amortizes only the
  // second. Uninstrumented WALs never read the metrics clock.
  const int64_t t0 = metrics_ != nullptr ? metrics_->NowMicros() : 0;
  Status st = file_->Append(Slice(frames));
  if (!st.ok()) return Poison(st);
  st = file_->Flush();
  if (!st.ok()) return Poison(st);
  if (m_bytes_total_ != nullptr) m_bytes_total_->Add(frames.size());
  const int64_t t1 = metrics_ != nullptr ? metrics_->NowMicros() : 0;
  if (m_append_micros_ != nullptr)
    m_append_micros_->Record(static_cast<uint64_t>(std::max<int64_t>(0, t1 - t0)));
  if (options_.sync || force_sync) {
    if (m_syncs_total_ != nullptr) m_syncs_total_->Add();
    st = file_->Sync();
    if (!st.ok()) return Poison(st);
    if (m_sync_micros_ != nullptr) {
      m_sync_micros_->Record(static_cast<uint64_t>(
          std::max<int64_t>(0, metrics_->NowMicros() - t1)));
    }
  }
  return Status::OK();
}

Status Wal::Reset() {
  // Every record of a log that is not poisoned was already fsynced: by its
  // append under `sync`, else by the checkpoint that rotates the log
  // (LedgerDatabase::CheckpointImpl). A failed close of the outgoing
  // generation cannot lose committed data.
  (void)file_->Close();
  file_ = nullptr;
  // Keep the outgoing log as the fallback generation: if the checkpoint
  // just written turns out unreadable, recovery loads the previous
  // checkpoint and replays path.prev + path to reach the same state.
  Status st = env_->RenameFile(path_, path_ + ".prev");
  if (st.ok()) {
    auto file =
        env_->NewWritableFile(path_, WritableFileOptions{.truncate = true});
    if (file.ok()) {
      file_ = std::move(*file);
      st = env_->SyncDir(DirName(path_));
    } else {
      st = file.status();
    }
  }
  if (!st.ok()) {
    // No usable log file: poison so appends fail instead of vanishing.
    sticky_error_ =
        Status::IOError("WAL unavailable after failed reset: " + st.ToString());
    return st;
  }
  sticky_error_ = Status::OK();  // fresh log, no hole to append past
  return Status::OK();
}

Status Wal::Sync() {
  if (!sticky_error_.ok()) return sticky_error_;
  SL_RETURN_IF_ERROR(file_->Flush());
  if (m_syncs_total_ != nullptr) m_syncs_total_->Add();
  const int64_t t0 = metrics_ != nullptr ? metrics_->NowMicros() : 0;
  Status st = file_->Sync();
  if (!st.ok()) return Poison(st);
  if (m_sync_micros_ != nullptr) {
    m_sync_micros_->Record(static_cast<uint64_t>(
        std::max<int64_t>(0, metrics_->NowMicros() - t0)));
  }
  return Status::OK();
}

}  // namespace sqlledger

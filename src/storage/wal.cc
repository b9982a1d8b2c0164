#include "storage/wal.h"

#include <algorithm>

#include "catalog/row.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
constexpr size_t kFrameHeaderSize = 8;  // fixed32 length + fixed32 crc32c
// Set in a run's type byte when a sequence gap follows its count.
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
// The flags byte that starts a commit record's header.
constexpr uint8_t kChainStart = 0x01;   // encoded against the zero state
constexpr uint8_t kUserFollows = 0x02;  // the user name is not the chain's
constexpr uint8_t kSlotFollows = 0x04;  // the slot is not the chain's
constexpr uint8_t kHeaderFlags = kChainStart | kUserFollows | kSlotFollows;

// The zigzag varint of `value - base`, taken mod 2^64, and its inverse.
void PutDelta(std::vector<uint8_t>* dst, uint64_t value, uint64_t base) {
  PutVarint64(dst, ZigZagEncode64(static_cast<int64_t>(value - base)));
}

Result<uint64_t> GetDelta(Decoder* dec, uint64_t base) {
  auto delta = dec->GetVarint64();
  if (!delta.ok()) return delta.status();
  return base + static_cast<uint64_t>(ZigZagDecode64(*delta));
}

bool Deletes(const WalOp& op) {
  return op.type == WalOpType::kDelete || op.type == WalOpType::kLedgerDelete;
}

// The tuple an op logs: a delete's key, else its row.
const Row& TupleOf(const WalOp& op) {
  return Deletes(op) ? op.key : op.new_row;
}

// Whether `op` continues the run `prev` is in: two row ops of one type,
// table and nonzero width, and no sequence gap before `op`.
bool JoinsRun(const WalOp& prev, const WalOp& op) {
  if (op.type == WalOpType::kDefineTable || op.type != prev.type ||
      op.table_id != prev.table_id || op.seq_gap != 0)
    return false;
  const size_t width = TupleOf(op).size();
  return width != 0 && width == TupleOf(prev).size();
}

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

void WalCommitRecord::EncodeChainedHeader(WalHeaderChain* chain,
                                          std::vector<uint8_t>* dst) const {
  if (!chain->started) *chain = WalHeaderChain{};
  const bool user = user_name != chain->user_name;
  const bool slot =
      block_id != chain->block_id || block_ordinal != chain->block_ordinal;
  dst->push_back((chain->started ? 0 : kChainStart) |
                 (user ? kUserFollows : 0) | (slot ? kSlotFollows : 0));
  PutDelta(dst, txn_id, chain->txn_id);
  PutDelta(dst, static_cast<uint64_t>(commit_ts_micros),
           static_cast<uint64_t>(chain->commit_ts_micros));
  if (user) PutLengthPrefixed(dst, Slice(user_name));
  if (slot) {
    PutDelta(dst, block_id, chain->block_id);
    PutDelta(dst, block_ordinal, chain->block_ordinal);
  }
  PutVarint32(dst, ledger_tables);
  if (ledger_tables > 0) PutFixed64(dst, roots_check);

  chain->started = true;
  chain->txn_id = txn_id;
  chain->commit_ts_micros = commit_ts_micros;
  if (user) chain->user_name = user_name;
  chain->block_id = block_id;
  chain->block_ordinal = block_ordinal;
}

size_t WalCommitRecord::HeaderBytesBound() const {
  // The flags, four deltas at their widest (10 bytes each), the user name
  // and its length, the ledger table count and the roots check.
  return 1 + 4 * 10 + 5 + user_name.size() + 5 + 8;
}

void WalCommitRecord::EncodeOps(const std::vector<WalOp>& ops,
                                std::vector<uint8_t>* dst) {
  PutVarint32(dst, static_cast<uint32_t>(ops.size()));
  TuplePredecessors predecessors;
  for (size_t i = 0; i < ops.size();) {
    const WalOp& first = ops[i];
    const uint8_t type = static_cast<uint8_t>(first.type);
    dst->push_back(first.seq_gap != 0 ? type | kSeqGapFlag : type);
    PutVarint32(dst, first.table_id);
    if (first.type == WalOpType::kDefineTable) {
      first.definition->EncodeTo(dst);
      i++;
      continue;
    }
    size_t end = i + 1;
    while (end < ops.size() && JoinsRun(ops[end - 1], ops[end])) end++;
    PutVarint64(dst, end - i);
    if (first.seq_gap != 0) PutVarint64(dst, first.seq_gap);
    const size_t width = TupleOf(first).size();
    PutVarint32(dst, static_cast<uint32_t>(width));
    const Row*& prev = predecessors.Slot(first.table_id, width);
    for (; i < end; i++) {
      EncodeRowCells(TupleOf(ops[i]), prev, dst);
      prev = &TupleOf(ops[i]);
    }
  }
}

size_t WalCommitRecord::EncodedOpsBound(const std::vector<WalOp>& ops) {
  // The op count; per op a run header at its widest (the type byte, the
  // table id, the count, the gap and the width), then the tuple: the key
  // or the row, whichever the op logs (the other is empty).
  size_t bytes = 5;
  for (const WalOp& op : ops) {
    bytes += 1 + 5 + 10 + 10 + 5 + EncodedRowBound(op.key) +
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

Result<WalCommitRecord> WalCommitRecord::Decode(Slice payload,
                                                WalHeaderChain* chain,
                                                WalRecordLayout* layout) {
  Decoder dec(payload);
  WalCommitRecord rec;
  WalRecordLayout layers;
  size_t mark = dec.remaining();
  // The bytes read since the last call, for the layer breakdown (the
  // tuples are only counted with `layout`).
  auto consumed = [&] {
    const size_t n = mark - dec.remaining();
    mark = dec.remaining();
    return n;
  };

  auto flags = dec.GetBytes(1);
  if (!flags.ok()) return flags.status();
  const uint8_t f = (*flags)[0];
  if ((f & ~kHeaderFlags) != 0)
    return Status::Corruption("unknown flags in a WAL record header");
  if ((f & kChainStart) == 0 && !chain->started)
    return Status::Corruption(
        "WAL record continues a header chain that never started");
  layers.chain_start = (f & kChainStart) != 0;
  const WalHeaderChain kZero;
  const WalHeaderChain& base = layers.chain_start ? kZero : *chain;
  auto txn_id = GetDelta(&dec, base.txn_id);
  if (!txn_id.ok()) return txn_id.status();
  rec.txn_id = *txn_id;
  auto ts = GetDelta(&dec, static_cast<uint64_t>(base.commit_ts_micros));
  if (!ts.ok()) return ts.status();
  rec.commit_ts_micros = static_cast<int64_t>(*ts);
  if ((f & kUserFollows) != 0) {
    auto user = dec.GetLengthPrefixed();
    if (!user.ok()) return user.status();
    rec.user_name = user->ToString();
    if (rec.user_name == base.user_name)
      return Status::Corruption("WAL record logs its chain's user name");
  } else {
    rec.user_name = base.user_name;
  }
  layers.stamp = consumed();

  rec.block_id = base.block_id;
  rec.block_ordinal = base.block_ordinal;
  if ((f & kSlotFollows) != 0) {
    auto block_id = GetDelta(&dec, base.block_id);
    if (!block_id.ok()) return block_id.status();
    auto ordinal = GetDelta(&dec, base.block_ordinal);
    if (!ordinal.ok()) return ordinal.status();
    if (*block_id == rec.block_id && *ordinal == rec.block_ordinal)
      return Status::Corruption("WAL record logs its chain's slot");
    rec.block_id = *block_id;
    rec.block_ordinal = *ordinal;
  }
  layers.slot = consumed();

  auto ledger_tables = dec.GetVarint32();
  if (!ledger_tables.ok()) return ledger_tables.status();
  rec.ledger_tables = *ledger_tables;
  if (rec.ledger_tables > 0) {
    auto check = dec.GetFixed64();
    if (!check.ok()) return check.status();
    rec.roots_check = *check;
  }
  layers.roots_check = consumed();

  // Every op takes at least a byte: a tuple of a nonzero width a byte, an
  // empty one a run header of its own, a definition its type and table.
  // So the op count is bounded by the bytes left before it is reserved.
  auto num_ops = dec.GetVarint32();
  if (!num_ops.ok()) return num_ops.status();
  if (*num_ops > dec.remaining())
    return Status::Corruption("WAL op count exceeds the record");
  // Reserved, so a tuple stays put while it is a predecessor.
  rec.ops.reserve(*num_ops);
  TuplePredecessors predecessors;
  while (rec.ops.size() < *num_ops) {
    auto type_byte = dec.GetBytes(1);
    if (!type_byte.ok()) return type_byte.status();
    const uint8_t t = (*type_byte)[0] & ~kSeqGapFlag;
    const bool has_gap = ((*type_byte)[0] & kSeqGapFlag) != 0;
    if (t < 1 || t > 5) return Status::Corruption("bad WAL op type");
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    WalOp first;
    first.type = static_cast<WalOpType>(t);
    first.table_id = *table_id;
    if (first.type == WalOpType::kDefineTable) {
      if (has_gap) return Status::Corruption("sequence gap on a definition");
      layers.run_headers += consumed();
      auto def = TableDefinition::Decode(&dec);
      if (!def.ok()) return def.status();
      first.definition =
          std::make_shared<const TableDefinition>(std::move(*def));
      rec.ops.push_back(std::move(first));
      if (layout != nullptr) layers.tuples.push_back(consumed());
      continue;
    }
    auto count = dec.GetVarint64();
    if (!count.ok()) return count.status();
    if (has_gap) {
      auto gap = dec.GetVarint64();
      if (!gap.ok()) return gap.status();
      if (*gap == 0) return Status::Corruption("zero sequence gap logged");
      first.seq_gap = *gap;
    }
    auto width = dec.GetVarint32();
    if (!width.ok()) return width.status();
    if (*count == 0 || *count > *num_ops - rec.ops.size() ||
        (*width == 0 && *count != 1))
      return Status::Corruption("WAL run length does not fit the record");
    layers.run_headers += consumed();
    const Row*& prev = predecessors.Slot(first.table_id, *width);
    for (uint64_t k = 0; k < *count; k++) {
      auto tuple = DecodeRowCells(&dec, *width, prev);
      if (!tuple.ok()) return tuple.status();
      WalOp& op = rec.ops.emplace_back();
      op.type = first.type;
      op.table_id = first.table_id;
      if (k == 0) op.seq_gap = first.seq_gap;
      Row& logged = Deletes(op) ? op.key : op.new_row;
      logged = std::move(*tuple);
      prev = &logged;
      if (layout != nullptr) layers.tuples.push_back(consumed());
    }
    // The encoder makes every run as long as it can.
    const size_t n = rec.ops.size();
    if (n > *count && JoinsRun(rec.ops[n - *count - 1], rec.ops[n - *count]))
      return Status::Corruption("WAL run continues the run before it");
  }
  if (!dec.done()) return Status::Corruption("trailing bytes in WAL record");

  // The chain advances only past a whole record.
  chain->started = true;
  chain->txn_id = rec.txn_id;
  chain->commit_ts_micros = rec.commit_ts_micros;
  if (rec.user_name != chain->user_name) chain->user_name = rec.user_name;
  chain->block_id = rec.block_id;
  chain->block_ordinal = rec.block_ordinal;
  if (layout != nullptr) *layout = std::move(layers);
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

#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "catalog/row.h"
#include "util/coding.h"

namespace sqlledger {

namespace {
std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}
}  // namespace

size_t WalCommitRecord::EncodeTo(std::vector<uint8_t>* dst) const {
  PutVarint64(dst, txn_id);
  PutFixed64(dst, static_cast<uint64_t>(commit_ts_micros));
  PutLengthPrefixed(dst, Slice(user_name));
  // Fixed width so the group-commit leader can patch the slot in after
  // encoding (the slot is only known once the leader assigns it).
  size_t slot_offset = dst->size();
  PutFixed64(dst, block_id);
  PutFixed64(dst, block_ordinal);
  PutVarint32(dst, static_cast<uint32_t>(table_roots.size()));
  for (const auto& [table_id, root] : table_roots) {
    PutVarint32(dst, table_id);
    dst->insert(dst->end(), root.bytes.begin(), root.bytes.end());
  }
  PutVarint32(dst, static_cast<uint32_t>(ops.size()));
  for (const WalOp& op : ops) {
    dst->push_back(static_cast<uint8_t>(op.type));
    PutVarint32(dst, op.table_id);
    EncodeRow(op.key, dst);
    EncodeRow(op.new_row, dst);
  }
  return slot_offset;
}

void WalCommitRecord::PatchSlot(std::vector<uint8_t>* buf, size_t slot_offset,
                                uint64_t block_id, uint64_t block_ordinal) {
  std::vector<uint8_t> slot;
  slot.reserve(16);
  PutFixed64(&slot, block_id);
  PutFixed64(&slot, block_ordinal);
  std::memcpy(buf->data() + slot_offset, slot.data(), slot.size());
}

Result<WalCommitRecord> WalCommitRecord::Decode(Slice payload) {
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

  auto num_roots = dec.GetVarint32();
  if (!num_roots.ok()) return num_roots.status();
  rec.table_roots.reserve(*num_roots);
  for (uint32_t i = 0; i < *num_roots; i++) {
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    auto hash_bytes = dec.GetBytes(32);
    if (!hash_bytes.ok()) return hash_bytes.status();
    Hash256 root;
    std::memcpy(root.bytes.data(), hash_bytes->data(), 32);
    rec.table_roots.emplace_back(*table_id, root);
  }

  auto num_ops = dec.GetVarint32();
  if (!num_ops.ok()) return num_ops.status();
  rec.ops.reserve(*num_ops);
  for (uint32_t i = 0; i < *num_ops; i++) {
    auto type_byte = dec.GetBytes(1);
    if (!type_byte.ok()) return type_byte.status();
    WalOp op;
    uint8_t t = (*type_byte)[0];
    if (t < 1 || t > 3) return Status::Corruption("bad WAL op type");
    op.type = static_cast<WalOpType>(t);
    auto table_id = dec.GetVarint32();
    if (!table_id.ok()) return table_id.status();
    op.table_id = *table_id;
    auto key = DecodeRow(&dec);
    if (!key.ok()) return key.status();
    op.key = std::move(*key);
    auto new_row = DecodeRow(&dec);
    if (!new_row.ok()) return new_row.status();
    op.new_row = std::move(*new_row);
    rec.ops.push_back(std::move(op));
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

Status Wal::AppendBatch(const std::vector<Slice>& payloads) {
  if (payloads.empty()) return Status::OK();
  if (!sticky_error_.ok()) return sticky_error_;
  // All frames go out as one write so a torn append tears a suffix of
  // whole frames (plus at most one partial frame the replayer truncates),
  // never a header/payload split it would misparse. One trailing fsync
  // makes the whole group durable — this is where group commit amortizes
  // the sync cost across members.
  size_t total = 0;
  for (const Slice& p : payloads) total += 8 + p.size();
  std::vector<uint8_t> frames;
  frames.reserve(total);
  for (const Slice& p : payloads) {
    PutFixed32(&frames, static_cast<uint32_t>(p.size()));
    PutFixed32(&frames, Crc32c(p));
    frames.insert(frames.end(), p.data(), p.data() + p.size());
  }
  // Two latency sections when instrumented: the buffered write+flush
  // (wal.append_micros) and the trailing fsync (wal.sync_micros) — the
  // split Figure 7 cares about, since group commit amortizes only the
  // second. Uninstrumented WALs never read the metrics clock.
  const int64_t t0 = metrics_ != nullptr ? metrics_->NowMicros() : 0;
  Status st = file_->Append(Slice(frames));
  if (!st.ok()) return Poison(st);
  st = file_->Flush();
  if (!st.ok()) return Poison(st);
  bytes_written_ += frames.size();
  if (m_bytes_total_ != nullptr) m_bytes_total_->Add(frames.size());
  const int64_t t1 = metrics_ != nullptr ? metrics_->NowMicros() : 0;
  if (m_append_micros_ != nullptr)
    m_append_micros_->Record(static_cast<uint64_t>(std::max<int64_t>(0, t1 - t0)));
  if (options_.sync) {
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

Status Wal::AppendCommit(const WalCommitRecord& record) {
  std::vector<uint8_t> payload;
  record.EncodeTo(&payload);
  return AppendRecord(Slice(payload));
}

Status Wal::Reset() {
  // Every durable record was already fsynced by AppendRecord; a failed
  // close of the outgoing generation cannot lose committed data.
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
      st = env_->SyncDir(ParentDir(path_));
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
  bytes_written_ = 0;
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

Result<uint64_t> Wal::Replay(
    const std::string& path,
    const std::function<Status(Slice payload)>& fn, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto file = env->NewSequentialFile(path);
  if (!file.ok()) {
    if (file.status().IsNotFound()) return static_cast<uint64_t>(0);
    return file.status();
  }

  uint64_t records = 0;
  std::vector<uint8_t> buf;
  while (true) {
    uint8_t header[8];
    auto n = (*file)->Read(8, header);
    if (!n.ok()) return n.status();
    if (*n < 8) break;  // clean EOF or torn header: stop
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; i++) len |= static_cast<uint32_t>(header[i]) << (8 * i);
    for (int i = 0; i < 4; i++)
      crc |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
    if (len > (1u << 30)) break;  // implausible length: treat as torn tail
    buf.resize(len);
    auto got = (*file)->Read(len, buf.data());
    if (!got.ok()) return got.status();
    if (*got != len) break;                    // torn payload
    if (Crc32c(buf.data(), len) != crc) break;  // corrupt record
    SL_RETURN_IF_ERROR(fn(Slice(buf)));
    records++;
  }
  return records;
}

}  // namespace sqlledger

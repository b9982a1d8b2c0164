#include "storage/digest_outbox.h"

#include "util/coding.h"

namespace sqlledger {

namespace {

std::vector<uint8_t> EncodeRecord(const std::string& payload) {
  std::vector<uint8_t> rec;
  rec.reserve(payload.size() + 8);
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  PutFixed32(&rec, Crc32c(Slice(payload)));
  rec.insert(rec.end(), payload.begin(), payload.end());
  return rec;
}

}  // namespace

DigestOutbox::DigestOutbox(DigestOutboxOptions opts)
    : opts_(std::move(opts)),
      env_(opts_.env != nullptr ? opts_.env : Env::Default()) {}

Result<std::unique_ptr<DigestOutbox>> DigestOutbox::Open(
    DigestOutboxOptions opts) {
  if (opts.dir.empty())
    return Status::InvalidArgument("digest outbox requires a directory");
  std::unique_ptr<DigestOutbox> outbox(new DigestOutbox(std::move(opts)));
  Status st = outbox->env_->CreateDirs(outbox->opts_.dir);
  if (!st.ok())
    return Status::IOError("cannot create outbox dir: " + st.message());
  SL_RETURN_IF_ERROR(outbox->Replay());
  return outbox;
}

Status DigestOutbox::Replay() {
  // The cursor errs toward 0 (see header): missing or corrupt reads as
  // "nothing acknowledged" and replay re-queues everything; uploads of
  // byte-identical digests are idempotent, so the worst case is wasted work.
  uint64_t cursor = 0;
  auto cbytes = env_->ReadFile(CursorPath());
  if (cbytes.ok() && cbytes->size() == 12) {
    Decoder dec(Slice(cbytes->data(), cbytes->size()));
    auto value = dec.GetFixed64();
    auto crc = dec.GetFixed32();
    if (value.ok() && crc.ok() &&
        *crc == Crc32c(cbytes->data(), 8))
      cursor = *value;
  }

  std::vector<std::string> records;
  auto bytes = env_->ReadFile(LogPath());
  if (!bytes.ok() && !bytes.status().IsNotFound())
    return Status::IOError("cannot read outbox log: " +
                           bytes.status().message());
  if (bytes.ok()) {
    const size_t total = bytes->size();
    size_t valid_bytes = 0;  // log prefix covered by intact records
    Decoder dec(Slice(bytes->data(), total));
    while (!dec.done()) {
      // A record that cannot be fully decoded is a torn tail — the append
      // never returned success, so the digest was never considered queued —
      // unless complete bytes FOLLOW it, which means mid-log damage.
      if (dec.remaining() < 8) break;
      auto len = dec.GetFixed32();
      auto crc = dec.GetFixed32();
      if (!len.ok() || !crc.ok()) break;
      if (dec.remaining() < *len) break;  // torn payload: tail by definition
      auto payload = dec.GetBytes(*len);
      if (!payload.ok()) break;
      if (*crc != Crc32c(*payload)) {
        if (dec.remaining() >= 8)
          return Status::Corruption("outbox record " +
                                    std::to_string(records.size()) +
                                    " fails its CRC mid-log");
        break;  // corrupt final record: treat as torn tail
      }
      records.emplace_back(reinterpret_cast<const char*>(payload->data()),
                           payload->size());
      valid_bytes = total - dec.remaining();
    }
    // Truncate the torn tail away (the WAL-recovery discipline): appends go
    // to the end of the file, so garbage left in place would sit BETWEEN
    // intact records and the next append and read as mid-log corruption on
    // the replay after that.
    if (valid_bytes < total) {
      Status st = env_->TruncateFile(LogPath(), valid_bytes);
      if (!st.ok())
        return Status::IOError("cannot truncate torn outbox tail: " +
                               st.message());
    }
  }

  MutexLock lock(&mu_);
  log_acked_ = cursor < records.size() ? cursor : records.size();
  pending_.assign(records.begin() + static_cast<long>(log_acked_),
                  records.end());
  return Status::OK();
}

Status DigestOutbox::Append(const std::string& payload) {
  MutexLock lock(&mu_);
  if (pending_.size() >= opts_.capacity)
    return Status::Busy("digest outbox full (" +
                        std::to_string(opts_.capacity) + " pending)");
  std::vector<uint8_t> rec = EncodeRecord(payload);
  auto file = env_->NewWritableFile(LogPath(), WritableFileOptions{});
  if (!file.ok())
    return Status::IOError("cannot open outbox log: " +
                           file.status().message());
  Status st = (*file)->Append(Slice(rec.data(), rec.size()));
  // The append is only reported OK once the record — and, for the first
  // record, the log's directory entry — would survive a crash; the caller
  // counts the digest as queued on that basis.
  if (st.ok()) st = (*file)->Sync();
  Status close_st = (*file)->Close();
  if (st.ok()) st = close_st;
  if (st.ok()) st = env_->SyncDir(opts_.dir);
  if (!st.ok())
    return Status::IOError("outbox append failed: " + st.message());
  pending_.push_back(payload);
  return Status::OK();
}

Status DigestOutbox::Ack(size_t count) {
  MutexLock lock(&mu_);
  if (count > pending_.size())
    return Status::InvalidArgument("ack of " + std::to_string(count) +
                                   " exceeds " +
                                   std::to_string(pending_.size()) +
                                   " pending");
  SL_RETURN_IF_ERROR(PersistCursorLocked(log_acked_ + count));
  log_acked_ += count;
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(count));
  if (pending_.empty() && log_acked_ > 0) SL_RETURN_IF_ERROR(CompactLocked());
  return Status::OK();
}

Status DigestOutbox::PersistCursorLocked(uint64_t value) {
  std::vector<uint8_t> doc;
  PutFixed64(&doc, value);
  PutFixed32(&doc, Crc32c(doc.data(), doc.size()));
  std::string tmp = CursorPath() + ".tmp";
  auto file = env_->NewWritableFile(tmp, WritableFileOptions{.truncate = true});
  if (!file.ok()) return file.status();
  Status st = (*file)->Append(Slice(doc.data(), doc.size()));
  if (st.ok()) st = (*file)->Sync();
  Status close_st = (*file)->Close();
  if (st.ok()) st = close_st;
  if (st.ok()) st = env_->RenameFile(tmp, CursorPath());
  if (st.ok()) st = env_->SyncDir(opts_.dir);
  if (!st.ok())
    return Status::IOError("outbox cursor update failed: " + st.message());
  return Status::OK();
}

Status DigestOutbox::CompactLocked() {
  // Reset the cursor FIRST: a crash between the two steps then re-queues
  // already-acknowledged records (safe — uploads are idempotent) instead of
  // silently dropping pending ones.
  SL_RETURN_IF_ERROR(PersistCursorLocked(0));
  std::string tmp = LogPath() + ".tmp";
  auto file = env_->NewWritableFile(tmp, WritableFileOptions{.truncate = true});
  if (!file.ok()) return file.status();
  Status st = (*file)->Sync();
  Status close_st = (*file)->Close();
  if (st.ok()) st = close_st;
  if (st.ok()) st = env_->RenameFile(tmp, LogPath());
  if (st.ok()) st = env_->SyncDir(opts_.dir);
  if (!st.ok())
    return Status::IOError("outbox compaction failed: " + st.message());
  log_acked_ = 0;
  return Status::OK();
}

std::vector<std::string> DigestOutbox::Pending() const {
  MutexLock lock(&mu_);
  return {pending_.begin(), pending_.end()};
}

size_t DigestOutbox::pending_count() const {
  MutexLock lock(&mu_);
  return pending_.size();
}

}  // namespace sqlledger

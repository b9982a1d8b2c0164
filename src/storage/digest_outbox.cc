#include "storage/digest_outbox.h"

#include "storage/wal.h"
#include "util/coding.h"

namespace sqlledger {

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
  auto scan = ReadFrameLog(env_, LogPath(), [&records](Slice payload) {
    records.emplace_back(reinterpret_cast<const char*>(payload.data()),
                         payload.size());
    return Status::OK();
  });
  if (!scan.ok())
    return Status::IOError("cannot read outbox log: " +
                           scan.status().message());
  // A frame that fails its CRC is a torn tail — the append never returned
  // success, so the digest was never considered queued — unless a complete
  // frame header FOLLOWS it, which means mid-log damage.
  if (scan->corrupt_mid_log)
    return Status::Corruption("outbox record " +
                              std::to_string(scan->records) +
                              " fails its CRC mid-log");
  // Truncate the tail away (the WAL-recovery discipline): garbage left in
  // place would sit BETWEEN intact records and the next append and read as
  // mid-log corruption on the replay after that.
  if (scan->has_tail) {
    Status st = env_->TruncateFile(LogPath(), scan->intact_bytes);
    if (!st.ok())
      return Status::IOError("cannot truncate torn outbox tail: " +
                             st.message());
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
  std::vector<uint8_t> frame;
  AppendFrame(Slice(payload), &frame);
  // The append is only reported OK once the record — and, for the first
  // record, the log's directory entry — would survive a crash; the caller
  // counts the digest as queued on that basis.
  Status st = WriteFileSynced(env_, LogPath(), {Slice(frame)},
                              WritableFileOptions{});
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
  Status st = ReplaceFileDurably(env_, CursorPath(), {Slice(doc)},
                                 /*keep_previous=*/false);
  if (!st.ok())
    return Status::IOError("outbox cursor update failed: " + st.message());
  return Status::OK();
}

Status DigestOutbox::CompactLocked() {
  // Reset the cursor FIRST: a crash between the two steps then re-queues
  // already-acknowledged records (safe — uploads are idempotent) instead of
  // silently dropping pending ones.
  SL_RETURN_IF_ERROR(PersistCursorLocked(0));
  Status st = ReplaceFileDurably(env_, LogPath(), {}, /*keep_previous=*/false);
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

// Durable digest outbox (DESIGN.md §9). When the trusted digest store is
// unreachable, generated digests must not be lost or reordered: the upload
// pipeline appends each digest document to this bounded, crash-safe queue
// *before* the first upload attempt, and acknowledges it only after the
// store accepted it. All I/O goes through Env so the same fault-injection
// machinery that exercises the WAL exercises the outbox.
//
// On-disk layout (inside `dir`):
//   outbox.log   the WAL's frame log (AppendFrame/ReadFrameLog in wal.h).
//                Records are write-once — appended, fsynced, never modified.
//   cursor       count of acknowledged records ([fixed64 count][fixed32 crc]),
//                replaced with ReplaceFileDurably.
//
// Crash semantics:
//   - An append is only reported OK after the record is fsynced, so a torn
//     or zero-filled tail can only be a record whose Append never returned
//     success; replay truncates it off the file so a later append never
//     lands after un-replayable garbage. A complete record that fails its
//     CRC with a frame header after it is mid-log damage: Open fails.
//   - The cursor may lag the truth after a crash (a rename that was never
//     made durable rolls back). Replaying an already-uploaded digest is
//     safe because digest-store uploads are idempotent for byte-identical
//     content, so the cursor errs conservatively: corrupt/missing = 0.

#ifndef SQLLEDGER_STORAGE_DIGEST_OUTBOX_H_
#define SQLLEDGER_STORAGE_DIGEST_OUTBOX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace sqlledger {

struct DigestOutboxOptions {
  /// Directory holding the log + cursor; created if absent.
  std::string dir;
  /// nullptr = Env::Default(). Not owned; must outlive the outbox.
  Env* env = nullptr;
  /// Maximum unacknowledged records; Append fails with Busy beyond it. The
  /// bound keeps a long outage from growing the log without limit — the
  /// newest digest always subsumes older ones for protection purposes, so
  /// rejecting new appends is safe. The upload pipeline counts each
  /// rejection in `digest.rejected_total`.
  size_t capacity = 64;
};

/// Bounded durable FIFO of opaque payloads (digest JSON documents).
/// Thread-safe; a background uploader and foreground submitters may share
/// one instance.
class DigestOutbox {
 public:
  /// Opens (or creates) the outbox and replays the log: records past the
  /// acknowledged cursor become the pending queue, in append order. A torn
  /// final record is dropped; corruption anywhere earlier is an error.
  static Result<std::unique_ptr<DigestOutbox>> Open(DigestOutboxOptions opts);

  /// Durably appends one payload. Busy when `capacity` payloads are already
  /// pending.
  Status Append(const std::string& payload);
  /// Durably acknowledges the oldest `count` pending payloads (they reached
  /// the store). Compacts the log once everything is acknowledged.
  Status Ack(size_t count);

  /// Pending payloads, oldest first.
  std::vector<std::string> Pending() const;
  size_t pending_count() const;

 private:
  explicit DigestOutbox(DigestOutboxOptions opts);

  Status Replay() EXCLUDES(mu_);
  Status PersistCursorLocked(uint64_t value) REQUIRES(mu_);
  Status CompactLocked() REQUIRES(mu_);
  std::string LogPath() const { return opts_.dir + "/outbox.log"; }
  std::string CursorPath() const { return opts_.dir + "/cursor"; }

  DigestOutboxOptions opts_;
  Env* env_;  // resolved from opts_.env

  mutable Mutex mu_;
  /// Payloads appended but not yet acknowledged, oldest first.
  std::deque<std::string> pending_ GUARDED_BY(mu_);
  /// Records in outbox.log that are already acknowledged (the cursor).
  uint64_t log_acked_ GUARDED_BY(mu_) = 0;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_STORAGE_DIGEST_OUTBOX_H_

// Write-ahead log. The engine logs at commit time: a committing transaction
// appends one record holding its redo operations plus the ledger commit
// metadata — transaction id, commit timestamp, user, the (block id, ordinal)
// slot assigned in the Database Ledger, and the per-table Merkle roots
// (paper §3.3.2: "the COMMIT log record tracks the block ID and ordinal of
// the transaction within the block to make this information recoverable").
//
// Records are framed as [fixed32 length][fixed32 crc32c][payload]; replay
// stops at the first torn or corrupt record, which is then truncated away.
//
// All file I/O flows through the Env abstraction, so fault-injection tests
// can fail writes/fsyncs and simulate crashes. A failed write or sync
// poisons the writer: once a record may have been lost or torn, no further
// record is ever appended after the hole (the log would replay past the
// gap and silently resurrect a prefix of a later transaction's effects).

#ifndef SQLLEDGER_STORAGE_WAL_H_
#define SQLLEDGER_STORAGE_WAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "crypto/sha256.h"
#include "storage/env.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/status.h"

namespace sqlledger {

/// Kind of a logged row operation.
enum class WalOpType : uint8_t {
  kInsert = 1,  // new_row inserted into table_id
  kUpdate = 2,  // key identified row replaced by new_row (old_row logged for
                // completeness/audit; redo uses new_row)
  kDelete = 3,  // row with key removed
};

/// One redo operation within a committed transaction.
struct WalOp {
  WalOpType type = WalOpType::kInsert;
  uint32_t table_id = 0;
  KeyTuple key;  // clustered key of the affected row
  Row new_row;   // full physical row for insert/update; empty for delete
};

/// A committed transaction's WAL record.
struct WalCommitRecord {
  uint64_t txn_id = 0;
  int64_t commit_ts_micros = 0;
  std::string user_name;
  /// Database Ledger slot assigned at commit (paper §3.3.2). Zero block id
  /// with ordinal 0 is valid (first transaction of block 0).
  uint64_t block_id = 0;
  uint64_t block_ordinal = 0;
  /// (ledger table id, Merkle root over row versions updated by this
  /// transaction in that table), one entry per ledger table touched.
  std::vector<std::pair<uint32_t, Hash256>> table_roots;
  std::vector<WalOp> ops;

  /// Appends the encoded record to `dst` and returns the offset (within
  /// `dst`) of the fixed-width (block id, block ordinal) pair. The group
  /// commit pipeline encodes records before the ledger slot is known and
  /// the leader patches the slot in with PatchSlot.
  size_t EncodeTo(std::vector<uint8_t>* dst) const;
  /// Overwrites the slot pair previously encoded at `slot_offset`.
  static void PatchSlot(std::vector<uint8_t>* buf, size_t slot_offset,
                        uint64_t block_id, uint64_t block_ordinal);
  static Result<WalCommitRecord> Decode(Slice payload);
};

/// Durability knobs.
struct WalOptions {
  /// fsync after every AppendRecord.
  bool sync = false;
  /// Storage environment; nullptr = Env::Default().
  Env* env = nullptr;
};

/// Append-only log file.
class Wal {
 public:
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           WalOptions options);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one framed record. Thread-compatible: callers serialize.
  /// After any failed write/flush/sync the WAL is poisoned and every
  /// subsequent append fails with the original error (sticky), because a
  /// record appended after a hole would replay without its predecessor.
  Status AppendRecord(Slice payload);
  Status AppendCommit(const WalCommitRecord& record);

  /// Appends many framed records as ONE buffered write with ONE trailing
  /// fsync (when options.sync) — the group commit fast path. All-or-nothing
  /// durability for the group: a failed write or sync poisons the WAL and
  /// the error is returned for every record in the batch (none of them may
  /// be treated as committed). An empty batch is a no-op.
  Status AppendBatch(const std::vector<Slice>& payloads);

  /// Attaches latency instrumentation (DESIGN.md §13): wal.append_micros
  /// (buffered write+flush), wal.sync_micros (the trailing fsync) and
  /// wal.syncs_total, resolved from `registry`. Call once right after Open,
  /// before the WAL sees concurrency; nullptr detaches. The registry must
  /// outlive the Wal. With no registry attached, appends never read the
  /// metrics clock.
  void SetMetrics(MetricRegistry* registry);

  /// Rotates the log after a successful checkpoint: the current file moves
  /// to `path + ".prev"` (paired with the just-superseded checkpoint, so
  /// recovery can fall back one checkpoint generation) and a fresh empty
  /// log is created and made durable. Clears any sticky error — every
  /// record the new log will hold postdates the checkpoint.
  Status Reset();

  Status Sync();
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }
  /// Non-OK once a write/sync has failed; all appends return this.
  const Status& sticky_error() const { return sticky_error_; }

  /// Replays every intact record in `path`, invoking `fn` per record.
  /// A torn/corrupt tail is tolerated (replay stops); genuine mid-log
  /// corruption also stops replay but is reported via the returned count
  /// vs. expectations of the caller. Returns the number of records read.
  static Result<uint64_t> Replay(
      const std::string& path,
      const std::function<Status(Slice payload)>& fn, Env* env = nullptr);

 private:
  Wal(std::string path, std::unique_ptr<WritableFile> file, WalOptions options);

  Status Poison(Status error);

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  WalOptions options_;
  Env* env_;
  uint64_t bytes_written_ = 0;
  Status sticky_error_;
  // Optional instrumentation (SetMetrics). Null when detached. Every fsync
  // issued against the log file (per-append, batched group and explicit
  // Sync() calls) counts in wal.syncs_total.
  MetricRegistry* metrics_ = nullptr;
  Histogram* m_append_micros_ = nullptr;  // wal.append_micros
  Histogram* m_sync_micros_ = nullptr;    // wal.sync_micros
  Counter* m_syncs_total_ = nullptr;      // wal.syncs_total
  Counter* m_bytes_total_ = nullptr;      // wal.bytes_total
};

}  // namespace sqlledger

#endif  // SQLLEDGER_STORAGE_WAL_H_

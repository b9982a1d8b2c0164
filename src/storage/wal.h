// Write-ahead log. The engine logs at commit time: a committing transaction
// appends one record holding its redo operations plus the ledger commit
// metadata — transaction id, commit timestamp, user and the (block id,
// ordinal) slot assigned in the Database Ledger (paper §3.3.2: "the COMMIT
// log record tracks the block ID and ordinal of the transaction within the
// block to make this information recoverable").
//
// The record logs only what replay cannot derive. An insert or update logs
// the user row the statement passed, not the stamped version: replay pads
// it as the DML did, with the record's transaction id and a sequence number
// it counts itself. A ledger update or delete logs no history row: replay
// rebuilds it from the row's pre-image and the retiring (transaction id,
// sequence number). The per-table Merkle roots are not logged either:
// replay rebuilds them from the row versions it applies and checks them
// against an 8-byte digest of the roots the commit computed. Ops are
// logged in runs of one type, table and width, each tuple encoded against
// a predecessor (EncodeRowCells), so a cell that repeats the one before it
// costs two bits, and one that keeps its tag logs no tag (an integer logs
// its difference). A record's header is encoded against the header of the
// record before it in the same file (WalHeaderChain): the transaction id
// and timestamp as differences, the user and the slot only when they
// change.
//
// Records are framed as [fixed32 length][fixed32 crc32c][payload], the frame
// log shared with the digest outbox. Recovery replays up to the first frame
// that is torn, zero-length or fails its CRC and truncates the log there: a
// corrupt frame mid-log is dropped with every record after it, not reported.
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

#include "catalog/row.h"
#include "crypto/sha256.h"
#include "storage/env.h"
#include "storage/table_store.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/status.h"

namespace sqlledger {

/// The kind of a WAL record: its payload's first byte. A commit record's
/// body is a WalCommitRecord; a block close's a varint block id. Retired
/// commit record kinds (1, 3, 4, 5 and 6) are refused at replay.
constexpr uint8_t kWalKindBlockClose = 2;
constexpr uint8_t kWalKindCommit = 7;

/// Kind of a logged redo operation.
enum class WalOpType : uint8_t {
  kInsert = 1,        // new_row inserted into table_id
  kUpdate = 2,        // the row with new_row's clustered key replaced by new_row
  kDelete = 3,        // row with key removed
  kDefineTable = 4,   // table_id's catalog entry now matches definition
  kLedgerDelete = 5,  // ledger row with key retired
};

/// A table's whole definition after a schema change. The WAL logs the
/// resulting state rather than the operation, so replaying it twice is
/// harmless. The main store's id is the op's table_id.
struct TableDefinition {
  /// One store's name, schema and index set.
  struct Store {
    std::string name;
    Schema schema;
    std::vector<IndexDef> indexes;

    static Store Of(const TableStore& store);
  };

  uint8_t kind = 0;  // TableKind
  bool dropped = false;
  Store main;  // its name is the table's name
  uint32_t history_table_id = 0;  // 0 = no history store
  Store history;

  /// The stores a change edits alike: main, then history if there is one.
  std::vector<Store*> stores() {
    if (history_table_id == 0) return {&main};
    return {&main, &history};
  }

  void EncodeTo(std::vector<uint8_t>* dst) const;
  static Result<TableDefinition> Decode(Decoder* dec);
};

/// One redo operation within a committed transaction. The tuple of an
/// insert or update is the user row the statement passed (its visible
/// columns, in ordinal order), which replay pads again; that of a delete or
/// ledger delete is the row's clustered key.
///
/// A record logs its op count, then its ops in runs: consecutive row ops
/// of one type, table and tuple width form a run, logged as
/// [type][table_id][count][gap][width] and then each tuple's cells without
/// a count (EncodeRowCells), encoded against the last tuple before it in
/// the record of the same table and width, or against none. A definition
/// op is [4][table_id][definition], a run of its own. An empty tuple is a
/// run of its own too, so every op takes at least one byte.
///
/// A ledger op's sequence numbers are not logged. Replay numbers a
/// record's ledger ops from 0 in log order: an insert takes one, a ledger
/// delete one (its retired version's end sequence) and an update two (it
/// retires its pre-image at the first, UpdateRetireSeq, and installs at the
/// second). A failed statement may have consumed numbers that no logged op
/// took: the next op's `seq_gap` counts them. A nonzero gap starts a run,
/// sets bit 0x80 of its type byte and follows the count as a varint.
struct WalOp {
  WalOpType type = WalOpType::kInsert;
  uint32_t table_id = 0;
  KeyTuple key;  // clustered key of the deleted row; unused otherwise
  Row new_row;   // the user row of an insert or update; empty otherwise
  std::shared_ptr<const TableDefinition> definition = nullptr;  // kDefineTable
  uint64_t seq_gap = 0;  // ledger ops: numbers skipped before this op
};

/// What a commit record's header is encoded against: the header of the
/// commit record before it in the same file. A default chain is the zero
/// state a chain starts from. A writer's first record after Open or a WAL
/// reset sets the chain-start bit and is encoded against the zero state,
/// so each file decodes on its own, and so does the part of a file that a
/// reopened writer appended.
struct WalHeaderChain {
  bool started = false;
  uint64_t txn_id = 0;
  int64_t commit_ts_micros = 0;
  std::string user_name;
  uint64_t block_id = 0;
  uint64_t block_ordinal = 0;
};

/// How a decoded commit record was laid out: whether it starts a header
/// chain, and its bytes by layer, which with the kind byte add up to its
/// payload.
struct WalRecordLayout {
  bool chain_start = false;
  size_t stamp = 0;        // header flags, txn id, commit ts and user name
  size_t slot = 0;         // the block id and ordinal differences
  size_t roots_check = 0;  // the ledger table count and the roots check
  size_t run_headers = 0;  // the op count and every run's header
  std::vector<size_t> tuples;  // per op, its tuple's or definition's bytes
};

/// A committed transaction's WAL record: a header, then the ops. The
/// header is [flags][txn id][commit ts][user][slot][ledger tables][roots
/// check], encoded against a WalHeaderChain: the txn id and the timestamp
/// as zigzag varints of their differences from the chain's, the user
/// (length-prefixed, flag 0x02) only when it is not the chain's, and the
/// slot as zigzag varints of the block id's and ordinal's differences
/// (flag 0x04) only when it is not the chain's: in a database without a
/// ledger every slot is (0, 0), and none is logged. Flag 0x01 marks a
/// chain start.
struct WalCommitRecord {
  uint64_t txn_id = 0;
  int64_t commit_ts_micros = 0;
  std::string user_name;
  /// Database Ledger slot assigned at commit (paper §3.3.2). Zero block id
  /// with ordinal 0 is valid (first transaction of block 0).
  uint64_t block_id = 0;
  uint64_t block_ordinal = 0;
  /// Number of ledger tables the transaction touched. Replay rebuilds each
  /// one's Merkle root from the row versions of `ops`.
  uint32_t ledger_tables = 0;
  /// RootsCheck of the transaction's (table id, root) list, logged only when
  /// ledger_tables > 0. Replay compares the roots it rebuilds against it.
  uint64_t roots_check = 0;
  std::vector<WalOp> ops;

  /// Sets ledger_tables and roots_check from the commit's (table id, root)
  /// list, id-ordered.
  void SetTableRoots(const std::vector<std::pair<uint32_t, Hash256>>& roots);
  /// The first 8 bytes of Sha256 over the encoded list, each entry a varint
  /// table id and the root's 32 bytes.
  static uint64_t RootsCheck(
      const std::vector<std::pair<uint32_t, Hash256>>& roots);

  /// Appends the record's header, encoded against `*chain`, and advances
  /// the chain to this record. Headers chain in log order, so the group
  /// commit leader alone calls it, as it appends (lint rule
  /// `one-record-header`).
  void EncodeChainedHeader(WalHeaderChain* chain,
                           std::vector<uint8_t>* dst) const;
  /// An upper bound on the bytes EncodeChainedHeader appends, against any
  /// chain.
  size_t HeaderBytesBound() const;
  /// Appends `ops` in runs: the part of a record that depends on no other
  /// record, which each committer encodes for itself.
  static void EncodeOps(const std::vector<WalOp>& ops,
                        std::vector<uint8_t>* dst);
  /// An upper bound on the bytes EncodeOps appends, to reserve before
  /// encoding. A table definition's bytes are not counted: a DDL's record
  /// may outgrow it.
  static size_t EncodedOpsBound(const std::vector<WalOp>& ops);
  /// Decodes a record (the payload after its kind byte) against `*chain`,
  /// which it advances. With `layout`, also reports how the record was
  /// laid out.
  static Result<WalCommitRecord> Decode(Slice payload, WalHeaderChain* chain,
                                        WalRecordLayout* layout = nullptr);
};

/// Appends one frame holding `payload`, which must not be empty.
void AppendFrame(Slice payload, std::vector<uint8_t>* dst);

/// What ReadFrameLog found.
struct FrameLogScan {
  uint64_t records = 0;          // intact frames handed to the callback
  uint64_t intact_bytes = 0;     // length of the prefix they cover
  bool has_tail = false;         // bytes follow that prefix
  bool corrupt_mid_log = false;  // the frame that ended the log is complete
                                 // but fails its CRC, and a header follows
};

/// Streams `path` (missing = empty), calling `fn` per intact payload, and
/// stops at the first frame that is torn, fails its CRC or is zero-length:
/// an all-zero header, left when a crash persisted a file's length before
/// its data, passes the CRC of zero bytes. The caller decides whether
/// `corrupt_mid_log` is an error and truncates the tail.
Result<FrameLogScan> ReadFrameLog(
    Env* env, const std::string& path,
    const std::function<Status(Slice payload)>& fn);

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

  /// Appends many framed records as ONE buffered write with ONE trailing
  /// fsync (when options.sync or `force_sync`) — the group commit fast
  /// path. All-or-nothing durability for the group: a failed write or sync
  /// poisons the WAL and the error is returned for every record in the
  /// batch (none of them may be treated as committed). An empty batch is a
  /// no-op.
  Status AppendBatch(const std::vector<Slice>& payloads,
                     bool force_sync = false);

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
  /// log is created and made durable. Without `sync`, the caller syncs the
  /// log first, so the fallback generation is complete. Clears any sticky
  /// error — every record the new log will hold postdates the checkpoint.
  Status Reset();

  Status Sync();
  /// Non-OK once a write/sync has failed; all appends return this.
  const Status& sticky_error() const { return sticky_error_; }

 private:
  Wal(std::string path, std::unique_ptr<WritableFile> file, WalOptions options);

  Status Poison(Status error);

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  WalOptions options_;
  Env* env_;
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

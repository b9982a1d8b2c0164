// stats_tool: exercises the full write / digest / verify pipeline against a
// scratch directory and prints the metrics-registry snapshot as JSON — the
// smoke surface for the observability layer (DESIGN.md §13).
//
//   ./stats_tool [--txns=N] [--sessions=S] [--data-dir=DIR]
//                [--trace-out=FILE]
//
// Runs S concurrent sessions committing N total transactions through the
// durable group-commit pipeline, pushes a digest through the upload
// pipeline's outbox, runs a full verification (seeding the incremental
// watermark) followed by an incremental one, reopens the database, takes a
// checkpoint, then dumps the snapshot. --trace-out additionally writes the
// Chrome trace-event JSON (chrome://tracing / ui.perfetto.dev).
//
// Before the checkpoint the database is closed and reopened, so recovery
// replays the whole run from the WAL: the snapshot's recovery.* metrics
// (checkpoint load and WAL replay apart) and checkpoint.* metrics are the
// reopened database's.
//
// The snapshot gains a "disk" object, read after the database is closed:
// every file's bytes; for each WAL generation its frame bytes, its commit
// records' bytes by layer (kind byte, stamp, slot, roots check, run
// headers, tuples) and its block-close bytes, and tuple bytes per (table
// id, op type); for each checkpoint generation its header, meta and
// per-store bytes. Each generation also counts the DOUBLE cells it writes
// (those not repeated from their predecessor) in the decimal form and raw.
// The files are read only through the engine's readers (ReadFrameLog,
// WalCommitRecord::Decode, ReadCheckpoint, DecodeRow).
//
// It also gains a "memory" object, read from the reopened database after
// its checkpoint: the live row blocks (Row::LiveBlocks), their bytes
// (Row::LiveBytes) and the bytes of the slabs the row block pool carved
// them from (Row::PoolSlabBytes), the library's own count beside a
// malloc-wide heap figure.
//
// The tool self-checks the snapshot: wal.sync_micros p99, the
// commit.group_size histogram, the digest.outbox_depth gauge,
// verify.incremental_micros, recovery.wal_replay_micros and the three
// memory figures must all be populated, and every WAL and checkpoint generation must decode whole,
// with parts that add up to its file's size and commit records that
// encode back to their own bytes, so CI can gate on the exit code.
// 0 = snapshot complete, 1 = setup/verification failure, 3 = a required
// metric is missing or zero, or the disk breakdown does not add up.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "catalog/row.h"
#include "ledger/digest_store.h"
#include "ledger/verifier.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/coding.h"
#include "util/metrics.h"
#include "util/trace.h"

using namespace sqlledger;

namespace {

Schema PayloadSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 64);
  s.AddColumn("amount", DataType::kDouble, false);
  s.SetPrimaryKey({0});
  return s;
}

/// DOUBLE cells written in each form.
struct DoubleCells {
  uint64_t decimal = 0;
  uint64_t raw = 0;

  /// Counts the non-NULL DOUBLE cells of `row` that EncodeRow writes
  /// against `prev` (null, or a predecessor whose cells of the same bytes
  /// are not written when it has `row`'s width).
  void Add(const Row& row, const Row* prev) {
    const bool states = prev != nullptr && prev->size() == row.size();
    Row::Iterator p = states ? prev->begin() : row.begin();
    for (Row::Iterator c = row.begin(); c != row.end(); ++c) {
      const bool repeat = states && c.SameBytes(p);
      if (states) ++p;
      const Cell cell = *c;
      if (repeat || cell.is_null() || cell.type() != DataType::kDouble)
        continue;
      int64_t k;
      (Cell::DecimalOf(cell.double_value(), &k) ? decimal : raw)++;
    }
  }
  void SetIn(JsonValue* out) const;
};

const char* OpName(WalOpType type) {
  switch (type) {
    case WalOpType::kInsert:
      return "insert";
    case WalOpType::kUpdate:
      return "update";
    case WalOpType::kDelete:
      return "delete";
    case WalOpType::kDefineTable:
      return "define_table";
    case WalOpType::kLedgerDelete:
      return "ledger_delete";
  }
  return "unknown";
}

JsonValue Count(uint64_t n) { return JsonValue::Int(static_cast<int64_t>(n)); }

void DoubleCells::SetIn(JsonValue* out) const {
  out->Set("decimal_double_cells", Count(decimal));
  out->Set("raw_double_cells", Count(raw));
}

/// One WAL generation's bytes by layer: frame_bytes + kind_bytes +
/// stamp_bytes + slot_bytes + roots_check_bytes + run_header_bytes +
/// tuple_bytes + block_close_bytes = file_bytes. Every frame must be intact
/// and every commit record, decoded against the file's header chain, must
/// encode back to its own bytes, else `*problem` says why.
JsonValue WalLayers(const std::string& path, uint64_t file_bytes,
                    std::string* problem) {
  uint64_t payload_bytes = 0, commits = 0, block_close_bytes = 0;
  uint64_t stamp = 0, slot = 0, roots_check = 0, run_headers = 0;
  uint64_t tuple_bytes = 0;
  // (table id, op type) -> (tuples, bytes)
  std::map<std::pair<uint32_t, WalOpType>, std::pair<uint64_t, uint64_t>>
      tuples;
  WalHeaderChain read_chain, write_chain;
  WalRecordLayout layout;
  std::vector<uint8_t> again;
  DoubleCells doubles;
  auto scan = ReadFrameLog(Env::Default(), path, [&](Slice payload) {
    payload_bytes += payload.size();
    const Slice body(payload.data() + 1, payload.size() - 1);
    if (payload[0] != kWalKindCommit) {
      block_close_bytes += body.size();
      return Status::OK();
    }
    auto record = WalCommitRecord::Decode(body, &read_chain, &layout);
    if (!record.ok()) return record.status();
    if (layout.chain_start) write_chain = WalHeaderChain{};
    again.clear();
    record->EncodeChainedHeader(&write_chain, &again);
    WalCommitRecord::EncodeOps(record->ops, &again);
    if (Slice(again) != body)
      return Status::Corruption("a commit record does not encode back");
    commits++;
    stamp += layout.stamp;
    slot += layout.slot;
    roots_check += layout.roots_check;
    run_headers += layout.run_headers;
    // A tuple's predecessor: the record's last tuple of its table and width.
    std::map<std::pair<uint32_t, size_t>, const Row*> last;
    for (size_t i = 0; i < record->ops.size(); i++) {
      const WalOp& op = record->ops[i];
      auto& [count, bytes] = tuples[{op.table_id, op.type}];
      count++;
      bytes += layout.tuples[i];
      tuple_bytes += layout.tuples[i];
      if (op.type == WalOpType::kDefineTable) continue;
      const bool keyed = op.type == WalOpType::kDelete ||
                         op.type == WalOpType::kLedgerDelete;
      const Row& tuple = keyed ? op.key : op.new_row;
      const Row*& prev = last[{op.table_id, tuple.size()}];
      doubles.Add(tuple, prev);
      prev = &tuple;
    }
    return Status::OK();
  });
  JsonValue out = JsonValue::Object();
  if (!scan.ok()) {
    *problem = path + ": " + scan.status().ToString();
    return out;
  }
  const uint64_t frame_bytes = scan->intact_bytes - payload_bytes;
  const uint64_t kind_bytes = scan->records;
  const uint64_t layers = frame_bytes + kind_bytes + stamp + slot +
                          roots_check + run_headers + tuple_bytes +
                          block_close_bytes;
  if (scan->has_tail || scan->intact_bytes != file_bytes)
    *problem = path + ": frames cover " + std::to_string(scan->intact_bytes) +
               " of " + std::to_string(file_bytes) + " bytes";
  else if (layers != file_bytes)
    *problem = path + ": layers add up to " + std::to_string(layers) +
               " of " + std::to_string(file_bytes) + " bytes";
  out.Set("file_bytes", Count(file_bytes));
  out.Set("records", Count(scan->records));
  out.Set("commit_records", Count(commits));
  out.Set("frame_bytes", Count(frame_bytes));
  out.Set("kind_bytes", Count(kind_bytes));
  out.Set("stamp_bytes", Count(stamp));
  out.Set("slot_bytes", Count(slot));
  out.Set("roots_check_bytes", Count(roots_check));
  out.Set("run_header_bytes", Count(run_headers));
  out.Set("tuple_bytes", Count(tuple_bytes));
  out.Set("block_close_bytes", Count(block_close_bytes));
  doubles.SetIn(&out);
  JsonValue by_op = JsonValue::Array();
  for (const auto& [key, value] : tuples) {
    JsonValue entry = JsonValue::Object();
    entry.Set("table_id", Count(key.first));
    entry.Set("op", JsonValue::Str(OpName(key.second)));
    entry.Set("tuples", Count(value.first));
    entry.Set("bytes", Count(value.second));
    by_op.Append(std::move(entry));
  }
  out.Set("tuples", std::move(by_op));
  return out;
}

/// One checkpoint generation's bytes: header_bytes + meta_bytes +
/// sections_bytes = file_bytes, and each store's section, every row decoded
/// against the row before it, else `*problem` says why.
JsonValue CheckpointLayers(const std::string& path, uint64_t file_bytes,
                           std::string* problem) {
  JsonValue out = JsonValue::Object();
  auto checkpoint = ReadCheckpoint(path);
  if (!checkpoint.ok()) {
    *problem = path + ": " + checkpoint.status().ToString();
    return out;
  }
  const std::vector<uint8_t>& payload = checkpoint->payload;
  Decoder dec{Slice(payload.data() + checkpoint->stores_offset,
                    payload.size() - checkpoint->stores_offset)};
  DoubleCells doubles;
  auto sections = [&]() -> Result<JsonValue> {
    JsonValue stores = JsonValue::Array();
    auto count = dec.GetVarint32();
    if (!count.ok()) return count.status();
    for (uint32_t s = 0; s < *count; s++) {
      const size_t start = dec.remaining();
      auto table_id = dec.GetVarint32();
      if (!table_id.ok()) return table_id.status();
      auto rows = dec.GetVarint64();
      if (!rows.ok()) return rows.status();
      Row prev;
      for (uint64_t r = 0; r < *rows; r++) {
        auto row = DecodeRow(&dec, r == 0 ? nullptr : &prev);
        if (!row.ok()) return row.status();
        doubles.Add(*row, r == 0 ? nullptr : &prev);
        prev = std::move(*row);
      }
      JsonValue store = JsonValue::Object();
      store.Set("table_id", Count(*table_id));
      store.Set("rows", Count(*rows));
      store.Set("bytes", Count(start - dec.remaining()));
      stores.Append(std::move(store));
    }
    if (!dec.done()) return Status::Corruption("trailing bytes");
    return stores;
  }();
  if (!sections.ok()) {
    *problem = path + ": " + sections.status().ToString();
    return out;
  }
  out.Set("file_bytes", Count(file_bytes));
  out.Set("header_bytes", Count(file_bytes - payload.size()));
  out.Set("meta_bytes", Count(checkpoint->stores_offset));
  // The section count and every store's section.
  out.Set("sections_bytes", Count(payload.size() - checkpoint->stores_offset));
  doubles.SetIn(&out);
  out.Set("stores", std::move(*sections));
  return out;
}

/// The "disk" object for the closed data directory `dir`: every file's
/// bytes, and each WAL and checkpoint generation by layer. Appends to
/// `problems` each generation that does not decode whole.
JsonValue DiskBreakdown(const std::string& dir,
                        std::vector<std::string>* problems) {
  JsonValue files = JsonValue::Object();
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const uint64_t bytes = entry.file_size();
    files.Set(std::filesystem::relative(entry.path(), dir).string(),
              Count(bytes));
    total += bytes;
  }
  JsonValue wal = JsonValue::Object();
  JsonValue checkpoint = JsonValue::Object();
  for (const char* name : {"wal.log", "wal.log.prev"}) {
    const std::string path = dir + "/" + name;
    if (!std::filesystem::exists(path)) continue;
    std::string problem;
    wal.Set(name, WalLayers(path, std::filesystem::file_size(path), &problem));
    if (!problem.empty()) problems->push_back(problem);
  }
  for (const char* name : {"checkpoint.sldb", "checkpoint.sldb.prev"}) {
    const std::string path = dir + "/" + name;
    if (!std::filesystem::exists(path)) continue;
    std::string problem;
    checkpoint.Set(name, CheckpointLayers(
                             path, std::filesystem::file_size(path), &problem));
    if (!problem.empty()) problems->push_back(problem);
  }
  JsonValue disk = JsonValue::Object();
  disk.Set("total_bytes", Count(total));
  disk.Set("files", std::move(files));
  disk.Set("wal", std::move(wal));
  disk.Set("checkpoint", std::move(checkpoint));
  return disk;
}

}  // namespace

int main(int argc, char** argv) {
  int txns = 1200;
  int sessions = 4;
  std::string data_dir;
  std::string trace_out;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--txns=", 7) == 0)
      txns = std::atoi(argv[i] + 7);
    else if (std::strncmp(argv[i], "--sessions=", 11) == 0)
      sessions = std::atoi(argv[i] + 11);
    else if (std::strncmp(argv[i], "--data-dir=", 11) == 0)
      data_dir = argv[i] + 11;
    else if (std::strncmp(argv[i], "--trace-out=", 12) == 0)
      trace_out = argv[i] + 12;
    else {
      std::printf(
          "usage: %s [--txns=N] [--sessions=S] [--data-dir=DIR] "
          "[--trace-out=FILE]\n",
          argv[0]);
      return 64;
    }
  }
  if (sessions < 1) sessions = 1;
  if (data_dir.empty())
    data_dir =
        (std::filesystem::temp_directory_path() / "sl_stats_tool").string();
  std::filesystem::remove_all(data_dir);

  LedgerDatabaseOptions options;
  options.block_size = 256;
  options.database_id = "stats-tool";
  options.sync_wal = true;  // durability on: wal.sync_micros must populate
  options.data_dir = data_dir;
  auto opened = LedgerDatabase::Open(options);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*opened);
  if (!db->CreateTable("t", PayloadSchema(), TableKind::kAppendOnly).ok())
    return 1;

  // Digest protection first, so the outbox-depth gauge tracks the workload.
  InMemoryDigestStore store;
  DigestPipelineOptions popts;
  popts.outbox_dir = data_dir + "/digest_outbox";
  popts.initial_backoff_micros = 0;
  popts.max_backoff_micros = 0;
  popts.jitter = 0;
  if (!db->StartDigestProtection(&store, popts).ok()) return 1;

  const int per_session = txns / sessions;
  const std::string payload(64, 'x');
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; s++) {
    threads.emplace_back([&, s] {
      // Every other row logs an amount of whole cents, the rest the
      // session's running sum of them, which drifts off the grid of
      // hundredths: both DOUBLE forms reach the WAL and the checkpoint.
      double running = 0;
      for (int i = 0; i < per_session; i++) {
        int64_t id = static_cast<int64_t>(s) * per_session + i;
        const double amount = static_cast<double>(id * 37 % 10000) / 100.0;
        running += amount;
        auto txn = db->Begin("stats");
        if (!txn.ok()) std::exit(1);
        Status st = db->Insert(*txn, "t",
                               {Value::BigInt(id), Value::Varchar(payload),
                                Value::Double(i % 2 == 0 ? amount : running)});
        if (st.ok()) st = db->Commit(*txn);
        if (!st.ok()) {
          std::printf("commit failed: %s\n", st.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  if (!db->digest_pipeline()->GenerateAndSubmit().ok()) return 1;
  if (!db->digest_pipeline()->DrainFully().ok()) return 1;

  // Full verification seeds the watermark; the incremental run consumes it.
  auto full = VerifyLedgerAgainstStore(db.get(), store);
  if (!full.ok() || !full->ok()) {
    std::printf("full verification failed\n");
    return 1;
  }
  auto incr = VerifyLedgerAgainstStore(db.get(), store, {},
                                       /*incremental=*/true);
  if (!incr.ok() || !incr->ok()) {
    std::printf("incremental verification failed\n");
    return 1;
  }
  MetricsSnapshot snap = db->MetricsSnapshot();
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << db->tracer()->ToChromeJson().Dump() << "\n";
    std::fprintf(stderr, "wrote trace: %s\n", trace_out.c_str());
  }

  // Reopen: recovery replays every commit record of the run. Its recovery
  // and checkpoint metrics take the place of the first database's, which
  // neither recovered nor checkpointed.
  db.reset();
  auto reopened = LedgerDatabase::Open(options);
  if (!reopened.ok()) {
    std::printf("reopen failed: %s\n", reopened.status().ToString().c_str());
    return 1;
  }
  db = std::move(*reopened);
  // Both WAL and checkpoint generations then hold the run.
  if (!db->Checkpoint().ok()) return 1;
  const MetricsSnapshot recovered = db->MetricsSnapshot();
  for (const auto& [name, hist] : recovered.histograms) {
    if (name.rfind("recovery.", 0) == 0 || name.rfind("checkpoint.", 0) == 0)
      snap.histograms[name] = hist;
  }
  for (const auto& [name, value] : recovered.counters) {
    if (name.rfind("recovery.", 0) == 0 || name.rfind("checkpoint.", 0) == 0)
      snap.counters[name] = value;
  }
  JsonValue memory = JsonValue::Object();
  const int64_t row_blocks = Row::LiveBlocks();
  const int64_t row_block_bytes = Row::LiveBytes();
  const int64_t row_pool_slab_bytes = Row::PoolSlabBytes();
  memory.Set("row_blocks", JsonValue::Int(row_blocks));
  memory.Set("row_block_bytes", JsonValue::Int(row_block_bytes));
  memory.Set("row_pool_slab_bytes", JsonValue::Int(row_pool_slab_bytes));
  db.reset();
  std::vector<std::string> disk_problems;
  JsonValue json = MetricsToJson(snap);
  json.Set("memory", std::move(memory));
  json.Set("disk", DiskBreakdown(data_dir, &disk_problems));
  std::printf("%s\n", json.DumpPretty().c_str());
  std::filesystem::remove_all(data_dir);

  // Self-check: the acceptance metrics must be populated.
  auto hist_count = [&](const char* name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? uint64_t{0} : it->second.count;
  };
  int rc = 0;
  auto require = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "MISSING: %s\n", what);
      rc = 3;
    }
  };
  auto wal_sync = snap.histograms.find("wal.sync_micros");
  require(wal_sync != snap.histograms.end() &&
              wal_sync->second.Percentile(99) > 0,
          "nonzero wal.sync_micros p99");
  require(hist_count("commit.group_size") > 0, "commit.group_size histogram");
  require(snap.gauges.count("digest.outbox_depth") == 1,
          "digest.outbox_depth gauge");
  require(hist_count("verify.incremental_micros") > 0,
          "nonzero verify.incremental_micros");
  require(hist_count("recovery.wal_replay_micros") > 0,
          "recovery.wal_replay_micros histogram");
  require(row_blocks > 0, "nonzero memory.row_blocks");
  require(row_block_bytes > 0, "nonzero memory.row_block_bytes");
  require(row_pool_slab_bytes > 0, "nonzero memory.row_pool_slab_bytes");
  for (const std::string& problem : disk_problems) {
    std::fprintf(stderr, "DISK: %s\n", problem.c_str());
    rc = 3;
  }
  return rc;
}

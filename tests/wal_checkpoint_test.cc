// WAL framing/replay (including torn and corrupt tails) and checkpoint
// round-trips, including payloads that span several encoding chunks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "crypto/sha256.h"
#include "ledger/ledger_database.h"
#include "ledger/verifier.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/coding.h"
#include "util/hex.h"

namespace sqlledger {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sl_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

using WalTest = TempDir;
using CheckpointTest = TempDir;

WalCommitRecord MakeRecord(uint64_t txn_id) {
  WalCommitRecord rec;
  rec.txn_id = txn_id;
  rec.commit_ts_micros = 1000 + static_cast<int64_t>(txn_id);
  rec.user_name = "user" + std::to_string(txn_id);
  rec.block_id = txn_id / 10;
  rec.block_ordinal = txn_id % 10;
  Hash256 root;
  root.bytes[0] = static_cast<uint8_t>(txn_id);
  rec.SetTableRoots({{100, root}});
  WalOp op;
  op.type = WalOpType::kInsert;
  op.table_id = 100;
  op.key = {Value::BigInt(static_cast<int64_t>(txn_id))};
  op.new_row = {Value::BigInt(static_cast<int64_t>(txn_id)),
                Value::Varchar("payload")};
  rec.ops.push_back(op);
  return rec;
}

// Appends one commit record to `wal` as a frame, the way the commit path
// does.
Status AppendCommit(Wal* wal, const WalCommitRecord& record) {
  std::vector<uint8_t> payload;
  record.EncodeTo(&payload);
  return wal->AppendRecord(Slice(payload));
}

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  WalCommitRecord rec = MakeRecord(7);
  rec.ops.push_back(WalOp{WalOpType::kDelete, 101,
                          {Value::BigInt(9)},
                          {}});
  rec.ops.push_back(WalOp{WalOpType::kUpdate, 102,
                          {Value::BigInt(1)},
                          {Value::BigInt(1), Value::Varchar("new")}});
  WalOp ledger_delete{WalOpType::kLedgerDelete, 103, {Value::BigInt(4)}, {}};
  ledger_delete.seq_gap = 300;
  rec.ops.push_back(ledger_delete);
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  auto decoded = WalCommitRecord::Decode(Slice(buf));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->txn_id, 7u);
  EXPECT_EQ(decoded->user_name, "user7");
  EXPECT_EQ(decoded->block_ordinal, 7u);
  EXPECT_EQ(decoded->ledger_tables, 1u);
  EXPECT_EQ(decoded->roots_check, rec.roots_check);
  ASSERT_EQ(decoded->ops.size(), 4u);
  EXPECT_EQ(decoded->ops[1].type, WalOpType::kDelete);
  EXPECT_EQ(decoded->ops[2].new_row[1].string_value(), "new");
  EXPECT_EQ(decoded->ops[3].type, WalOpType::kLedgerDelete);
  EXPECT_EQ(decoded->ops[3].key, KeyTuple{Value::BigInt(4)});
  EXPECT_EQ(decoded->ops[3].seq_gap, 300u);
}

TEST(WalRecordTest, DecodeRejectsTruncation) {
  WalCommitRecord rec = MakeRecord(7);
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  for (size_t cut : {size_t{1}, size_t{8}, buf.size() / 2, buf.size() - 1}) {
    auto decoded = WalCommitRecord::Decode(Slice(buf.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

// A commit record's bytes are pinned: one ledger table's roots check, one
// insert, one update, one delete and two ledger deletes. An insert or
// update logs only the user row (the update's key is not written: the row
// holds it); a delete logs only its key. Each tuple is encoded against the
// last tuple of its table and width before it: the update's row repeats
// the insert's id (state 0) and logs its new VARCHAR without a tag (state
// 1), and the second ledger delete's key logs its id as the difference
// from the first's (state 1). The first ledger delete follows three
// sequence numbers a failed statement took.
TEST(WalRecordTest, GoldenBytes) {
  WalCommitRecord rec;
  rec.txn_id = 5;
  rec.commit_ts_micros = 1600000000000000;
  rec.user_name = "app";
  rec.block_id = 2;
  rec.block_ordinal = 1;
  Hash256 root;
  for (size_t i = 0; i < root.bytes.size(); i++)
    root.bytes[i] = static_cast<uint8_t>(i);
  rec.SetTableRoots({{100, root}});
  rec.ops.push_back(WalOp{WalOpType::kInsert, 100, {},
                          {Value::BigInt(1), Value::Varchar("a")}});
  rec.ops.push_back(WalOp{WalOpType::kUpdate, 100, {},
                          {Value::BigInt(1), Value::Varchar("b")}});
  rec.ops.push_back(WalOp{WalOpType::kDelete, 101, {Value::BigInt(-1)}, {}});
  WalOp ledger_delete{WalOpType::kLedgerDelete, 100, {Value::BigInt(1)}, {}};
  ledger_delete.seq_gap = 3;
  rec.ops.push_back(ledger_delete);
  rec.ops.push_back(
      WalOp{WalOpType::kLedgerDelete, 100, {Value::BigInt(2)}, {}});
  std::vector<uint8_t> buf;
  EXPECT_EQ(rec.EncodeTo(&buf), 13u);  // the slot follows ts and user
  EXPECT_EQ(HexEncode(Slice(buf)),
            "05"                  // txn id varint
            "0000a40731af0500"    // commit ts fixed64 0x5af3107a40000
            "03617070"            // user 'app', length-prefixed
            "0200000000000000"    // block id fixed64 (patchable slot)
            "0100000000000000"    // block ordinal fixed64
            "01"                  // one ledger table
            "d78e6347dd22a57a"    // SHA-256(64 00 01 .. 1f)[0..8]
            "05"                  // five ops
            "01" "64"             // INSERT into table 100
            "02" "0402" "060161"  //   row: BIGINT 1, VARCHAR 'a'
            "02" "64"             // UPDATE in table 100
            "02" "04" "0162"      //   row: states 0 1, 'b' with no tag
            "03" "65"             // DELETE from table 101
            "01" "0401"           //   key: BIGINT -1
            "85" "64" "03"        // ledger DELETE from table 100, gap 3
            "01" "0402"           //   key: BIGINT 1 (no 1-cell predecessor)
            "05" "64"             // ledger DELETE from table 100
            "01" "01" "02");      //   key: state 1, BIGINT 2 = 1 + 1
  auto decoded = WalCommitRecord::Decode(Slice(buf));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->ledger_tables, 1u);
  EXPECT_EQ(decoded->roots_check, WalCommitRecord::RootsCheck({{100, root}}));
  ASSERT_EQ(decoded->ops.size(), 5u);
  EXPECT_TRUE(decoded->ops[1].key.empty());
  EXPECT_EQ(decoded->ops[1].new_row,
            (Row{Value::BigInt(1), Value::Varchar("b")}));
  EXPECT_EQ(decoded->ops[2].key, KeyTuple{Value::BigInt(-1)});
  EXPECT_TRUE(decoded->ops[2].new_row.empty());
  EXPECT_EQ(decoded->ops[3].seq_gap, 3u);
  EXPECT_EQ(decoded->ops[4].seq_gap, 0u);
  EXPECT_EQ(decoded->ops[4].key, KeyTuple{Value::BigInt(2)});

  // A record that touches no ledger table logs a zero count and no check.
  rec.SetTableRoots({});
  buf.clear();
  rec.EncodeTo(&buf);
  EXPECT_EQ(HexEncode(Slice(buf)).substr(2 * 29, 4), "0005");
}

// The commit reserves EncodedBytesBound before encoding; the bound holds for
// widest-case cells (+0.0 DOUBLEs, 8-byte integers), a sequence gap and
// varints at their widest.
TEST(WalRecordTest, EncodedBytesBoundCoversTheRecord) {
  WalCommitRecord rec = MakeRecord(~uint64_t{0});
  rec.user_name = std::string(300, 'u');
  WalOp wide{WalOpType::kInsert, ~uint32_t{0}, {},
             Row(std::vector<Value>(40, Value::Double(0.0)))};
  wide.seq_gap = ~uint64_t{0};
  rec.ops.push_back(wide);
  rec.ops.push_back(WalOp{WalOpType::kUpdate, 7, {},
                          {Value::BigInt(INT64_MIN), Value::Varchar("")}});
  rec.ops.push_back(WalOp{WalOpType::kDelete, 7, {Value::BigInt(1)}, {}});
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  EXPECT_LE(buf.size(), rec.EncodedBytesBound(rec.ops));
}

// A nonzero ledger table count must be followed by the 8-byte roots check.
TEST(WalRecordTest, DecodeRejectsMissingRootsCheck) {
  WalCommitRecord rec = MakeRecord(7);
  std::vector<uint8_t> buf;
  size_t slot = rec.EncodeTo(&buf);
  buf.resize(slot + 16);  // keep the header through the slot
  buf.push_back(1);       // one ledger table
  for (int i = 0; i < 7; i++) {
    buf.push_back(0);
    EXPECT_TRUE(WalCommitRecord::Decode(Slice(buf)).status().IsCorruption());
  }
}

// An op count larger than the record's remaining bytes could hold is
// rejected before anything is reserved (it used to abort with bad_alloc).
TEST(WalRecordTest, DecodeRejectsOpCountBeyondRecord) {
  WalCommitRecord rec = MakeRecord(7);
  rec.ops.clear();
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  buf.pop_back();  // the zero op count
  for (uint8_t b : {0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) buf.push_back(b);
  EXPECT_TRUE(WalCommitRecord::Decode(Slice(buf)).status().IsCorruption());
}

TEST_F(WalTest, AppendAndReplay) {
  auto wal = Wal::Open(Path("wal.log"), WalOptions{});
  ASSERT_TRUE(wal.ok());
  for (uint64_t i = 0; i < 20; i++) {
    ASSERT_TRUE(AppendCommit(wal->get(), MakeRecord(i)).ok());
  }
  (*wal).reset();

  uint64_t seen = 0;
  auto count =
      ReadFrameLog(Env::Default(), Path("wal.log"), [&](Slice payload) {
        auto rec = WalCommitRecord::Decode(payload);
        EXPECT_TRUE(rec.ok());
        EXPECT_EQ(rec->txn_id, seen);
        seen++;
        return Status::OK();
      });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->records, 20u);
}

TEST_F(WalTest, ReplayOfMissingFileIsEmpty) {
  auto count = ReadFrameLog(Env::Default(), Path("nonexistent.log"),
                            [](Slice) { return Status::OK(); });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->records, 0u);
}

TEST_F(WalTest, TornTailIsTolerated) {
  {
    auto wal = Wal::Open(Path("wal.log"), WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 5; i++)
      ASSERT_TRUE(AppendCommit(wal->get(), MakeRecord(i)).ok());
  }
  // Chop bytes off the end, simulating a crash mid-write.
  auto size = std::filesystem::file_size(Path("wal.log"));
  std::filesystem::resize_file(Path("wal.log"), size - 3);

  uint64_t seen = 0;
  auto count = ReadFrameLog(Env::Default(), Path("wal.log"), [&](Slice) {
    seen++;
    return Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->records, 4u);  // last record torn away
}

TEST_F(WalTest, TornTailToleratedAtEveryByteOffset) {
  // Write a multi-record log, then simulate a crash tearing the FINAL
  // record at every possible byte boundary — mid-header, mid-length,
  // mid-CRC, every prefix of the payload. Replay must always return
  // exactly the four intact records, never an error, never a fifth.
  {
    auto wal = Wal::Open(Path("wal.log"), WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 5; i++)
      ASSERT_TRUE(AppendCommit(wal->get(), MakeRecord(i)).ok());
  }
  std::vector<uint8_t> last_payload;
  MakeRecord(4).EncodeTo(&last_payload);
  const size_t last_frame = 8 + last_payload.size();
  const size_t full_size = std::filesystem::file_size(Path("wal.log"));
  ASSERT_GT(full_size, last_frame);
  const size_t last_start = full_size - last_frame;

  for (size_t cut = last_start; cut <= full_size; cut++) {
    std::filesystem::copy_file(
        Path("wal.log"), Path("torn.log"),
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(Path("torn.log"), cut);
    uint64_t seen = 0;
    auto count = ReadFrameLog(Env::Default(), Path("torn.log"), [&](Slice) {
      seen++;
      return Status::OK();
    });
    ASSERT_TRUE(count.ok()) << "cut at byte " << cut << ": "
                            << count.status().ToString();
    EXPECT_EQ(count->records, cut == full_size ? 5u : 4u)
        << "cut at byte " << cut;
  }
}

TEST_F(WalTest, CorruptRecordStopsReplay) {
  {
    auto wal = Wal::Open(Path("wal.log"), WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 5; i++)
      ASSERT_TRUE(AppendCommit(wal->get(), MakeRecord(i)).ok());
  }
  // Flip a byte in the middle of the file (inside record payloads).
  std::fstream f(Path("wal.log"),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);
  char byte;
  f.seekg(40);
  f.get(byte);
  f.seekp(40);
  f.put(static_cast<char>(byte ^ 0xFF));
  f.close();

  uint64_t seen = 0;
  auto count = ReadFrameLog(Env::Default(), Path("wal.log"), [&](Slice) {
    seen++;
    return Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_LT(count->records, 5u);  // replay stopped at the corrupt record
}

TEST_F(WalTest, ResetTruncates) {
  auto wal = Wal::Open(Path("wal.log"), WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(AppendCommit(wal->get(), MakeRecord(1)).ok());
  ASSERT_TRUE((*wal)->Reset().ok());
  ASSERT_TRUE(AppendCommit(wal->get(), MakeRecord(2)).ok());
  (*wal).reset();

  std::vector<uint64_t> ids;
  ASSERT_TRUE(
      ReadFrameLog(Env::Default(), Path("wal.log"), [&](Slice payload) {
        auto rec = WalCommitRecord::Decode(payload);
        ids.push_back(rec->txn_id);
        return Status::OK();
      }).ok());
  EXPECT_EQ(ids, (std::vector<uint64_t>{2}));
}

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, true);
  s.SetPrimaryKey({0});
  return s;
}

TEST_F(CheckpointTest, RoundTripTablesAndMeta) {
  TableStore t1(100, "accounts", TwoColSchema());
  for (int64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(
        t1.Insert({Value::BigInt(i), Value::Varchar("row" + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(t1.CreateIndex("by_payload", {1}, false).ok());
  TableStore t2(101, "empty", TwoColSchema());

  std::string meta = "catalog-meta-blob";
  ASSERT_TRUE(
      WriteCheckpoint(Path("ckpt"), Slice(meta), {&t1, &t2}).ok());

  auto loaded = ReadCheckpoint(Path("ckpt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(std::string(loaded->meta.begin(), loaded->meta.end()), meta);
  TableStore l1(100, "accounts", TwoColSchema());
  ASSERT_TRUE(l1.CreateIndex("by_payload", {1}, false).ok());
  TableStore l2(101, "empty", TwoColSchema());
  ASSERT_TRUE(LoadCheckpointStores(*loaded, {{100, &l1}, {101, &l2}}).ok());
  EXPECT_EQ(l1.row_count(), 50u);
  EXPECT_EQ(l1.indexes()[0]->tree.size(), 50u);
  EXPECT_EQ(l2.row_count(), 0u);

  const Row* row = l1.Get({Value::BigInt(7)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].string_value(), "row7");
}

// The checkpoint file's bytes are pinned: a fixed two-table store, one
// table with a secondary index and a mix of NULL, empty and non-empty
// cells, and every cell state: a hidden cell that repeats its
// predecessor's in every other row (state 0), ids, strings and DOUBLEs
// that change (state 1) and names that turn NULL and back (state 2). Any
// change to the header, the section or the row encoding moves the hash; a
// store's schema and indexes are not in its section (SLCKPT05), so they
// do not.
TEST_F(CheckpointTest, GoldenFileSha256) {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("name", DataType::kVarchar, true, 16);
  s.AddColumn("score", DataType::kDouble, true);
  s.AddColumn("sys", DataType::kBigInt, true, 0, /*hidden=*/true);
  s.SetPrimaryKey({0});
  TableStore t1(7, "people", s);
  for (int64_t i = 0; i < 6; i++) {
    ASSERT_TRUE(t1.Insert({Value::BigInt(i),
                           i % 3 == 0 ? Value::Null(DataType::kVarchar)
                                      : Value::Varchar(std::string(i, 'n')),
                           Value::Double(0.5 * static_cast<double>(i)),
                           Value::BigInt(100 + i / 2)})
                    .ok());
  }
  ASSERT_TRUE(t1.CreateIndex("by_name", {1}, false).ok());
  TableStore t2(8, "flags", TwoColSchema());
  ASSERT_TRUE(t2.Insert({Value::BigInt(-1), Value::Varchar("")}).ok());
  ASSERT_TRUE(t2.Insert({Value::BigInt(2), Value::Varchar("on")}).ok());

  ASSERT_TRUE(WriteCheckpoint(Path("ckpt"), Slice(std::string("meta")),
                              {&t1, &t2})
                  .ok());
  std::ifstream in(Path("ckpt"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(Sha256::Digest(Slice(bytes)).ToHex(),
            "ab2b4d9e5f51678fc9cf9303fb6e2979e7d2a6aa563df414125da990d204d9fc");
}

// A section whose rows no store takes, or does not take, fails the load as
// Corruption: rows of an id the caller defined no store for, a second
// section of one store (a duplicate key), a row the store's schema
// refuses.
TEST_F(CheckpointTest, SectionThatDoesNotLoadIsCorruption) {
  TableStore t1(100, "t", TwoColSchema());
  ASSERT_TRUE(t1.Insert({Value::BigInt(1), Value::Varchar("x")}).ok());
  ASSERT_TRUE(WriteCheckpoint(Path("twice"), Slice(std::string("m")),
                              {&t1, &t1})
                  .ok());
  ASSERT_TRUE(
      WriteCheckpoint(Path("ckpt"), Slice(std::string("m")), {&t1}).ok());
  auto twice = ReadCheckpoint(Path("twice"));
  auto once = ReadCheckpoint(Path("ckpt"));
  ASSERT_TRUE(twice.ok() && once.ok());

  TableStore other(101, "u", TwoColSchema());
  EXPECT_TRUE(LoadCheckpointStores(*once, {{101, &other}}).IsCorruption());
  TableStore target(100, "t", TwoColSchema());
  Status st = LoadCheckpointStores(*twice, {{100, &target}});
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("duplicate primary key"), std::string::npos);
  Schema one_col;
  one_col.AddColumn("id", DataType::kBigInt, false);
  one_col.SetPrimaryKey({0});
  TableStore narrow(100, "t", one_col);
  EXPECT_TRUE(LoadCheckpointStores(*once, {{100, &narrow}}).IsCorruption());
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  EXPECT_TRUE(ReadCheckpoint(Path("nope")).status().IsNotFound());
}

TEST_F(CheckpointTest, CorruptionDetected) {
  TableStore t1(100, "t", TwoColSchema());
  ASSERT_TRUE(t1.Insert({Value::BigInt(1), Value::Varchar("x")}).ok());
  ASSERT_TRUE(WriteCheckpoint(Path("ckpt"), Slice(std::string("m")), {&t1}).ok());

  std::fstream f(Path("ckpt"), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-2, std::ios::end);
  f.put('\xAA');
  f.close();

  EXPECT_TRUE(ReadCheckpoint(Path("ckpt")).status().IsCorruption());
}

// Magic, fixed64 payload length, fixed32 payload CRC.
constexpr uint64_t kCheckpointHeaderBytes = 8 + 8 + 4;

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Each chunk boundary strictly inside a file of `file_size` bytes, and one
// byte either side of it.
std::vector<uint64_t> CutsAroundChunkBoundaries(uint64_t file_size) {
  std::vector<uint64_t> cuts;
  for (uint64_t b = kCheckpointHeaderBytes + kCheckpointChunkBytes;
       b < file_size; b += kCheckpointChunkBytes) {
    for (uint64_t cut : {b - 1, b, b + 1})
      if (cut < file_size) cuts.push_back(cut);
  }
  return cuts;
}

// 29 rows of 64 KiB and one of 1.5 chunks, about 3.3 MiB: the payload spans
// four chunks and one row is larger than a chunk.
std::string ChunkTestPayload(int64_t id) {
  const size_t len = id == 0 ? kCheckpointChunkBytes * 3 / 2 : size_t{64} << 10;
  return std::string(len, static_cast<char>('a' + id % 26));
}
constexpr int64_t kChunkTestRows = 30;

std::unique_ptr<TableStore> MakeWideTable() {
  auto table = std::make_unique<TableStore>(100, "wide", TwoColSchema());
  for (int64_t i = 0; i < kChunkTestRows; i++) {
    EXPECT_TRUE(
        table->Insert({Value::BigInt(i), Value::Varchar(ChunkTestPayload(i))})
            .ok());
  }
  return table;
}

TEST_F(CheckpointTest, PayloadSpanningChunksRoundTrips) {
  std::unique_ptr<TableStore> t1 = MakeWideTable();
  ASSERT_TRUE(t1->CreateIndex("by_payload", {1}, false).ok());
  TableStore t2(101, "after", TwoColSchema());
  ASSERT_TRUE(t2.Insert({Value::BigInt(7), Value::Varchar("tail")}).ok());

  const std::string meta = "meta";
  ASSERT_TRUE(
      WriteCheckpoint(Path("ckpt"), Slice(meta), {t1.get(), &t2}).ok());
  const std::string bytes = FileBytes(Path("ckpt"));
  ASSERT_GT(bytes.size(), kCheckpointHeaderBytes + 3 * kCheckpointChunkBytes);

  // The header's CRC covers the payload as one buffer.
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
  Decoder dec(Slice(data + 8, 12));
  EXPECT_EQ(*dec.GetFixed64(), bytes.size() - kCheckpointHeaderBytes);
  EXPECT_EQ(*dec.GetFixed32(),
            Crc32c(data + kCheckpointHeaderBytes,
                   bytes.size() - kCheckpointHeaderBytes));

  auto loaded = ReadCheckpoint(Path("ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(std::string(loaded->meta.begin(), loaded->meta.end()), meta);
  TableStore l1(100, "wide", TwoColSchema());
  TableStore l2(101, "after", TwoColSchema());
  ASSERT_TRUE(LoadCheckpointStores(*loaded, {{100, &l1}, {101, &l2}}).ok());
  ASSERT_EQ(l1.row_count(), static_cast<uint64_t>(kChunkTestRows));
  for (int64_t i = 0; i < kChunkTestRows; i++) {
    const Row* row = l1.Get({Value::BigInt(i)});
    ASSERT_NE(row, nullptr) << i;
    EXPECT_EQ((*row)[1].string_value(), ChunkTestPayload(i)) << i;
  }
  const Row* tail = l2.Get({Value::BigInt(7)});
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ((*tail)[1].string_value(), "tail");
}

TEST_F(CheckpointTest, TruncationAtChunkBoundariesIsCorruption) {
  std::unique_ptr<TableStore> t1 = MakeWideTable();
  ASSERT_TRUE(
      WriteCheckpoint(Path("ckpt"), Slice(std::string("m")), {t1.get()})
          .ok());
  const std::string bytes = FileBytes(Path("ckpt"));
  const std::vector<uint64_t> cuts = CutsAroundChunkBoundaries(bytes.size());
  ASSERT_GE(cuts.size(), 9u);
  for (uint64_t cut : cuts) {
    WriteBytes(Path("torn"), bytes.substr(0, cut));
    EXPECT_TRUE(ReadCheckpoint(Path("torn")).status().IsCorruption())
        << "cut at " << cut;
  }
}

// A database whose newest checkpoint spans several chunks, torn at each
// chunk boundary (and a byte either side), reopens from the `.prev`
// generation plus wal.log.prev and the live WAL, with every row intact and
// the ledger verifying.
TEST_F(CheckpointTest, TornChunkedCheckpointFallsBackToPreviousGeneration) {
  auto options_for = [](const std::string& dir) {
    LedgerDatabaseOptions options;
    options.data_dir = dir;
    options.database_id = "chunkdb";
    options.block_size = 4;
    auto clock = std::make_shared<int64_t>(1000000);
    options.clock = [clock] { return ++*clock; };
    return options;
  };
  auto insert = [](LedgerDatabase* db, int64_t id) {
    auto txn = db->Begin("app");
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Insert(*txn, "t",
                           {Value::BigInt(id),
                            Value::Varchar(ChunkTestPayload(id))})
                    .ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
  };
  const std::string pristine = Path("pristine");
  {
    auto db = LedgerDatabase::Open(options_for(pristine));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(
        (*db)->CreateTable("t", TwoColSchema(), TableKind::kUpdateable).ok());
    for (int64_t i = 0; i < 4; i++) insert(db->get(), i);
    ASSERT_TRUE((*db)->Checkpoint().ok());  // superseded -> .prev
    for (int64_t i = 4; i < kChunkTestRows; i++) insert(db->get(), i);
    ASSERT_TRUE((*db)->Checkpoint().ok());  // the generation we tear
    insert(db->get(), kChunkTestRows);
    // crash
  }
  const std::string ckpt = pristine + "/checkpoint.sldb";
  const std::string bytes = FileBytes(ckpt);
  ASSERT_GT(bytes.size(), kCheckpointHeaderBytes + 3 * kCheckpointChunkBytes);
  const std::vector<uint64_t> cuts = CutsAroundChunkBoundaries(bytes.size());
  ASSERT_GE(cuts.size(), 9u);
  for (uint64_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const std::string dir = Path("torn");
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir,
                          std::filesystem::copy_options::recursive);
    WriteBytes(dir + "/checkpoint.sldb", bytes.substr(0, cut));
    ASSERT_TRUE(
        ReadCheckpoint(dir + "/checkpoint.sldb").status().IsCorruption());

    auto db = LedgerDatabase::Open(options_for(dir));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto txn = (*db)->Begin("app");
    ASSERT_TRUE(txn.ok());
    auto rows = (*db)->Scan(*txn, "t");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), static_cast<size_t>(kChunkTestRows + 1));
    auto big = (*db)->Get(*txn, "t", {Value::BigInt(0)});
    ASSERT_TRUE(big.ok());
    EXPECT_EQ((*big)[1].string_value(), ChunkTestPayload(0));
    ASSERT_TRUE((*db)->Commit(*txn).ok());
    auto digest = (*db)->GenerateDigest();
    ASSERT_TRUE(digest.ok());
    auto report = VerifyLedger(db->get(), {*digest});
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << report->Summary();
  }
}

TEST_F(CheckpointTest, SchemaRoundTripPreservesFlags) {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("gone", DataType::kInt, true);
  s.mutable_column(1)->dropped = true;
  s.AddColumn("sys", DataType::kBigInt, true, 0, true);
  s.SetPrimaryKey({0});

  std::vector<uint8_t> buf;
  EncodeSchema(s, &buf);
  Decoder dec{Slice(buf)};
  auto decoded = DecodeSchema(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_columns(), 3u);
  EXPECT_TRUE(decoded->column(1).dropped);
  EXPECT_TRUE(decoded->column(2).hidden);
  EXPECT_EQ(decoded->column(1).column_id, 2u);
  EXPECT_EQ(decoded->key_ordinals(), (std::vector<size_t>{0}));
  EXPECT_EQ(decoded->next_column_id(), s.next_column_id());
}

}  // namespace
}  // namespace sqlledger

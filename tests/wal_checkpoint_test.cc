// WAL framing/replay (including torn and corrupt tails) and checkpoint
// round-trips, including payloads that span several encoding chunks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "crypto/sha256.h"
#include "ledger/ledger_database.h"
#include "ledger/verifier.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "test_util.h"
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

// Appends one commit record to `wal` as a frame, its header encoded
// against `*chain`.
Status AppendCommit(Wal* wal, WalHeaderChain* chain,
                    const WalCommitRecord& record) {
  std::vector<uint8_t> payload;
  EncodeCommitRecord(record, chain, &payload);
  return wal->AppendRecord(Slice(payload));
}

// `record` encoded as the start of a header chain.
std::vector<uint8_t> EncodeAlone(const WalCommitRecord& record) {
  WalHeaderChain chain;
  std::vector<uint8_t> buf;
  EncodeCommitRecord(record, &chain, &buf);
  return buf;
}

Result<WalCommitRecord> DecodeAlone(Slice body) {
  WalHeaderChain chain;
  return WalCommitRecord::Decode(body, &chain);
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
  auto decoded = DecodeAlone(Slice(EncodeAlone(rec)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->txn_id, 7u);
  EXPECT_EQ(decoded->commit_ts_micros, 1007);
  EXPECT_EQ(decoded->user_name, "user7");
  EXPECT_EQ(decoded->block_id, 0u);
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
  const std::vector<uint8_t> buf = EncodeAlone(MakeRecord(7));
  for (size_t cut : {size_t{1}, size_t{8}, buf.size() / 2, buf.size() - 1}) {
    auto decoded = DecodeAlone(Slice(buf.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

// A commit record's bytes are pinned: the start of a header chain, one
// ledger table's roots check, and ops in four runs. An insert or update
// logs only the user row (the update's key is not written: the row holds
// it); a delete logs only its key. Each run is [type][table][count][gap]
// [width], and each tuple is its cells, encoded against the last tuple of
// its table and width before it: the update's row repeats the insert's id
// (state 0) and logs its new VARCHAR without a tag (state 1), and the
// second ledger delete's key logs its id as the difference from the
// first's (state 1). The first ledger delete follows three sequence
// numbers a failed statement took, which starts a run.
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
  rec.ops.push_back(
      WalOp{WalOpType::kInsert, 100, {},
            {Value::BigInt(1), Value::Varchar("a"), Value::Double(0.1 + 0.2)}});
  rec.ops.push_back(
      WalOp{WalOpType::kUpdate, 100, {},
            {Value::BigInt(1), Value::Varchar("b"), Value::Double(12.34)}});
  rec.ops.push_back(WalOp{WalOpType::kDelete, 101, {Value::BigInt(-1)}, {}});
  WalOp ledger_delete{WalOpType::kLedgerDelete, 100, {Value::BigInt(1)}, {}};
  ledger_delete.seq_gap = 3;
  rec.ops.push_back(ledger_delete);
  rec.ops.push_back(
      WalOp{WalOpType::kLedgerDelete, 100, {Value::BigInt(2)}, {}});
  const std::vector<uint8_t> buf = EncodeAlone(rec);
  EXPECT_EQ(HexEncode(Slice(buf)),
            "07"                  // flags: chain start, user, slot follow
            "0a"                  // txn id 5 - 0, zigzag
            "8080a0faa0ccd705"    // commit ts 1600000000000000 - 0, zigzag
            "03617070"            // user 'app', length-prefixed
            "04" "02"             // block id +2, ordinal +1, zigzag
            "01"                  // one ledger table
            "d78e6347dd22a57a"    // SHA-256(64 00 01 .. 1f)[0..8]
            "05"                  // five ops, in four runs
            "01" "64" "01" "03"   // INSERT into table 100: 1 tuple, 3 cells
            "0402" "060161"       //   BIGINT 1, VARCHAR 'a',
            "05343333333333d33f"  //   DOUBLE 0.1 + 0.2, off the grid: raw
            "02" "64" "01" "03"   // UPDATE in table 100: 1 tuple, 3 cells
            "34" "0162"           //   states 0 1 3, 'b' with no tag,
            "a413"                //   DOUBLE 12.34: zigzag(1234), no tag
            "03" "65" "01" "01"   // DELETE from table 101: 1 tuple, 1 cell
            "0401"                //   BIGINT -1
            "85" "64" "02" "03"   // ledger DELETE from table 100: 2 tuples,
            "01"                  //   gap 3, 1 cell
            "0402"                //   BIGINT 1 (no 1-cell predecessor)
            "01" "02");           //   state 1, BIGINT 2 = 1 + 1
  auto decoded = DecodeAlone(Slice(buf));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->ledger_tables, 1u);
  EXPECT_EQ(decoded->roots_check, WalCommitRecord::RootsCheck({{100, root}}));
  EXPECT_EQ(decoded->block_id, 2u);
  EXPECT_EQ(decoded->block_ordinal, 1u);
  ASSERT_EQ(decoded->ops.size(), 5u);
  EXPECT_TRUE(decoded->ops[1].key.empty());
  EXPECT_EQ(decoded->ops[1].new_row,
            (Row{Value::BigInt(1), Value::Varchar("b"), Value::Double(12.34)}));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->ops[0].new_row[2].double_value()),
            std::bit_cast<uint64_t>(0.1 + 0.2));
  EXPECT_EQ(decoded->ops[2].key, KeyTuple{Value::BigInt(-1)});
  EXPECT_TRUE(decoded->ops[2].new_row.empty());
  EXPECT_EQ(decoded->ops[3].seq_gap, 3u);
  EXPECT_EQ(decoded->ops[4].seq_gap, 0u);
  EXPECT_EQ(decoded->ops[4].key, KeyTuple{Value::BigInt(2)});

  // A record that touches no ledger table logs a zero count and no check.
  rec.SetTableRoots({});
  EXPECT_EQ(HexEncode(Slice(EncodeAlone(rec))).substr(2 * 16, 4), "0005");
}

// Three records of one chain, each header against the one before: the
// second commits 5 us before the first (a negative timestamp difference)
// at the next ordinal, and the third changes the user and keeps the slot.
// The ops of the first split into runs at a sequence gap, at a change of
// width and around a definition op; the run after the definition finds
// its predecessor in the run before it.
TEST(WalRecordTest, ChainedHeadersAndRuns) {
  auto row = [](int64_t id) {
    return Row{Value::BigInt(id), Value::Varchar("v")};
  };
  WalCommitRecord first;
  first.txn_id = 10;
  first.commit_ts_micros = 1000;
  first.user_name = "app";
  for (int64_t id = 1; id <= 3; id++)
    first.ops.push_back(WalOp{WalOpType::kInsert, 100, {}, row(id)});
  WalOp gap{WalOpType::kInsert, 100, {}, row(4)};
  gap.seq_gap = 2;
  first.ops.push_back(gap);                                    // run 2
  first.ops.push_back(WalOp{WalOpType::kInsert, 100, {}, row(5)});
  first.ops.push_back(WalOp{WalOpType::kInsert, 100, {},       // run 3
                            {Value::BigInt(6), Value::Varchar("v"),
                             Value::BigInt(0)}});
  WalOp define{WalOpType::kDefineTable, 100, {}, {}};          // run 4
  define.definition = std::make_shared<TableDefinition>();
  first.ops.push_back(define);
  first.ops.push_back(WalOp{WalOpType::kInsert, 100, {}, row(7)});  // run 5
  WalCommitRecord second;
  second.txn_id = 12;
  second.commit_ts_micros = 995;
  second.user_name = "app";
  second.block_ordinal = 1;
  second.ops.push_back(WalOp{WalOpType::kDelete, 100, {Value::BigInt(1)}, {}});
  WalCommitRecord third = second;
  third.txn_id = 11;
  third.user_name = "bob";

  WalHeaderChain writer;
  std::vector<std::vector<uint8_t>> bodies(3);
  EncodeCommitRecord(first, &writer, &bodies[0]);
  EncodeCommitRecord(second, &writer, &bodies[1]);
  EncodeCommitRecord(third, &writer, &bodies[2]);
  // [flags: the slot follows][txn +2][ts -5][block +0][ordinal +1]
  // [no ledger tables][one op]
  EXPECT_EQ(HexEncode(Slice(bodies[1])).substr(0, 14), "04040900020001");
  // [flags: the user follows][txn -1][ts +0]['bob'][no ledger tables]
  EXPECT_EQ(HexEncode(Slice(bodies[2])).substr(0, 18), "02010003626f620001");

  WalHeaderChain reader;
  WalRecordLayout layout;
  auto got = WalCommitRecord::Decode(Slice(bodies[0]), &reader, &layout);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(layout.chain_start);
  // The op count follows the header; the eight ops take five run headers.
  EXPECT_EQ(bodies[0][layout.stamp + layout.slot + layout.roots_check], 8);
  ASSERT_EQ(got->ops.size(), first.ops.size());
  for (size_t i = 0; i < first.ops.size(); i++) {
    EXPECT_EQ(got->ops[i].type, first.ops[i].type) << i;
    EXPECT_EQ(got->ops[i].new_row, first.ops[i].new_row) << i;
    EXPECT_EQ(got->ops[i].seq_gap, first.ops[i].seq_gap) << i;
  }
  EXPECT_EQ(layout.tuples.size(), first.ops.size());
  // The last insert's tuple repeats the cell of row(5) and changes the id.
  EXPECT_EQ(layout.tuples.back(), 2u);
  for (const WalCommitRecord* want : {&second, &third}) {
    got = WalCommitRecord::Decode(Slice(want == &second ? bodies[1]
                                                        : bodies[2]),
                                  &reader, &layout);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(layout.chain_start);
    EXPECT_EQ(got->txn_id, want->txn_id);
    EXPECT_EQ(got->commit_ts_micros, want->commit_ts_micros);
    EXPECT_EQ(got->user_name, want->user_name);
    EXPECT_EQ(got->block_ordinal, want->block_ordinal);
  }
  // Out of its chain, a record that does not start one is refused.
  WalHeaderChain fresh;
  EXPECT_TRUE(WalCommitRecord::Decode(Slice(bodies[1]), &fresh)
                  .status()
                  .IsCorruption());
}

// The commit reserves HeaderBytesBound and EncodedOpsBound before
// encoding; the bounds hold for widest-case cells (+0.0 DOUBLEs, 8-byte
// integers), a sequence gap and every difference at its widest.
TEST(WalRecordTest, EncodedBytesBoundCoversTheRecord) {
  WalCommitRecord rec = MakeRecord(~uint64_t{0});
  rec.commit_ts_micros = INT64_MIN;
  rec.user_name = std::string(300, 'u');
  rec.block_id = ~uint64_t{0} >> 1;
  WalOp wide{WalOpType::kInsert, ~uint32_t{0}, {},
             Row(std::vector<Value>(40, Value::Double(0.0)))};
  wide.seq_gap = ~uint64_t{0};
  rec.ops.push_back(wide);
  rec.ops.push_back(WalOp{WalOpType::kUpdate, 7, {},
                          {Value::BigInt(INT64_MIN), Value::Varchar("")}});
  rec.ops.push_back(WalOp{WalOpType::kDelete, 7, {Value::BigInt(1)}, {}});
  WalHeaderChain opposite;
  opposite.started = true;
  opposite.txn_id = ~rec.txn_id >> 1;
  opposite.commit_ts_micros = INT64_MAX;
  opposite.block_id = ~rec.block_id;
  for (WalHeaderChain chain : {WalHeaderChain{}, opposite}) {
    std::vector<uint8_t> header;
    rec.EncodeChainedHeader(&chain, &header);
    EXPECT_LE(header.size(), rec.HeaderBytesBound());
  }
  std::vector<uint8_t> ops;
  WalCommitRecord::EncodeOps(rec.ops, &ops);
  EXPECT_LE(ops.size(), WalCommitRecord::EncodedOpsBound(rec.ops));
}

// A nonzero ledger table count must be followed by the 8-byte roots check.
TEST(WalRecordTest, DecodeRejectsMissingRootsCheck) {
  WalCommitRecord rec = MakeRecord(7);
  WalHeaderChain chain;
  std::vector<uint8_t> header;
  rec.EncodeChainedHeader(&chain, &header);
  header.resize(header.size() - 8);  // keep the header through the count
  for (int i = 0; i < 7; i++) {
    header.push_back(0);
    EXPECT_TRUE(DecodeAlone(Slice(header)).status().IsCorruption());
  }
}

// An op count larger than the record's remaining bytes could hold is
// rejected before anything is reserved, and so is a run of more ops than
// the op count leaves.
TEST(WalRecordTest, DecodeRejectsOpCountBeyondRecord) {
  WalCommitRecord rec = MakeRecord(7);
  rec.ops.clear();
  std::vector<uint8_t> buf = EncodeAlone(rec);
  buf.pop_back();  // the zero op count
  const size_t header = buf.size();
  for (uint8_t b : {0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) buf.push_back(b);
  EXPECT_TRUE(DecodeAlone(Slice(buf)).status().IsCorruption());
  // One op, in a run of inserts into table 100 of 2^32 tuples of one cell.
  buf.resize(header);
  for (uint8_t b : {0x01, 0x01, 0x64, 0x80, 0x80, 0x80, 0x80, 0x10, 0x01})
    buf.push_back(b);
  EXPECT_TRUE(DecodeAlone(Slice(buf)).status().IsCorruption());
}

// Each encoding is the only one of its record: a run that could have
// continued the run before it, an empty run and a user name or slot logged
// unchanged are Corruption.
TEST(WalRecordTest, DecodeRejectsNonCanonicalRecords) {
  WalCommitRecord rec;
  rec.txn_id = 1;
  rec.ops.push_back(WalOp{WalOpType::kInsert, 100, {}, {Value::BigInt(1)}});
  rec.ops.push_back(WalOp{WalOpType::kInsert, 100, {}, {Value::BigInt(2)}});
  std::vector<uint8_t> buf = EncodeAlone(rec);
  // [01 chain start][02 txn +1][00 ts][00 tables][02 ops]
  // [01 insert][64 table][02 count][01 width][0402 BIGINT 1]
  // [01 state 1][02 +1]
  ASSERT_EQ(HexEncode(Slice(buf)), "01020000020164020104020102");
  auto split = HexDecode("0102000002" "016401010402" "016401010102");
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(DecodeAlone(Slice(*split)).status().IsCorruption());
  auto empty = HexDecode("0102000002" "016400010402" "016401010404");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(DecodeAlone(Slice(*empty)).status().IsCorruption());
  for (const char* hex : {"0302000000" "00",          // the user '' again
                          "0502000000" "00" "00"}) {  // the slot (0, 0)
    auto unchanged = HexDecode(hex);
    ASSERT_TRUE(unchanged.ok());
    EXPECT_TRUE(DecodeAlone(Slice(*unchanged)).status().IsCorruption())
        << hex;
  }
}

TEST_F(WalTest, AppendAndReplay) {
  auto wal = Wal::Open(Path("wal.log"), WalOptions{});
  ASSERT_TRUE(wal.ok());
  WalHeaderChain writer;
  for (uint64_t i = 0; i < 20; i++) {
    ASSERT_TRUE(AppendCommit(wal->get(), &writer, MakeRecord(i)).ok());
  }
  (*wal).reset();

  uint64_t seen = 0;
  WalHeaderChain reader;
  auto count =
      ReadFrameLog(Env::Default(), Path("wal.log"), [&](Slice payload) {
        auto rec = WalCommitRecord::Decode(payload, &reader);
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
    WalHeaderChain writer;
    for (uint64_t i = 0; i < 5; i++)
      ASSERT_TRUE(AppendCommit(wal->get(), &writer, MakeRecord(i)).ok());
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
    WalHeaderChain writer;
    for (uint64_t i = 0; i < 5; i++)
      ASSERT_TRUE(AppendCommit(wal->get(), &writer, MakeRecord(i)).ok());
  }
  std::vector<uint8_t> last_payload;
  WalHeaderChain chain;
  for (uint64_t i = 0; i < 5; i++) {
    last_payload.clear();
    EncodeCommitRecord(MakeRecord(i), &chain, &last_payload);
  }
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
    WalHeaderChain writer;
    for (uint64_t i = 0; i < 5; i++)
      ASSERT_TRUE(AppendCommit(wal->get(), &writer, MakeRecord(i)).ok());
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
  WalHeaderChain writer;
  ASSERT_TRUE(AppendCommit(wal->get(), &writer, MakeRecord(1)).ok());
  ASSERT_TRUE((*wal)->Reset().ok());
  writer = WalHeaderChain{};  // the new file starts a chain of its own
  ASSERT_TRUE(AppendCommit(wal->get(), &writer, MakeRecord(2)).ok());
  (*wal).reset();

  std::vector<uint64_t> ids;
  WalHeaderChain reader;
  ASSERT_TRUE(
      ReadFrameLog(Env::Default(), Path("wal.log"), [&](Slice payload) {
        auto rec = WalCommitRecord::Decode(payload, &reader);
        EXPECT_TRUE(rec.ok()) << rec.status().ToString();
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
// predecessor's in every other row (state 0), ids, strings and raw
// DOUBLEs that change (state 1), names that turn NULL and back (state 2)
// and DOUBLEs that change to exactly k/100 (state 3). Any change to the
// header, the section or the row encoding moves the hash; a store's schema
// and indexes are not in its section (SLCKPT07), so they do not.
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
                           // 0.1 * 3 drifts off the grid of hundredths.
                           Value::Double((i % 2 == 0 ? 0.5 : 0.1) *
                                         static_cast<double>(i)),
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
            "a2f4bd6285f6a94d01e27955ad351ebb7693183a871278a5b017906e03e91ad8");
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

// TableStore: the physical representation of one table — a clustered
// B+-tree whose entries are the full rows, keyed by the primary-key
// columns, plus any non-clustered indexes whose entries are (index columns
// + primary key) tuples, keyed whole. Non-clustered indexes duplicate
// base-table data and can be tampered with independently, which is why the
// ledger verifier checks them against the base table (paper §3.4.1
// invariant 5).
//
// Thread safety: the mutating operations and the *Copy readers latch a
// per-table reader/writer latch internally, so point reads and writes of
// different rows may run concurrently under row-level transaction locks.
// The iterator-returning Scan/Seek and pointer-returning Get are unlatched:
// callers must exclude writers for their duration (a table-level S lock, a
// MaintenanceView, or single-threaded context).

#ifndef SQLLEDGER_STORAGE_TABLE_STORE_H_
#define SQLLEDGER_STORAGE_TABLE_STORE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/btree.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlledger {

class Decoder;

/// The definition of one secondary index: what a checkpoint and a WAL
/// definition op record of it.
struct IndexDef {
  std::string name;
  std::vector<size_t> ordinals;  // indexed column ordinals
  bool unique = false;

  bool operator==(const IndexDef&) const = default;
};

/// A non-clustered index over a subset of columns. Each entry is a packed
/// Row of the index columns followed by the primary-key columns
/// (TableStore::IndexEntryOf), and is its own key, which both makes
/// non-unique indexes representable and gives deterministic iteration order
/// for verification.
struct SecondaryIndex {
  std::string name;
  std::vector<size_t> ordinals;  // indexed column ordinals
  bool unique = false;
  BTree tree{std::vector<size_t>{}};
};

class TableStore {
 public:
  TableStore(uint32_t table_id, std::string name, Schema schema);

  uint32_t table_id() const { return table_id_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  size_t row_count() const {
    ReaderMutexLock latch(&latch_);
    return clustered_.size();
  }

  // ---- Row operations. Rows are full physical rows (hidden columns
  // included); all secondary indexes are maintained. ----

  /// Fails with AlreadyExists on primary-key duplicates or unique-index
  /// violations (no partial effects in that case). Takes the row by value:
  /// a caller done with its row moves it in. On success `*stored_out`, if
  /// given, is the stored row, valid until the next mutation.
  Status Insert(Row row, const Row** stored_out = nullptr);
  /// Replaces the row whose primary key matches `row`'s key columns.
  Status Update(const Row& row);
  /// Removes the row with the given primary key; NotFound if absent.
  Status Delete(const KeyTuple& key);

  /// Point lookup by primary key; pointer valid until next mutation.
  /// Unlatched BY CONTRACT (class comment): callers exclude writers via a
  /// table S lock, a MaintenanceView, or single-threaded context, which the
  /// analysis cannot see — hence the annotation escape.
  const Row* Get(const KeyTuple& key) const NO_THREAD_SAFETY_ANALYSIS;

  /// Latched point lookup returning a copy of the row, or of its cells at
  /// `ordinals` (Row::Project) when given: one copy either way. Safe under
  /// concurrent writers of other rows.
  std::optional<Row> GetCopy(
      const KeyTuple& key,
      const std::vector<size_t>* ordinals = nullptr) const;

  /// Latched prefix seek returning a copy of the first row whose clustered
  /// key starts with `prefix`, projected as GetCopy does.
  std::optional<Row> SeekFirstCopy(
      const KeyTuple& prefix,
      const std::vector<size_t>* ordinals = nullptr) const;

  /// Ordered scan over the clustered index. Unlatched BY CONTRACT (class
  /// comment): the returned iterator outlives any latch we could take here,
  /// so callers must exclude writers for its lifetime — invisible to the
  /// analysis, hence the escapes.
  BTree::Iterator Scan() const NO_THREAD_SAFETY_ANALYSIS {
    return clustered_.Begin();
  }
  /// Same unlatched contract as Scan().
  BTree::Iterator Seek(const KeyTuple& key) const NO_THREAD_SAFETY_ANALYSIS {
    return clustered_.Seek(key);
  }

  // ---- Index management (physical schema changes, paper §3.5). ----

  Status CreateIndex(const std::string& index_name,
                     const std::vector<size_t>& ordinals, bool unique);
  Status DropIndex(const std::string& index_name);
  /// Unlatched BY CONTRACT like Scan: the returned reference outlives any
  /// latch; used by the verifier on a MaintenanceView and by DDL under a
  /// table X lock.
  const std::vector<std::unique_ptr<SecondaryIndex>>& indexes() const
      NO_THREAD_SAFETY_ANALYSIS {
    return indexes_;
  }
  SecondaryIndex* FindIndex(const std::string& index_name);
  /// The definitions of indexes(), in creation order.
  std::vector<IndexDef> IndexDefs() const;

  /// Appends `value` as a new trailing cell of every physical row. Used by
  /// ADD COLUMN (paper §3.5.1): the schema must already list the new
  /// column. Keys and secondary indexes are unaffected.
  void ExtendRows(const Value& value);

  /// Used only by tamper-simulation tests and benches: mutate index/base
  /// rows directly, bypassing all maintenance (the storage-level attacker
  /// of the paper's threat model §2.5.2). Unlatched by design — the
  /// attacker does not honor latches. Under BTree::MutableGet's contract,
  /// editing a row's primary-key cells moves its key in place: lookups by
  /// the old key miss it, and verification reports the edit (invariant 4).
  BTree* mutable_clustered() NO_THREAD_SAFETY_ANALYSIS { return &clustered_; }

  KeyTuple KeyOf(const Row& row) const { return schema_.ExtractKey(row); }
  /// The entry `idx` holds for `row`: its index columns followed by its
  /// primary-key columns, packed once. The one definition of an index
  /// entry; the verifier rebuilds each from the base rows (paper §3.4.1
  /// invariant 5).
  Row IndexEntryOf(const SecondaryIndex& idx, const Row& row) const;

 private:
  SecondaryIndex* FindIndexLocked(const std::string& index_name)
      REQUIRES_SHARED(latch_);

  uint32_t table_id_;
  std::string name_;
  // schema_ is mutated only by DDL under a table X lock (2PL protocol, not
  // latch_) — see DESIGN.md §8.
  Schema schema_;
  // Physical consistency, not isolation.
  mutable SharedMutex latch_;
  BTree clustered_ GUARDED_BY(latch_);
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_ GUARDED_BY(latch_);
};

// ---- Definition codec: the one encoding of a store's schema and index
// set, written by TableDefinition::EncodeTo for the WAL's definition op
// and for a checkpoint's catalog (SLCKPT07). Every decoded count is bounded by the bytes left before anything is built. ----

void EncodeSchema(const Schema& schema, std::vector<uint8_t>* dst);
Result<Schema> DecodeSchema(Decoder* dec);
void EncodeIndexDefs(const std::vector<IndexDef>& indexes,
                     std::vector<uint8_t>* dst);
Result<std::vector<IndexDef>> DecodeIndexDefs(Decoder* dec);

}  // namespace sqlledger

#endif  // SQLLEDGER_STORAGE_TABLE_STORE_H_

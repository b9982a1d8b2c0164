// Table schemas: column definitions with stable column ids, primary keys,
// hidden system columns, and logically-dropped columns (paper §3.1, §3.5).

#ifndef SQLLEDGER_CATALOG_SCHEMA_H_
#define SQLLEDGER_CATALOG_SCHEMA_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "catalog/value.h"
#include "util/result.h"
#include "util/status.h"

namespace sqlledger {

/// One column of a table. `column_id` is stable across renames/drops and is
/// what participates in row hashes, so a drop+re-add with the same name
/// yields a distinguishable column (paper §3.5.2's attack discussion).
struct ColumnDef {
  uint32_t column_id = 0;
  std::string name;
  DataType type = DataType::kInt;
  bool nullable = true;
  /// Max length in bytes for varchar/varbinary; 0 = unlimited.
  uint32_t max_length = 0;
  /// Hidden columns (ledger system columns) are invisible to applications
  /// but exposed through ledger views.
  bool hidden = false;
  /// Logically dropped: renamed out of the user schema but physically kept
  /// so historical hashes remain verifiable.
  bool dropped = false;

  bool operator==(const ColumnDef&) const = default;
};

/// An ordered list of columns plus the primary-key column ordinals.
class Schema {
 public:
  Schema() = default;

  /// Appends a column, assigning the next stable column id. Returns its
  /// ordinal.
  size_t AddColumn(const std::string& name, DataType type, bool nullable,
                   uint32_t max_length = 0, bool hidden = false);

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  ColumnDef* mutable_column(size_t i) { return &columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Ordinal of the named, non-dropped column; -1 if absent.
  int FindColumn(const std::string& name) const;

  void SetPrimaryKey(std::vector<size_t> ordinals) {
    key_ordinals_ = std::move(ordinals);
  }
  const std::vector<size_t>& key_ordinals() const { return key_ordinals_; }
  bool HasPrimaryKey() const { return !key_ordinals_.empty(); }

  /// The primary key of a full row: its key columns, in key order.
  KeyTuple ExtractKey(const Row& row) const {
    return row.Project(key_ordinals_);
  }

  /// Checks arity, types, nullability and max lengths of a row against the
  /// schema. Hidden/dropped columns are expected to be present (full
  /// physical rows); use PadRow to extend an application row first.
  Status ValidateRow(const Row& row) const;

  /// Extends an application-visible row with NULLs for hidden and dropped
  /// columns, producing a full physical row packed once. The application
  /// row must list values for visible columns in ordinal order; `hidden`
  /// gives hidden columns a value instead of NULL (a ledger version's
  /// start stamps).
  Result<Row> PadRow(const Row& user_row,
                     std::initializer_list<OrdinalCell> hidden = {}) const;

  /// Ordinals of columns visible to applications (not hidden, not dropped).
  std::vector<size_t> VisibleOrdinals() const;

  uint32_t next_column_id() const { return next_column_id_; }
  void set_next_column_id(uint32_t id) { next_column_id_ = id; }

  bool operator==(const Schema&) const = default;

 private:
  std::vector<ColumnDef> columns_;
  std::vector<size_t> key_ordinals_;
  uint32_t next_column_id_ = 1;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_CATALOG_SCHEMA_H_

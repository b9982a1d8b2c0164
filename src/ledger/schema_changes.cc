#include "ledger/schema_changes.h"

namespace sqlledger {

// ---- Ledger metadata recording (paper §3.5.2, Figure 6) ----

Status LedgerDatabase::RecordTableMetadata(Transaction* txn,
                                           const CatalogEntry& entry) {
  CatalogEntry* sys = FindTableById(kSysTablesTableId);
  if (sys == nullptr) return Status::OK();  // ledger disabled
  SL_RETURN_IF_ERROR(AcquireTableLock(txn, *sys, LockMode::kExclusive));
  Row row{Value::Varchar(entry.name),
          Value::BigInt(static_cast<int64_t>(entry.table_id)),
          Value::Varchar(TableKindName(entry.kind))};
  return LedgerInsert(txn, sys->ref, row);
}

Status LedgerDatabase::RecordColumnMetadata(Transaction* txn,
                                            uint32_t table_id,
                                            const ColumnDef& col) {
  CatalogEntry* sys = FindTableById(kSysColumnsTableId);
  if (sys == nullptr) return Status::OK();  // ledger disabled
  SL_RETURN_IF_ERROR(AcquireTableLock(txn, *sys, LockMode::kExclusive));
  Row row{Value::BigInt(static_cast<int64_t>(table_id)),
          Value::BigInt(static_cast<int64_t>(col.column_id)),
          Value::Varchar(col.name), Value::Varchar(DataTypeName(col.type))};
  return LedgerInsert(txn, sys->ref, row);
}

namespace {
/// Updates the sys_ledger_columns row for (table_id, column_id), renaming it.
Status UpdateColumnMetadata(LedgerDatabase* db, Transaction* txn,
                            uint32_t table_id, uint32_t column_id,
                            const std::string& new_name,
                            const std::string& data_type) {
  Row row{Value::BigInt(static_cast<int64_t>(table_id)),
          Value::BigInt(static_cast<int64_t>(column_id)),
          Value::Varchar(new_name), Value::Varchar(data_type)};
  return db->Update(txn, "sys_ledger_columns", row);
}
}  // namespace

// ---- AddColumn (paper §3.5.1) ----

Status LedgerDatabase::AddColumn(const std::string& table,
                                 const std::string& column, DataType type,
                                 uint32_t max_length) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr)
    return Status::NotFound("table '" + table + "' not found");
  if (entry->main->schema().FindColumn(column) >= 0)
    return Status::AlreadyExists("column '" + column + "' already exists");

  // Only nullable columns can be added: NULLs are skipped by the canonical
  // row format, so existing hashes stay valid. The table X lock excludes
  // all concurrent readers/writers for the duration of the change.
  SL_RETURN_IF_ERROR(WithTableExclusive(entry, [&]() -> Status {
    entry->main->mutable_schema()->AddColumn(column, type, /*nullable=*/true,
                                             max_length);
    entry->main->ExtendRows(Value::Null(type));
    if (entry->history != nullptr) {
      entry->history->mutable_schema()->AddColumn(column, type, true,
                                                  max_length);
      entry->history->ExtendRows(Value::Null(type));
    }
    entry->ref.RefreshOrdinals();
    return Status::OK();
  }));

  if (options_.enable_ledger && !entry->is_system) {
    const Schema& schema = entry->main->schema();
    const ColumnDef& col = schema.column(schema.num_columns() - 1);
    auto txn = Begin("system:ddl");
    if (!txn.ok()) return txn.status();
    Status st = RecordColumnMetadata(*txn, entry->table_id, col);
    if (!st.ok()) {
      Abort(*txn);
      return st;
    }
    SL_RETURN_IF_ERROR(Commit(*txn));
  }
  if (!options_.data_dir.empty()) return Checkpoint();
  return Status::OK();
}

// ---- DropColumn (paper §3.5.2) ----

Status LedgerDatabase::DropColumn(const std::string& table,
                                  const std::string& column) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr)
    return Status::NotFound("table '" + table + "' not found");
  int ord = entry->main->schema().FindColumn(column);
  if (ord < 0) return Status::NotFound("column '" + column + "' not found");
  const ColumnDef& col = entry->main->schema().column(ord);
  if (col.hidden)
    return Status::InvalidArgument("cannot drop a system column");
  for (size_t key_ord : entry->main->schema().key_ordinals()) {
    if (static_cast<int>(key_ord) == ord)
      return Status::InvalidArgument("cannot drop a primary-key column");
  }
  uint32_t column_id = col.column_id;
  std::string dropped_name =
      "DroppedColumn_" + column + "_" + std::to_string(column_id);

  // Logical drop: data stays, the column disappears from the user schema
  // but keeps participating in hashes of historical versions.
  SL_RETURN_IF_ERROR(WithTableExclusive(entry, [&]() -> Status {
    entry->main->mutable_schema()->mutable_column(ord)->dropped = true;
    if (entry->history != nullptr) {
      int history_ord = entry->history->schema().FindColumn(column);
      if (history_ord >= 0)
        entry->history->mutable_schema()
            ->mutable_column(history_ord)
            ->dropped = true;
    }
    entry->ref.RefreshOrdinals();
    return Status::OK();
  }));

  if (options_.enable_ledger && !entry->is_system) {
    auto txn = Begin("system:ddl");
    if (!txn.ok()) return txn.status();
    Status st = UpdateColumnMetadata(this, *txn, entry->table_id, column_id,
                                     dropped_name, DataTypeName(col.type));
    if (!st.ok()) {
      Abort(*txn);
      return st;
    }
    SL_RETURN_IF_ERROR(Commit(*txn));
  }
  if (!options_.data_dir.empty()) return Checkpoint();
  return Status::OK();
}

// ---- DropTable (paper §3.5.2, Figure 6) ----

Status LedgerDatabase::DropTable(const std::string& table) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr)
    return Status::NotFound("table '" + table + "' not found");
  if (entry->is_system)
    return Status::InvalidArgument("cannot drop a system table");

  std::string dropped_name =
      "DroppedTable_" + table + "_" + std::to_string(entry->table_id);

  if (options_.enable_ledger) {
    auto txn = Begin("system:ddl");
    if (!txn.ok()) return txn.status();
    Row row{Value::Varchar(dropped_name),
            Value::BigInt(static_cast<int64_t>(entry->table_id)),
            Value::Varchar(TableKindName(entry->kind))};
    Status st = Update(*txn, "sys_ledger_tables", row);
    if (!st.ok()) {
      Abort(*txn);
      return st;
    }
    SL_RETURN_IF_ERROR(Commit(*txn));
  }

  {
    WriterMutexLock lock(&catalog_mu_);
    name_index_.erase(table);
    entry->name = dropped_name;
    entry->main->set_name(dropped_name);
    entry->dropped = true;
  }

  if (!options_.data_dir.empty()) return Checkpoint();
  return Status::OK();
}

// ---- AlterColumnType (paper §3.5.3) ----

Status LedgerDatabase::AlterColumnType(const std::string& table,
                                       const std::string& column,
                                       DataType new_type) {
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr)
    return Status::NotFound("table '" + table + "' not found");
  if (entry->kind == TableKind::kAppendOnly)
    return Status::NotSupported(
        "ALTER COLUMN TYPE needs UPDATE and is not available on append-only "
        "tables");
  int old_ord = entry->main->schema().FindColumn(column);
  if (old_ord < 0) return Status::NotFound("column '" + column + "' not found");
  const ColumnDef old_col = entry->main->schema().column(old_ord);
  if (old_col.type == new_type) return Status::OK();
  for (size_t key_ord : entry->main->schema().key_ordinals()) {
    if (static_cast<int>(key_ord) == old_ord)
      return Status::InvalidArgument(
          "cannot alter the type of a primary-key column");
  }

  // Drop the old column and add the replacement under the original name,
  // excluding concurrent users of the table for the structural phase.
  SL_RETURN_IF_ERROR(WithTableExclusive(entry, [&]() -> Status {
    entry->main->mutable_schema()->mutable_column(old_ord)->dropped = true;
    entry->main->mutable_schema()->AddColumn(column, new_type,
                                             /*nullable=*/true, 0);
    entry->main->ExtendRows(Value::Null(new_type));
    if (entry->history != nullptr) {
      int history_old_ord = entry->history->schema().FindColumn(column);
      entry->history->mutable_schema()
          ->mutable_column(history_old_ord)
          ->dropped = true;
      entry->history->mutable_schema()->AddColumn(column, new_type, true, 0);
      entry->history->ExtendRows(Value::Null(new_type));
    }
    entry->ref.RefreshOrdinals();
    return Status::OK();
  }));

  const Schema& schema = entry->main->schema();

  // Capture the physical rows (already extended with the NULL cell for the
  // new column) before repopulation churns the table.
  std::vector<Row> current_rows;
  for (BTree::Iterator it = entry->main->Scan(); it.Valid(); it.Next())
    current_rows.push_back(it.value());

  // Repopulate through regular ledger DML so every converted version is
  // hashed into the ledger (§3.5.3).
  auto txn = Begin("system:ddl");
  if (!txn.ok()) return txn.status();
  std::vector<size_t> visible = schema.VisibleOrdinals();
  for (const Row& old_physical : current_rows) {
    auto converted = Value(old_physical[old_ord]).CastTo(new_type);
    if (!converted.ok()) {
      Abort(*txn);
      return converted.status();
    }
    Row user_row = old_physical.Project(visible);
    user_row[visible.size() - 1] = *converted;  // new column is last visible
    Status st = Update(*txn, table, user_row);
    if (!st.ok()) {
      Abort(*txn);
      return st;
    }
  }
  if (options_.enable_ledger && !entry->is_system) {
    Status st = UpdateColumnMetadata(
        this, *txn, entry->table_id, old_col.column_id,
        "DroppedColumn_" + column + "_" + std::to_string(old_col.column_id),
        DataTypeName(old_col.type));
    if (st.ok()) {
      ColumnDef new_col = schema.column(schema.num_columns() - 1);
      st = RecordColumnMetadata(*txn, entry->table_id, new_col);
    }
    if (!st.ok()) {
      Abort(*txn);
      return st;
    }
  }
  SL_RETURN_IF_ERROR(Commit(*txn));
  if (!options_.data_dir.empty()) return Checkpoint();
  return Status::OK();
}

}  // namespace sqlledger

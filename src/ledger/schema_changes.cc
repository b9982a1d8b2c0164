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

/// DROP COLUMN and ALTER COLUMN TYPE refuse a column that a UNIQUE index
/// covers, before any change (as SQL Server does): the index would go on
/// checking NULL-padded or repopulated cells and reject later updates.
Status CheckNoUniqueIndexOn(const CatalogEntry& entry, int ord,
                            const std::string& column) {
  for (const IndexDef& index : entry.main->IndexDefs()) {
    if (!index.unique) continue;
    for (size_t indexed : index.ordinals) {
      if (static_cast<int>(indexed) == ord)
        return Status::InvalidArgument("column '" + column +
                                       "' is covered by unique index '" +
                                       index.name + "'; drop the index first");
    }
  }
  return Status::OK();
}
}  // namespace

// ---- AddColumn (paper §3.5.1) ----

Status LedgerDatabase::AddColumn(const std::string& table,
                                 const std::string& column, DataType type,
                                 uint32_t max_length) {
  MutexLock ddl_lock(&ddl_mu_);
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr)
    return Status::NotFound("table '" + table + "' not found");
  if (entry->main->schema().FindColumn(column) >= 0)
    return Status::AlreadyExists("column '" + column + "' already exists");

  // Only nullable columns can be added: NULLs are skipped by the canonical
  // row format, so existing hashes stay valid. The table X lock excludes
  // all concurrent readers/writers for the duration of the change.
  auto txn = BeginDdl(*entry);
  if (!txn.ok()) return txn.status();
  TableDefinition def = entry->Definition();
  for (TableDefinition::Store* store : def.stores())
    store->schema.AddColumn(column, type, /*nullable=*/true, max_length);
  Status st = DefineTable(*txn, entry->table_id, def);
  // The new column is the last visible one.
  if (st.ok() && options_.enable_ledger && !entry->is_system())
    st = RecordColumnMetadata(*txn, entry->table_id,
                              entry->ref.plan->visible_columns.back());
  return FinishDdl(*txn, st);
}

// ---- DropColumn (paper §3.5.2) ----

Status LedgerDatabase::DropColumn(const std::string& table,
                                  const std::string& column) {
  MutexLock ddl_lock(&ddl_mu_);
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr)
    return Status::NotFound("table '" + table + "' not found");
  int ord = entry->main->schema().FindColumn(column);
  if (ord < 0) return Status::NotFound("column '" + column + "' not found");
  const ColumnDef col = entry->main->schema().column(ord);
  if (col.hidden)
    return Status::InvalidArgument("cannot drop a system column");
  for (size_t key_ord : entry->main->schema().key_ordinals()) {
    if (static_cast<int>(key_ord) == ord)
      return Status::InvalidArgument("cannot drop a primary-key column");
  }
  SL_RETURN_IF_ERROR(CheckNoUniqueIndexOn(*entry, ord, column));
  uint32_t column_id = col.column_id;
  std::string dropped_name =
      "DroppedColumn_" + column + "_" + std::to_string(column_id);

  // Logical drop: data stays, the column disappears from the user schema
  // but keeps participating in hashes of historical versions.
  auto txn = BeginDdl(*entry);
  if (!txn.ok()) return txn.status();
  TableDefinition def = entry->Definition();
  // A history store mirrors its table's columns, ordinal for ordinal.
  for (TableDefinition::Store* store : def.stores())
    store->schema.mutable_column(ord)->dropped = true;
  Status st = DefineTable(*txn, entry->table_id, def);
  if (st.ok() && options_.enable_ledger && !entry->is_system()) {
    st = UpdateColumnMetadata(this, *txn, entry->table_id, column_id,
                              dropped_name, DataTypeName(col.type));
  }
  return FinishDdl(*txn, st);
}

// ---- DropTable (paper §3.5.2, Figure 6) ----

Status LedgerDatabase::DropTable(const std::string& table) {
  MutexLock ddl_lock(&ddl_mu_);
  CatalogEntry* entry = FindTable(table);
  if (entry == nullptr)
    return Status::NotFound("table '" + table + "' not found");
  if (entry->is_system())
    return Status::InvalidArgument("cannot drop a system table");

  std::string dropped_name =
      "DroppedTable_" + table + "_" + std::to_string(entry->table_id);

  auto txn = BeginDdl(*entry);
  if (!txn.ok()) return txn.status();
  TableDefinition def = entry->Definition();
  def.main.name = dropped_name;
  def.dropped = true;
  Status st = DefineTable(*txn, entry->table_id, def);
  if (st.ok() && options_.enable_ledger) {
    Row row{Value::Varchar(dropped_name),
            Value::BigInt(static_cast<int64_t>(entry->table_id)),
            Value::Varchar(TableKindName(entry->kind))};
    st = Update(*txn, "sys_ledger_tables", row);
  }
  return FinishDdl(*txn, st);
}

// ---- AlterColumnType (paper §3.5.3) ----

Status LedgerDatabase::AlterColumnType(const std::string& table,
                                       const std::string& column,
                                       DataType new_type) {
  MutexLock ddl_lock(&ddl_mu_);
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
  if (old_col.hidden)
    return Status::InvalidArgument("cannot alter a system column");
  if (old_col.type == new_type) return Status::OK();
  for (size_t key_ord : entry->main->schema().key_ordinals()) {
    if (static_cast<int>(key_ord) == old_ord)
      return Status::InvalidArgument(
          "cannot alter the type of a primary-key column");
  }
  SL_RETURN_IF_ERROR(CheckNoUniqueIndexOn(*entry, old_ord, column));

  auto txn = BeginDdl(*entry);
  if (!txn.ok()) return txn.status();
  // Convert every value before the schema changes, so a failed cast
  // leaves the table as it was.
  std::vector<Value> converted;
  for (BTree::Iterator it = entry->main->Scan(); it.Valid(); it.Next()) {
    auto value = Value(it.value()[old_ord]).CastTo(new_type);
    if (!value.ok()) return FinishDdl(*txn, value.status());
    converted.push_back(std::move(*value));
  }

  // Drop the old column and add the replacement under the original name.
  // The definition precedes the updates that depend on it.
  TableDefinition def = entry->Definition();
  for (TableDefinition::Store* store : def.stores()) {
    store->schema.mutable_column(old_ord)->dropped = true;
    store->schema.AddColumn(column, new_type, /*nullable=*/true, 0);
  }
  Status st = DefineTable(*txn, entry->table_id, def);
  if (!st.ok()) return FinishDdl(*txn, st);

  // Build the converted user rows before repopulation churns the table.
  // The new column is the last visible one.
  const TablePlan& plan = *entry->ref.plan;
  std::vector<Row> user_rows;
  for (BTree::Iterator it = entry->main->Scan(); it.Valid(); it.Next()) {
    user_rows.push_back(it.value().Project(plan.visible_ords));
    user_rows.back()[plan.visible_ords.size() - 1] =
        converted[user_rows.size() - 1];
  }

  // Repopulate through regular ledger DML so every converted version is
  // hashed into the ledger (§3.5.3).
  for (const Row& user_row : user_rows) {
    st = Update(*txn, table, user_row);
    if (!st.ok()) break;
  }
  if (st.ok() && options_.enable_ledger && !entry->is_system()) {
    st = UpdateColumnMetadata(
        this, *txn, entry->table_id, old_col.column_id,
        "DroppedColumn_" + column + "_" + std::to_string(old_col.column_id),
        DataTypeName(old_col.type));
    if (st.ok())
      st = RecordColumnMetadata(*txn, entry->table_id,
                                plan.visible_columns.back());
  }
  return FinishDdl(*txn, st);
}

}  // namespace sqlledger

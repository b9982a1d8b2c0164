// The apply path (DESIGN.md §4): every DDL, the bootstrap, checkpoint load
// and WAL replay create and change a table's stores only through
// ApplyTableDefinition, so a statement, its replay and a reload run the
// same code. Lint rule `definition-apply` keeps the making of catalog
// entries and stores (BuildSystemStores makes the ledger's two) in this
// file, and store-definition edits here and in the store itself.

#include <algorithm>

#include "ledger/ledger_database.h"

namespace sqlledger {

TableDefinition CatalogEntry::Definition() const {
  TableDefinition def;
  def.kind = static_cast<uint8_t>(kind);
  def.dropped = dropped;
  def.main = TableDefinition::Store::Of(*main);
  if (history != nullptr) {
    def.history_table_id = history->table_id();
    def.history = TableDefinition::Store::Of(*history);
  }
  return def;
}

void CatalogEntry::LinkRef() {
  const Schema& s = main->schema();
  TablePlan plan;
  plan.visible_ords = s.VisibleOrdinals();
  plan.start_txn_ord = s.FindColumn(kColStartTxn);
  plan.start_seq_ord = s.FindColumn(kColStartSeq);
  plan.end_txn_ord = s.FindColumn(kColEndTxn);
  plan.end_seq_ord = s.FindColumn(kColEndSeq);
  const std::vector<size_t>& visible = plan.visible_ords;
  std::vector<size_t>& key_positions = plan.user_key_positions;
  for (size_t ord : visible) plan.visible_columns.push_back(s.column(ord));
  for (size_t key_ord : s.key_ordinals())
    key_positions.push_back(static_cast<size_t>(
        std::find(visible.begin(), visible.end(), key_ord) - visible.begin()));
  // A key column that is not visible finds no position (visible.size()),
  // and such a table takes no user-row DML.
  if (std::count(key_positions.begin(), key_positions.end(), visible.size()))
    key_positions.clear();
  ref = {table_id, kind, main.get(), history.get(),
         std::make_shared<const TablePlan>(std::move(plan))};
}

void LedgerDatabase::BuildSystemStores() {
  ledger_txns_store_ = std::make_unique<TableStore>(
      kLedgerTransactionsTableId, "database_ledger_transactions",
      MakeLedgerTransactionsSchema());
  ledger_blocks_store_ = std::make_unique<TableStore>(
      kLedgerBlocksTableId, "database_ledger_blocks",
      MakeLedgerBlocksSchema());
  if (!options_.enable_ledger) return;
  DatabaseLedgerOptions lopts;
  lopts.block_size = options_.block_size;
  lopts.clock = options_.clock;
  ledger_ = std::make_unique<DatabaseLedger>(ledger_txns_store_.get(),
                                             ledger_blocks_store_.get(),
                                             std::move(lopts));
}

namespace {
// Corruption unless `def` has what DML relies on: a known kind, store ids
// of its own and not the Database Ledger's, a history store just when
// updateable, and a ledger table's stamp columns as live hidden BIGINTs.
Status CheckDefinition(uint32_t table_id, const TableDefinition& def) {
  if (def.kind > static_cast<uint8_t>(TableKind::kUpdateable))
    return Status::Corruption("bad table kind in table definition");
  const auto kind = static_cast<TableKind>(def.kind);
  const uint32_t history_id = def.history_table_id;  // 0 = none
  if (table_id < kSysTablesTableId ||
      (history_id != 0 && history_id < kSysTablesTableId) ||
      history_id == table_id)
    return Status::Corruption("table definition of table id " +
                              std::to_string(table_id) +
                              " names a reserved store id");
  if ((history_id != 0) != (kind == TableKind::kUpdateable))
    return Status::Corruption(
        "table definition's history store does not match its kind");
  if (kind == TableKind::kRegular) return Status::OK();
  const char* const stamps[] = {kColStartTxn, kColStartSeq, kColEndTxn,
                                kColEndSeq};
  const Schema& schema = def.main.schema;
  for (size_t i = 0; i < (kind == TableKind::kUpdateable ? 4 : 2); i++) {
    const int ord = schema.FindColumn(stamps[i]);
    if (ord < 0 || !schema.column(ord).hidden ||
        schema.column(ord).type != DataType::kBigInt)
      return Status::Corruption(std::string("ledger table definition lacks ") +
                                "the hidden BIGINT column " + stamps[i]);
  }
  return Status::OK();
}

// Makes `store` match a definition's name, schema and index set. Rows gain
// a NULL cell for each column the definition appends; a definition never
// removes or retypes a physical column, nor changes the clustered key.
Status MatchStore(TableStore* store, const TableDefinition::Store& def) {
  const Schema& schema = def.schema;
  const std::vector<IndexDef>& indexes = def.indexes;
  const Schema& have = store->schema();
  if (!(have == schema)) {
    const size_t old_columns = have.num_columns();
    bool compatible = schema.num_columns() >= old_columns &&
                      schema.key_ordinals() == have.key_ordinals();
    for (size_t i = 0; compatible && i < old_columns; i++) {
      compatible = schema.column(i).column_id == have.column(i).column_id &&
                   schema.column(i).type == have.column(i).type;
    }
    if (!compatible)
      return Status::Corruption(
          "table definition does not extend the schema of table id " +
          std::to_string(store->table_id()));
    const uint32_t next_column_id =
        std::max(have.next_column_id(), schema.next_column_id());
    *store->mutable_schema() = schema;
    store->mutable_schema()->set_next_column_id(next_column_id);
    for (size_t i = old_columns; i < schema.num_columns(); i++)
      store->ExtendRows(Value::Null(schema.column(i).type));
  }
  store->set_name(def.name);

  for (const IndexDef& idx : store->IndexDefs()) {
    if (std::find(indexes.begin(), indexes.end(), idx) == indexes.end())
      SL_RETURN_IF_ERROR(store->DropIndex(idx.name));
  }
  for (const IndexDef& idx : indexes) {
    if (store->FindIndex(idx.name) == nullptr)
      SL_RETURN_IF_ERROR(store->CreateIndex(idx.name, idx.ordinals, idx.unique));
  }
  return Status::OK();
}
}  // namespace

Status LedgerDatabase::ApplyTableDefinition(uint32_t table_id,
                                            const TableDefinition& def) {
  SL_RETURN_IF_ERROR(CheckDefinition(table_id, def));
  CatalogEntry* entry = nullptr;
  {
    WriterMutexLock lock(&catalog_mu_);
    entry = FindTableByIdLocked(table_id);
    if (entry == nullptr) {
      for (const auto& [id, other] : catalog_) {
        const uint32_t history_id =
            other->history ? other->history->table_id() : 0;
        for (uint32_t used : {id, history_id}) {
          if (used != 0 && (used == table_id || used == def.history_table_id))
            return Status::Corruption("table definition reuses a store id");
        }
      }
      auto created = std::make_unique<CatalogEntry>();
      created->table_id = table_id;
      created->name = def.main.name;
      created->kind = static_cast<TableKind>(def.kind);
      created->main = std::make_unique<TableStore>(table_id, def.main.name,
                                                   def.main.schema);
      if (def.history_table_id != 0) {
        created->history = std::make_unique<TableStore>(
            def.history_table_id, def.history.name, def.history.schema);
      }
      entry = created.get();
      catalog_[table_id] = std::move(created);
      next_table_id_ =
          std::max({next_table_id_, table_id + 1, def.history_table_id + 1});
    } else if (static_cast<uint8_t>(entry->kind) != def.kind ||
               (entry->history ? entry->history->table_id() : 0) !=
                   def.history_table_id) {
      return Status::Corruption("table definition does not match table id " +
                                std::to_string(table_id));
    }
  }
  SL_RETURN_IF_ERROR(MatchStore(entry->main.get(), def.main));
  if (entry->history != nullptr)
    SL_RETURN_IF_ERROR(MatchStore(entry->history.get(), def.history));
  WriterMutexLock lock(&catalog_mu_);
  // GetTableRef copies the ref under the reader lock.
  entry->LinkRef();
  auto named = name_index_.find(entry->name);
  if (named != name_index_.end() && named->second == table_id)
    name_index_.erase(named);
  entry->name = def.main.name;
  entry->dropped = def.dropped;
  if (!entry->dropped) name_index_[entry->name] = table_id;
  return Status::OK();
}

Status LedgerDatabase::DefineTable(Transaction* txn, uint32_t table_id,
                                   const TableDefinition& def) {
  SL_RETURN_IF_ERROR(ApplyTableDefinition(table_id, def));
  txn->RecordDefinition(table_id, std::make_shared<TableDefinition>(
                                      FindTableById(table_id)->Definition()));
  return Status::OK();
}

}  // namespace sqlledger

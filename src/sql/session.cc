#include "sql/session.h"

#include <algorithm>

#include "ledger/verifier.h"
#include "sql/parser.h"

namespace sqlledger {

namespace {

/// A statement pins its table's plan by holding a copy of the table's ref
/// (DESIGN.md §8). Rows have the layout of the plan current when they were
/// read: Aborted unless that is still `pinned`, whose address no other
/// plan takes while it is held.
Status CheckPinned(LedgerDatabase* db, const std::string& table,
                   const TablePlan& pinned) {
  auto now = db->GetTableRef(table);
  if (!now.ok()) return now.status();
  if (now->plan.get() != &pinned)
    return Status::Aborted("table '" + table +
                           "' changed during the statement");
  return Status::OK();
}

int FindName(const std::vector<ColumnDef>& columns, const std::string& name) {
  for (size_t i = 0; i < columns.size(); i++) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

Result<Value> CoerceLiteral(const Value& literal, const ColumnDef& column) {
  if (literal.is_null()) return Value::Null(column.type);
  if (literal.type() == column.type) return literal;
  auto cast = literal.CastTo(column.type);
  if (!cast.ok())
    return Status::InvalidArgument("cannot use this literal for column '" +
                                   column.name + "': " +
                                   cast.status().message());
  return cast;
}

Result<bool> EvalPredicates(const std::vector<SqlPredicate>& predicates,
                            const std::vector<ColumnDef>& columns,
                            const Row& row) {
  for (const SqlPredicate& pred : predicates) {
    int idx = FindName(columns, pred.column);
    if (idx < 0)
      return Status::NotFound("unknown column '" + pred.column +
                              "' in WHERE clause");
    if (pred.op == SqlPredicate::Op::kIsNull ||
        pred.op == SqlPredicate::Op::kIsNotNull) {
      bool is_null = row[static_cast<size_t>(idx)].is_null();
      if (pred.op == SqlPredicate::Op::kIsNull ? !is_null : is_null)
        return false;
      continue;
    }
    auto literal = CoerceLiteral(pred.literal, columns[idx]);
    if (!literal.ok()) return literal.status();
    Cell cell = row[static_cast<size_t>(idx)];
    // SQL three-valued logic, simplified: comparisons with NULL are false.
    if (cell.is_null() || literal->is_null()) {
      if (pred.op == SqlPredicate::Op::kEq && cell.is_null() &&
          literal->is_null()) {
        continue;  // col = NULL used as IS NULL for usability
      }
      return false;
    }
    int cmp = cell.Compare(*literal);
    bool ok = false;
    switch (pred.op) {
      case SqlPredicate::Op::kEq:
        ok = cmp == 0;
        break;
      case SqlPredicate::Op::kNe:
        ok = cmp != 0;
        break;
      case SqlPredicate::Op::kLt:
        ok = cmp < 0;
        break;
      case SqlPredicate::Op::kLe:
        ok = cmp <= 0;
        break;
      case SqlPredicate::Op::kGt:
        ok = cmp > 0;
        break;
      case SqlPredicate::Op::kGe:
        ok = cmp >= 0;
        break;
      case SqlPredicate::Op::kIsNull:
      case SqlPredicate::Op::kIsNotNull:
        break;  // handled above
    }
    if (!ok) return false;
  }
  return true;
}

std::string SqlResultSet::ToString() const {
  if (column_names.empty()) return message;
  std::vector<size_t> widths;
  widths.reserve(column_names.size());
  for (const std::string& name : column_names) widths.push_back(name.size());
  std::vector<std::vector<std::string>> cells;
  for (const Row& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); i++) {
      line.push_back(row[i].ToString());
      if (i < widths.size()) widths[i] = std::max(widths[i], line[i].size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (size_t i = 0; i < column_names.size(); i++) {
    out += column_names[i];
    out.append(widths[i] - column_names[i].size() + 2, ' ');
  }
  out += "\n";
  for (size_t i = 0; i < column_names.size(); i++) {
    out.append(widths[i], '-');
    out += "  ";
  }
  out += "\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); i++) {
      out += line[i];
      out.append(widths[i] - line[i].size() + 2, ' ');
    }
    out += "\n";
  }
  out += "(" + std::to_string(rows.size()) + " rows)\n";
  return out;
}

SqlSession::SqlSession(LedgerDatabase* db, std::string user)
    : db_(db), user_(std::move(user)) {}

SqlSession::~SqlSession() {
  if (txn_ != nullptr) db_->Abort(txn_);
}

Result<SqlResultSet> SqlSession::Execute(const std::string& sql) {
  auto stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  return Dispatch(*stmt);
}

Result<int64_t> SqlSession::WithTransaction(
    const std::function<Result<int64_t>(Transaction*)>& body) {
  if (txn_ != nullptr) return body(txn_);
  auto txn = db_->Begin(user_);
  if (!txn.ok()) return txn.status();
  auto result = body(*txn);
  if (!result.ok()) {
    db_->Abort(*txn);
    return result;
  }
  Status st = db_->Commit(*txn);
  if (!st.ok()) return st;
  return result;
}

Result<SqlResultSet> SqlSession::Dispatch(const SqlStatement& stmt) {
  SqlResultSet result;
  if (stmt.create_table) {
    const CreateTableStmt& create = *stmt.create_table;
    Schema schema;
    for (const SqlColumnDef& col : create.columns)
      schema.AddColumn(col.name, col.type, col.nullable, col.max_length);
    std::vector<size_t> key;
    for (const std::string& name : create.primary_key) {
      int ord = schema.FindColumn(name);
      if (ord < 0)
        return Status::InvalidArgument("PRIMARY KEY references unknown "
                                       "column '" + name + "'");
      key.push_back(static_cast<size_t>(ord));
    }
    schema.SetPrimaryKey(std::move(key));
    SL_RETURN_IF_ERROR(db_->CreateTable(create.table, schema, create.kind));
    result.message = "table '" + create.table + "' created (" +
                     TableKindName(create.kind) + ")";
    return result;
  }
  if (stmt.drop_table) {
    SL_RETURN_IF_ERROR(db_->DropTable(stmt.drop_table->table));
    result.message = "table '" + stmt.drop_table->table + "' dropped";
    return result;
  }
  if (stmt.alter_table) {
    const AlterTableStmt& alter = *stmt.alter_table;
    switch (alter.action) {
      case AlterTableStmt::Action::kAddColumn:
        SL_RETURN_IF_ERROR(db_->AddColumn(alter.table, alter.column.name,
                                          alter.column.type,
                                          alter.column.max_length));
        result.message = "column added";
        break;
      case AlterTableStmt::Action::kDropColumn:
        SL_RETURN_IF_ERROR(db_->DropColumn(alter.table, alter.column.name));
        result.message = "column dropped";
        break;
      case AlterTableStmt::Action::kAlterColumnType:
        SL_RETURN_IF_ERROR(db_->AlterColumnType(alter.table, alter.column.name,
                                                alter.column.type));
        result.message = "column type altered";
        break;
    }
    return result;
  }
  if (stmt.create_index) {
    const CreateIndexStmt& create = *stmt.create_index;
    SL_RETURN_IF_ERROR(db_->CreateIndex(create.table, create.index,
                                        create.columns, create.unique));
    result.message = "index '" + create.index + "' created";
    return result;
  }
  if (stmt.insert) return ExecInsert(*stmt.insert);
  if (stmt.select) return ExecSelect(*stmt.select);
  if (stmt.update) return ExecUpdate(*stmt.update);
  if (stmt.del) return ExecDelete(*stmt.del);
  if (stmt.txn) return ExecTxn(*stmt.txn);
  if (stmt.ledger) return ExecLedger(*stmt.ledger);
  return Status::Internal("empty statement");
}

Result<SqlResultSet> SqlSession::ExecInsert(const InsertStmt& stmt) {
  // A row built against a plan a DDL has since replaced has the wrong
  // width or types, and the insert refuses it (InvalidArgument).
  auto ref = db_->GetTableRef(stmt.table);
  if (!ref.ok()) return ref.status();
  const std::vector<ColumnDef>& columns = ref->plan->visible_columns;

  // Map the statement's column list onto visible ordinals.
  std::vector<int> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < columns.size(); i++)
      targets.push_back(static_cast<int>(i));
  } else {
    for (const std::string& name : stmt.columns) {
      int idx = FindName(columns, name);
      if (idx < 0) return Status::NotFound("unknown column '" + name + "'");
      targets.push_back(idx);
    }
  }

  auto inserted = WithTransaction([&](Transaction* txn) -> Result<int64_t> {
    int64_t count = 0;
    for (const std::vector<Value>& literals : stmt.rows) {
      if (literals.size() != targets.size())
        return Status::InvalidArgument(
            "VALUES arity does not match the column list");
      std::vector<Value> row;
      for (const ColumnDef& col : columns)
        row.push_back(Value::Null(col.type));
      for (size_t i = 0; i < targets.size(); i++) {
        auto coerced = CoerceLiteral(literals[i], columns[targets[i]]);
        if (!coerced.ok()) return coerced.status();
        row[static_cast<size_t>(targets[i])] = std::move(*coerced);
      }
      SL_RETURN_IF_ERROR(db_->Insert(txn, stmt.table, row));
      count++;
    }
    return count;
  });
  if (!inserted.ok()) return inserted.status();

  SqlResultSet result;
  result.affected_rows = *inserted;
  result.message = std::to_string(*inserted) + " row(s) inserted";
  return result;
}

namespace {
const char* AggregateFnName(SqlAggregate::Fn fn) {
  switch (fn) {
    case SqlAggregate::Fn::kCount:
      return "count";
    case SqlAggregate::Fn::kSum:
      return "sum";
    case SqlAggregate::Fn::kMin:
      return "min";
    case SqlAggregate::Fn::kMax:
      return "max";
    case SqlAggregate::Fn::kAvg:
      return "avg";
  }
  return "?";
}

Result<Value> EvalAggregate(const SqlAggregate& agg,
                            const std::vector<ColumnDef>& columns,
                            const std::vector<Row>& rows) {
  if (agg.fn == SqlAggregate::Fn::kCount && agg.column.empty())
    return Value::BigInt(static_cast<int64_t>(rows.size()));
  int idx = FindName(columns, agg.column);
  if (idx < 0)
    return Status::NotFound("unknown column '" + agg.column +
                            "' in aggregate");
  size_t i = static_cast<size_t>(idx);

  if (agg.fn == SqlAggregate::Fn::kCount) {
    int64_t count = 0;
    for (const Row& row : rows)
      if (!row[i].is_null()) count++;
    return Value::BigInt(count);
  }
  if (agg.fn == SqlAggregate::Fn::kMin || agg.fn == SqlAggregate::Fn::kMax) {
    const Row* best = nullptr;
    for (const Row& row : rows) {
      if (row[i].is_null()) continue;
      if (best == nullptr ||
          (agg.fn == SqlAggregate::Fn::kMin ? row[i].Compare((*best)[i]) < 0
                                            : row[i].Compare((*best)[i]) > 0))
        best = &row;
    }
    if (best == nullptr) return Value::Null(columns[i].type);
    return Value((*best)[i]);
  }
  // SUM / AVG: numeric columns only.
  DataType type = columns[i].type;
  bool is_double = type == DataType::kDouble;
  bool is_integral = type == DataType::kSmallInt || type == DataType::kInt ||
                     type == DataType::kBigInt;
  if (!is_double && !is_integral)
    return Status::InvalidArgument(std::string(AggregateFnName(agg.fn)) +
                                   " requires a numeric column");
  double dsum = 0;
  int64_t isum = 0;
  int64_t count = 0;
  for (const Row& row : rows) {
    if (row[i].is_null()) continue;
    if (is_double)
      dsum += row[i].double_value();
    else
      isum += row[i].AsInt64();
    count++;
  }
  if (agg.fn == SqlAggregate::Fn::kAvg) {
    if (count == 0) return Value::Null(DataType::kDouble);
    double total = is_double ? dsum : static_cast<double>(isum);
    return Value::Double(total / static_cast<double>(count));
  }
  return is_double ? Value::Double(dsum) : Value::BigInt(isum);
}
}  // namespace

std::string SqlAggregate::DisplayName() const {
  return std::string(AggregateFnName(fn)) + "(" +
         (column.empty() ? "*" : column) + ")";
}

Result<SqlResultSet> SqlSession::ExecSelect(const SelectStmt& stmt) {
  SqlResultSet result;
  auto ref = db_->GetTableRef(stmt.table);
  if (!ref.ok()) return ref.status();
  const TablePlan& plan = *ref->plan;
  std::vector<ColumnDef> columns = plan.visible_columns;
  std::vector<Row> source_rows;

  if (stmt.from_ledger_view) {
    auto view = db_->GetLedgerView(stmt.table);
    if (!view.ok()) return view.status();
    SL_RETURN_IF_ERROR(CheckPinned(db_, stmt.table, plan));
    // Extra columns appended by LEDGER_VIEW.
    columns.push_back({0, "operation", DataType::kVarchar, false, 0, false,
                       false});
    columns.push_back({0, "transaction_id", DataType::kBigInt, false, 0,
                       false, false});
    for (const LedgerViewRow& row : *view) {
      std::vector<Value> r = row.values.Values();
      r.push_back(Value::Varchar(row.operation));
      r.push_back(Value::BigInt(static_cast<int64_t>(row.transaction_id)));
      source_rows.emplace_back(r);
    }
  } else {
    // Point-lookup fast path: equality predicates covering the whole
    // primary key use a row-locked Get instead of a table-S scan.
    const std::vector<size_t>& key_positions = plan.user_key_positions;
    std::vector<Value> point_key;
    bool is_point = !key_positions.empty();
    for (size_t pos : key_positions) {
      const ColumnDef& key_col = columns[pos];
      bool found = false;
      for (const SqlPredicate& pred : stmt.where) {
        if (pred.op == SqlPredicate::Op::kEq && pred.column == key_col.name) {
          auto coerced = CoerceLiteral(pred.literal, key_col);
          if (!coerced.ok()) return coerced.status();
          point_key.push_back(std::move(*coerced));
          found = true;
          break;
        }
      }
      if (!found) {
        is_point = false;
        break;
      }
    }
    auto scanned = WithTransaction([&](Transaction* txn) -> Result<int64_t> {
      if (is_point) {
        auto row = db_->Get(txn, stmt.table, point_key);
        if (row.ok()) {
          source_rows.push_back(std::move(*row));
        } else if (!row.status().IsNotFound()) {
          return row.status();
        }
      } else {
        auto rows = db_->Scan(txn, stmt.table);
        if (!rows.ok()) return rows.status();
        source_rows = std::move(*rows);
      }
      SL_RETURN_IF_ERROR(CheckPinned(db_, stmt.table, plan));
      return static_cast<int64_t>(source_rows.size());
    });
    if (!scanned.ok()) return scanned.status();
  }

  // Filter.
  std::vector<Row> filtered;
  for (Row& row : source_rows) {
    auto keep = EvalPredicates(stmt.where, columns, row);
    if (!keep.ok()) return keep.status();
    if (*keep) filtered.push_back(std::move(row));
  }

  // Order.
  if (stmt.order_by) {
    int idx = FindName(columns, *stmt.order_by);
    if (idx < 0)
      return Status::NotFound("unknown ORDER BY column '" + *stmt.order_by +
                              "'");
    bool desc = stmt.order_desc;
    std::stable_sort(filtered.begin(), filtered.end(),
                     [idx, desc](const Row& a, const Row& b) {
                       int cmp = a[static_cast<size_t>(idx)].Compare(
                           b[static_cast<size_t>(idx)]);
                       return desc ? cmp > 0 : cmp < 0;
                     });
  }

  // Aggregates collapse the filtered set — into one row, or one row per
  // group under GROUP BY (group-value ordered).
  if (!stmt.aggregates.empty()) {
    std::vector<std::pair<const Value*, std::vector<Row>*>> groups;
    std::map<Value, std::vector<Row>> by_group;
    std::vector<Row> all;
    int group_idx = -1;
    if (stmt.group_by) {
      group_idx = FindName(columns, *stmt.group_by);
      if (group_idx < 0)
        return Status::NotFound("unknown GROUP BY column '" + *stmt.group_by +
                                "'");
      for (Row& row : filtered)
        by_group[row[static_cast<size_t>(group_idx)]].push_back(
            std::move(row));
      for (auto& [key, rows] : by_group) groups.emplace_back(&key, &rows);
      result.column_names.push_back(*stmt.group_by);
    } else {
      all = std::move(filtered);
      groups.emplace_back(nullptr, &all);
    }
    for (const SqlAggregate& agg : stmt.aggregates)
      result.column_names.push_back(agg.DisplayName());

    for (auto& [group_value, rows] : groups) {
      std::vector<Value> out_row;
      if (group_value != nullptr) out_row.push_back(*group_value);
      for (const SqlAggregate& agg : stmt.aggregates) {
        auto value = EvalAggregate(agg, columns, *rows);
        if (!value.ok()) return value.status();
        out_row.push_back(std::move(*value));
      }
      result.rows.emplace_back(out_row);
    }
    result.affected_rows = static_cast<int64_t>(result.rows.size());
    return result;
  }

  // Limit.
  if (stmt.limit && filtered.size() > static_cast<size_t>(*stmt.limit))
    filtered.resize(static_cast<size_t>(*stmt.limit));

  // Project.
  std::vector<size_t> projection;
  if (stmt.columns.size() == 1 && stmt.columns[0] == "*") {
    for (size_t i = 0; i < columns.size(); i++) projection.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      int idx = FindName(columns, name);
      if (idx < 0) return Status::NotFound("unknown column '" + name + "'");
      projection.push_back(static_cast<size_t>(idx));
    }
  }
  for (size_t idx : projection)
    result.column_names.push_back(columns[idx].name);
  for (const Row& row : filtered) result.rows.push_back(row.Project(projection));
  result.affected_rows = static_cast<int64_t>(result.rows.size());
  return result;
}

Result<SqlResultSet> SqlSession::ExecUpdate(const UpdateStmt& stmt) {
  auto ref = db_->GetTableRef(stmt.table);
  if (!ref.ok()) return ref.status();
  const std::vector<ColumnDef>& columns = ref->plan->visible_columns;

  auto updated = WithTransaction([&](Transaction* txn) -> Result<int64_t> {
    auto rows = db_->Scan(txn, stmt.table);
    if (!rows.ok()) return rows.status();
    SL_RETURN_IF_ERROR(CheckPinned(db_, stmt.table, *ref->plan));
    int64_t count = 0;
    for (Row& row : *rows) {
      auto match = EvalPredicates(stmt.where, columns, row);
      if (!match.ok()) return match.status();
      if (!*match) continue;
      Row new_row = row;
      for (const auto& [name, literal] : stmt.assignments) {
        int idx = FindName(columns, name);
        if (idx < 0) return Status::NotFound("unknown column '" + name + "'");
        auto coerced = CoerceLiteral(literal, columns[idx]);
        if (!coerced.ok()) return coerced.status();
        new_row[static_cast<size_t>(idx)] = std::move(*coerced);
      }
      SL_RETURN_IF_ERROR(db_->Update(txn, stmt.table, new_row));
      count++;
    }
    return count;
  });
  if (!updated.ok()) return updated.status();

  SqlResultSet result;
  result.affected_rows = *updated;
  result.message = std::to_string(*updated) + " row(s) updated";
  return result;
}

Result<SqlResultSet> SqlSession::ExecDelete(const DeleteStmt& stmt) {
  auto ref = db_->GetTableRef(stmt.table);
  if (!ref.ok()) return ref.status();
  const TablePlan& plan = *ref->plan;

  auto deleted = WithTransaction([&](Transaction* txn) -> Result<int64_t> {
    auto rows = db_->Scan(txn, stmt.table);
    if (!rows.ok()) return rows.status();
    SL_RETURN_IF_ERROR(CheckPinned(db_, stmt.table, plan));
    int64_t count = 0;
    for (const Row& row : *rows) {
      auto match = EvalPredicates(stmt.where, plan.visible_columns, row);
      if (!match.ok()) return match.status();
      if (!*match) continue;
      SL_RETURN_IF_ERROR(
          db_->Delete(txn, stmt.table, row.Project(plan.user_key_positions)));
      count++;
    }
    return count;
  });
  if (!deleted.ok()) return deleted.status();

  SqlResultSet result;
  result.affected_rows = *deleted;
  result.message = std::to_string(*deleted) + " row(s) deleted";
  return result;
}

Result<SqlResultSet> SqlSession::ExecTxn(const TxnStmt& stmt) {
  SqlResultSet result;
  switch (stmt.kind) {
    case TxnStmt::Kind::kBegin: {
      if (txn_ != nullptr)
        return Status::InvalidArgument("a transaction is already open");
      auto txn = db_->Begin(user_);
      if (!txn.ok()) return txn.status();
      txn_ = *txn;
      result.message = "transaction started";
      return result;
    }
    case TxnStmt::Kind::kCommit: {
      if (txn_ == nullptr)
        return Status::InvalidArgument("no open transaction");
      Status st = db_->Commit(txn_);
      txn_ = nullptr;
      SL_RETURN_IF_ERROR(st);
      result.message = "committed";
      return result;
    }
    case TxnStmt::Kind::kRollback: {
      if (txn_ == nullptr)
        return Status::InvalidArgument("no open transaction");
      db_->Abort(txn_);
      txn_ = nullptr;
      result.message = "rolled back";
      return result;
    }
    case TxnStmt::Kind::kSavepoint: {
      if (txn_ == nullptr)
        return Status::InvalidArgument("SAVEPOINT requires an open "
                                       "transaction");
      SL_RETURN_IF_ERROR(db_->Savepoint(txn_, stmt.savepoint));
      result.message = "savepoint '" + stmt.savepoint + "' created";
      return result;
    }
    case TxnStmt::Kind::kRollbackTo: {
      if (txn_ == nullptr)
        return Status::InvalidArgument("no open transaction");
      SL_RETURN_IF_ERROR(db_->RollbackToSavepoint(txn_, stmt.savepoint));
      result.message = "rolled back to savepoint '" + stmt.savepoint + "'";
      return result;
    }
  }
  return Status::Internal("unreachable");
}

Result<SqlResultSet> SqlSession::ExecLedger(const LedgerStmt& stmt) {
  SqlResultSet result;
  if (stmt.kind == LedgerStmt::Kind::kGenerateDigest) {
    if (txn_ != nullptr)
      return Status::InvalidArgument(
          "GENERATE DIGEST cannot run inside a transaction");
    auto digest = db_->GenerateDigest();
    if (!digest.ok()) return digest.status();
    result.message = digest->ToJson();
    return result;
  }
  // VERIFY LEDGER: internal-consistency verification (no external digests
  // from SQL; use the C++ API for digest-anchored verification).
  if (txn_ != nullptr)
    return Status::InvalidArgument(
        "VERIFY LEDGER cannot run inside a transaction");
  auto report = VerifyLedger(db_, {});
  if (!report.ok()) return report.status();
  result.message = report->Summary();
  if (!report->ok())
    return Status::IntegrityViolation(result.message);
  return result;
}

}  // namespace sqlledger

// SqlSession: executes SQL statements against a LedgerDatabase, managing
// autocommit vs explicit transactions — the interactive surface of the
// system (see examples/sql_repl.cpp).

#ifndef SQLLEDGER_SQL_SESSION_H_
#define SQLLEDGER_SQL_SESSION_H_

#include <string>
#include <vector>

#include "ledger/ledger_database.h"
#include "sql/ast.h"
#include "util/result.h"

namespace sqlledger {

/// The outcome of one statement: either a rowset (SELECT) or a message plus
/// an affected-row count.
struct SqlResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  std::string message;
  int64_t affected_rows = 0;

  /// Renders the rowset as an aligned text table (or the message).
  std::string ToString() const;
};

class SqlSession {
 public:
  explicit SqlSession(LedgerDatabase* db, std::string user = "sql");
  ~SqlSession();

  SqlSession(const SqlSession&) = delete;
  SqlSession& operator=(const SqlSession&) = delete;

  /// Parses and executes one statement. DML outside BEGIN...COMMIT runs in
  /// its own autocommitted transaction. On error inside an explicit
  /// transaction the transaction stays open (the caller decides whether to
  /// ROLLBACK), matching interactive-database conventions.
  Result<SqlResultSet> Execute(const std::string& sql);

  bool in_transaction() const { return txn_ != nullptr; }

 private:
  Result<SqlResultSet> Dispatch(const SqlStatement& stmt);
  Result<SqlResultSet> ExecInsert(const InsertStmt& stmt);
  Result<SqlResultSet> ExecSelect(const SelectStmt& stmt);
  Result<SqlResultSet> ExecUpdate(const UpdateStmt& stmt);
  Result<SqlResultSet> ExecDelete(const DeleteStmt& stmt);
  Result<SqlResultSet> ExecTxn(const TxnStmt& stmt);
  Result<SqlResultSet> ExecLedger(const LedgerStmt& stmt);

  /// Runs `body` in the session's open transaction, or in a fresh
  /// autocommitted one.
  Result<int64_t> WithTransaction(
      const std::function<Result<int64_t>(Transaction*)>& body);

  LedgerDatabase* db_;
  std::string user_;
  Transaction* txn_ = nullptr;
};

/// Coerces a parsed literal to a column's declared type (BIGINT literals
/// into INT columns, typed NULLs, etc.). Exposed for tests.
Result<Value> CoerceLiteral(const Value& literal, const ColumnDef& column);

/// Evaluates a WHERE conjunction against a visible row.
Result<bool> EvalPredicates(const std::vector<SqlPredicate>& predicates,
                            const std::vector<ColumnDef>& columns,
                            const Row& row);

}  // namespace sqlledger

#endif  // SQLLEDGER_SQL_SESSION_H_

// SQL front-end tests: lexer, parser, and end-to-end execution through
// SqlSession, including the ledger extensions.

#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "test_util.h"

namespace sqlledger {
namespace {

// ---- Lexer ----

TEST(SqlLexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a_1, 'it''s', 42, 1.5 FROM t -- comment");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. separators and end token
  EXPECT_EQ((*tokens)[0].upper, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "a_1");
  EXPECT_EQ((*tokens)[3].text, "it's");
  EXPECT_EQ((*tokens)[5].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[7].float_value, 1.5);
  EXPECT_EQ((*tokens)[9].text, "t");
  EXPECT_EQ((*tokens)[10].type, TokenType::kEnd);
}

TEST(SqlLexerTest, Operators) {
  auto tokens = Tokenize("<= >= <> != = < > ( ) , ; * -");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "<=");
  EXPECT_EQ((*tokens)[2].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "!=");
}

TEST(SqlLexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @x").ok());
}

// ---- Parser ----

TEST(SqlParserTest, CreateTableWithLedger) {
  auto stmt = ParseSql(
      "CREATE TABLE accounts (name VARCHAR(32) NOT NULL, balance BIGINT, "
      "PRIMARY KEY (name)) WITH (LEDGER = ON)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->create_table.has_value());
  const CreateTableStmt& create = *stmt->create_table;
  EXPECT_EQ(create.table, "accounts");
  ASSERT_EQ(create.columns.size(), 2u);
  EXPECT_EQ(create.columns[0].max_length, 32u);
  EXPECT_FALSE(create.columns[0].nullable);
  EXPECT_TRUE(create.columns[1].nullable);
  EXPECT_EQ(create.primary_key, (std::vector<std::string>{"name"}));
  EXPECT_EQ(create.kind, TableKind::kUpdateable);
}

TEST(SqlParserTest, CreateAppendOnly) {
  auto stmt = ParseSql(
      "CREATE TABLE log (id BIGINT NOT NULL, PRIMARY KEY (id)) "
      "WITH (LEDGER = ON, APPEND_ONLY = ON)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->create_table->kind, TableKind::kAppendOnly);
}

TEST(SqlParserTest, SelectFull) {
  auto stmt = ParseSql(
      "SELECT name, balance FROM accounts WHERE balance >= 100 AND name <> "
      "'Joe' ORDER BY balance DESC LIMIT 5;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& select = *stmt->select;
  EXPECT_EQ(select.columns.size(), 2u);
  ASSERT_EQ(select.where.size(), 2u);
  EXPECT_EQ(select.where[0].op, SqlPredicate::Op::kGe);
  EXPECT_EQ(select.where[1].op, SqlPredicate::Op::kNe);
  EXPECT_EQ(*select.order_by, "balance");
  EXPECT_TRUE(select.order_desc);
  EXPECT_EQ(*select.limit, 5);
}

TEST(SqlParserTest, SelectLedgerView) {
  auto stmt = ParseSql("SELECT * FROM LEDGER_VIEW(accounts)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select->from_ledger_view);
  EXPECT_EQ(stmt->select->table, "accounts");
}

TEST(SqlParserTest, InsertMultiRow) {
  auto stmt = ParseSql(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL), (3, TRUE)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->insert->rows.size(), 3u);
  EXPECT_EQ(stmt->insert->rows[1][0].AsInt64(), -2);
  EXPECT_TRUE(stmt->insert->rows[1][1].is_null());
  EXPECT_TRUE(stmt->insert->rows[2][1].bool_value());
}

TEST(SqlParserTest, UpdateDeleteTxn) {
  EXPECT_TRUE(ParseSql("UPDATE t SET a = 1, b = 'x' WHERE id = 3").ok());
  EXPECT_TRUE(ParseSql("DELETE FROM t WHERE id > 10").ok());
  EXPECT_TRUE(ParseSql("BEGIN").ok());
  EXPECT_TRUE(ParseSql("COMMIT").ok());
  EXPECT_TRUE(ParseSql("ROLLBACK").ok());
  EXPECT_TRUE(ParseSql("SAVEPOINT sp1").ok());
  auto stmt = ParseSql("ROLLBACK TO SAVEPOINT sp1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->txn->kind, TxnStmt::Kind::kRollbackTo);
  EXPECT_EQ(stmt->txn->savepoint, "sp1");
}

TEST(SqlParserTest, LedgerStatements) {
  auto digest = ParseSql("GENERATE DIGEST");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->ledger->kind, LedgerStmt::Kind::kGenerateDigest);
  auto verify = ParseSql("VERIFY LEDGER");
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->ledger->kind, LedgerStmt::Kind::kVerifyLedger);
}

TEST(SqlParserTest, AlterForms) {
  EXPECT_TRUE(ParseSql("ALTER TABLE t ADD COLUMN c VARCHAR(10)").ok());
  EXPECT_TRUE(ParseSql("ALTER TABLE t DROP COLUMN c").ok());
  auto stmt = ParseSql("ALTER TABLE t ALTER COLUMN c BIGINT");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->alter_table->action,
            AlterTableStmt::Action::kAlterColumnType);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELEKT * FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUES (1) garbage").ok());
  EXPECT_FALSE(ParseSql("CREATE TABLE t (a INT, PRIMARY KEY (b)").ok());
  EXPECT_FALSE(ParseSql("").ok());
  // Semantic errors (unknown PK column) surface at execution time.
  auto db = OpenTestDb(16);
  SqlSession session(db.get());
  EXPECT_FALSE(
      session.Execute("CREATE TABLE t (a INT, PRIMARY KEY (b))").ok());
}

// ---- Execution ----

class SqlSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenTestDb(/*block_size=*/16);
    session_ = std::make_unique<SqlSession>(db_.get(), "tester");
    Must(
        "CREATE TABLE accounts (name VARCHAR(32) NOT NULL, balance BIGINT "
        "NOT NULL, PRIMARY KEY (name)) WITH (LEDGER = ON)");
  }

  SqlResultSet Must(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : SqlResultSet{};
  }

  std::unique_ptr<LedgerDatabase> db_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(SqlSessionTest, InsertSelectRoundTrip) {
  Must("INSERT INTO accounts VALUES ('Nick', 50), ('John', 500)");
  SqlResultSet result = Must("SELECT * FROM accounts ORDER BY name");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.column_names[0], "name");
  EXPECT_EQ(result.rows[0][0].string_value(), "John");
  EXPECT_EQ(result.rows[1][1].AsInt64(), 50);
}

TEST_F(SqlSessionTest, WhereOrderLimit) {
  Must("INSERT INTO accounts VALUES ('a', 10), ('b', 20), ('c', 30), "
       "('d', 40)");
  SqlResultSet result = Must(
      "SELECT name FROM accounts WHERE balance > 10 AND balance <= 40 "
      "ORDER BY balance DESC LIMIT 2");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].string_value(), "d");
  EXPECT_EQ(result.rows[1][0].string_value(), "c");
}

TEST_F(SqlSessionTest, UpdateAndDeleteWithPredicates) {
  Must("INSERT INTO accounts VALUES ('a', 10), ('b', 20), ('c', 30)");
  SqlResultSet updated =
      Must("UPDATE accounts SET balance = 99 WHERE balance >= 20");
  EXPECT_EQ(updated.affected_rows, 2);
  SqlResultSet deleted = Must("DELETE FROM accounts WHERE name = 'a'");
  EXPECT_EQ(deleted.affected_rows, 1);
  SqlResultSet rest = Must("SELECT * FROM accounts ORDER BY name");
  ASSERT_EQ(rest.rows.size(), 2u);
  EXPECT_EQ(rest.rows[0][1].AsInt64(), 99);
}

TEST_F(SqlSessionTest, ExplicitTransactionWithSavepoint) {
  Must("BEGIN");
  EXPECT_TRUE(session_->in_transaction());
  Must("INSERT INTO accounts VALUES ('kept', 1)");
  Must("SAVEPOINT sp");
  Must("INSERT INTO accounts VALUES ('discarded', 2)");
  Must("ROLLBACK TO SAVEPOINT sp");
  Must("COMMIT");
  EXPECT_FALSE(session_->in_transaction());
  SqlResultSet result = Must("SELECT * FROM accounts");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].string_value(), "kept");
}

TEST_F(SqlSessionTest, RollbackDiscardsEverything) {
  Must("BEGIN");
  Must("INSERT INTO accounts VALUES ('ghost', 1)");
  Must("ROLLBACK");
  EXPECT_EQ(Must("SELECT * FROM accounts").rows.size(), 0u);
}

TEST_F(SqlSessionTest, LedgerViewFromSql) {
  Must("INSERT INTO accounts VALUES ('Nick', 50)");
  Must("UPDATE accounts SET balance = 100 WHERE name = 'Nick'");
  SqlResultSet view = Must("SELECT * FROM LEDGER_VIEW(accounts)");
  ASSERT_EQ(view.rows.size(), 3u);  // INSERT, DELETE(50), INSERT(100)
  EXPECT_EQ(view.column_names.back(), "transaction_id");
  // Filter the view like any relation.
  SqlResultSet deletes = Must(
      "SELECT name, balance FROM LEDGER_VIEW(accounts) WHERE operation = "
      "'DELETE'");
  ASSERT_EQ(deletes.rows.size(), 1u);
  EXPECT_EQ(deletes.rows[0][1].AsInt64(), 50);
}

TEST_F(SqlSessionTest, GenerateDigestAndVerify) {
  Must("INSERT INTO accounts VALUES ('Nick', 50)");
  SqlResultSet digest = Must("GENERATE DIGEST");
  EXPECT_NE(digest.message.find("block_hash"), std::string::npos);
  SqlResultSet verify = Must("VERIFY LEDGER");
  EXPECT_NE(verify.message.find("VERIFICATION PASSED"), std::string::npos);
}

TEST_F(SqlSessionTest, VerifyFailsAfterTampering) {
  Must("INSERT INTO accounts VALUES ('Nick', 50)");
  Must("GENERATE DIGEST");
  TableStore* store = db_->GetStoreForTesting("accounts");
  Row* row = store->mutable_clustered()->MutableGet({Value::Varchar("Nick")});
  (*row)[1] = Value::BigInt(999);
  auto result = session_->Execute("VERIFY LEDGER");
  EXPECT_TRUE(result.status().IsIntegrityViolation());
}

TEST_F(SqlSessionTest, SchemaChangesFromSql) {
  Must("INSERT INTO accounts VALUES ('Nick', 50)");
  Must("ALTER TABLE accounts ADD COLUMN email VARCHAR(64)");
  Must("UPDATE accounts SET email = 'n@x.com' WHERE name = 'Nick'");
  SqlResultSet result = Must("SELECT email FROM accounts");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].string_value(), "n@x.com");
  Must("ALTER TABLE accounts DROP COLUMN email");
  EXPECT_FALSE(session_->Execute("SELECT email FROM accounts").ok());
  SqlResultSet verify = Must("VERIFY LEDGER");
  EXPECT_NE(verify.message.find("PASSED"), std::string::npos);
}

TEST_F(SqlSessionTest, CreateIndexAndDropTable) {
  Must("CREATE INDEX by_balance ON accounts (balance)");
  Must("INSERT INTO accounts VALUES ('a', 1)");
  Must("DROP TABLE accounts");
  EXPECT_FALSE(session_->Execute("SELECT * FROM accounts").ok());
}

// An UPDATE onto another row's UNIQUE value fails without effect, on a
// regular and on an updateable ledger table; the enclosing transaction still
// commits and verifies.
TEST_F(SqlSessionTest, UpdateRespectsUniqueIndex) {
  Must("CREATE TABLE people (id BIGINT NOT NULL, name VARCHAR(16), "
       "PRIMARY KEY (id))");
  Must("CREATE UNIQUE INDEX uniq_name ON people (name)");
  Must("CREATE UNIQUE INDEX uniq_balance ON accounts (balance)");
  Must("INSERT INTO people VALUES (1, 'a'), (2, 'b')");
  Must("INSERT INTO accounts VALUES ('a', 1), ('b', 2)");
  Must("BEGIN");
  for (const char* sql : {"UPDATE people SET name = 'a' WHERE id = 2",
                          "UPDATE accounts SET balance = 1 WHERE name = 'b'"}) {
    EXPECT_EQ(session_->Execute(sql).status().code(),
              StatusCode::kAlreadyExists)
        << sql;
  }
  Must("COMMIT");
  EXPECT_EQ(Must("SELECT * FROM people WHERE name = 'a'").rows.size(), 1u);
  EXPECT_EQ(Must("SELECT * FROM accounts WHERE balance = 1").rows.size(), 1u);
  SqlResultSet verify = Must("VERIFY LEDGER");
  EXPECT_NE(verify.message.find("VERIFICATION PASSED"), std::string::npos);
}

TEST_F(SqlSessionTest, TypeCoercionAndErrors) {
  // BIGINT literal into BIGINT column, string into VARCHAR: fine. Overflow
  // and type mismatches report cleanly.
  Must("CREATE TABLE nums (id INT NOT NULL, small SMALLINT, PRIMARY KEY "
       "(id)) WITH (LEDGER = ON)");
  Must("INSERT INTO nums VALUES (1, 30000)");
  EXPECT_FALSE(session_->Execute("INSERT INTO nums VALUES (2, 40000)").ok());
  EXPECT_FALSE(
      session_->Execute("INSERT INTO nums VALUES ('x', 1)").ok());
  EXPECT_FALSE(session_->Execute("SELECT nope FROM nums").ok());
  EXPECT_FALSE(session_->Execute("SELECT * FROM missing").ok());
}

TEST_F(SqlSessionTest, AppendOnlyFromSql) {
  Must("CREATE TABLE audit (id BIGINT NOT NULL, note VARCHAR(64), PRIMARY "
       "KEY (id)) WITH (LEDGER = ON, APPEND_ONLY = ON)");
  Must("INSERT INTO audit VALUES (1, 'created')");
  EXPECT_FALSE(
      session_->Execute("UPDATE audit SET note = 'edited' WHERE id = 1").ok());
  EXPECT_FALSE(session_->Execute("DELETE FROM audit WHERE id = 1").ok());
}

TEST_F(SqlSessionTest, Aggregates) {
  Must("INSERT INTO accounts VALUES ('a', 10), ('b', 20), ('c', 30), "
       "('d', 40)");
  SqlResultSet result = Must(
      "SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance), "
      "AVG(balance) FROM accounts");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.column_names[0], "count(*)");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 4);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 100);
  EXPECT_EQ(result.rows[0][2].AsInt64(), 10);
  EXPECT_EQ(result.rows[0][3].AsInt64(), 40);
  EXPECT_DOUBLE_EQ(result.rows[0][4].double_value(), 25.0);

  // Aggregates respect WHERE.
  result = Must("SELECT COUNT(*) FROM accounts WHERE balance > 15");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 3);

  // SUM over non-numeric fails cleanly.
  EXPECT_FALSE(session_->Execute("SELECT SUM(name) FROM accounts").ok());
}

TEST_F(SqlSessionTest, AggregatesWithNulls) {
  Must("ALTER TABLE accounts ADD COLUMN rating BIGINT");
  Must("INSERT INTO accounts VALUES ('a', 1, 5), ('b', 2, NULL)");
  SqlResultSet result =
      Must("SELECT COUNT(rating), SUM(rating) FROM accounts");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 1);  // NULLs not counted
  EXPECT_EQ(result.rows[0][1].AsInt64(), 5);

  // MIN over an all-NULL set is NULL.
  Must("DELETE FROM accounts WHERE name = 'a'");
  result = Must("SELECT MIN(rating) FROM accounts");
  EXPECT_TRUE(result.rows[0][0].is_null());
}

TEST_F(SqlSessionTest, GroupBy) {
  Must("CREATE TABLE orders (id BIGINT NOT NULL, region VARCHAR(8) NOT "
       "NULL, amount BIGINT NOT NULL, PRIMARY KEY (id)) WITH (LEDGER = ON)");
  Must("INSERT INTO orders VALUES (1, 'east', 10), (2, 'west', 20), "
       "(3, 'east', 30), (4, 'west', 40), (5, 'east', 50)");
  SqlResultSet result = Must(
      "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.column_names[0], "region");
  EXPECT_EQ(result.rows[0][0].string_value(), "east");
  EXPECT_EQ(result.rows[0][1].AsInt64(), 3);
  EXPECT_EQ(result.rows[0][2].AsInt64(), 90);
  EXPECT_EQ(result.rows[1][0].string_value(), "west");
  EXPECT_EQ(result.rows[1][2].AsInt64(), 60);

  // GROUP BY respects WHERE.
  result = Must(
      "SELECT region, COUNT(*) FROM orders WHERE amount > 15 GROUP BY "
      "region");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 2);  // east: 30, 50

  // Malformed GROUP BY forms are rejected.
  EXPECT_FALSE(
      session_->Execute("SELECT region FROM orders GROUP BY region").ok());
  EXPECT_FALSE(session_->Execute(
                       "SELECT amount, COUNT(*) FROM orders GROUP BY region")
                   .ok());
  EXPECT_FALSE(
      session_->Execute("SELECT region, amount FROM orders GROUP BY region")
          .ok());
}

TEST_F(SqlSessionTest, IsNullPredicates) {
  Must("ALTER TABLE accounts ADD COLUMN email VARCHAR(32)");
  Must("INSERT INTO accounts VALUES ('a', 1, 'a@x'), ('b', 2, NULL)");
  SqlResultSet with_mail =
      Must("SELECT name FROM accounts WHERE email IS NOT NULL");
  ASSERT_EQ(with_mail.rows.size(), 1u);
  EXPECT_EQ(with_mail.rows[0][0].string_value(), "a");
  SqlResultSet without =
      Must("SELECT name FROM accounts WHERE email IS NULL");
  ASSERT_EQ(without.rows.size(), 1u);
  EXPECT_EQ(without.rows[0][0].string_value(), "b");
}

TEST_F(SqlSessionTest, PointLookupPath) {
  Must("INSERT INTO accounts VALUES ('a', 10), ('b', 20)");
  // Full-PK equality uses the point path; results must match a scan.
  SqlResultSet point = Must("SELECT balance FROM accounts WHERE name = 'b'");
  ASSERT_EQ(point.rows.size(), 1u);
  EXPECT_EQ(point.rows[0][0].AsInt64(), 20);
  // Point path + extra predicate that filters the row out.
  SqlResultSet none =
      Must("SELECT * FROM accounts WHERE name = 'b' AND balance < 5");
  EXPECT_EQ(none.rows.size(), 0u);
  // Missing key: empty, not an error.
  EXPECT_EQ(Must("SELECT * FROM accounts WHERE name = 'zz'").rows.size(), 0u);
}

TEST_F(SqlSessionTest, ResultSetFormatting) {
  Must("INSERT INTO accounts VALUES ('Nick', 50)");
  std::string text = Must("SELECT * FROM accounts").ToString();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("'Nick'"), std::string::npos);
  EXPECT_NE(text.find("(1 rows)"), std::string::npos);
}

}  // namespace
}  // namespace sqlledger

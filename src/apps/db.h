// A small relational engine standing in for SQLite in the section 5.4 web
// workload: typed tables, INSERT, and a SELECT subset sufficient for the
// TPC-W-style browsing queries the paper issues
// (SELECT cols FROM table WHERE col op value [ORDER BY col [DESC]] [LIMIT n]).
//
// Query execution is real (full scan, filter, sort, limit); the simulated
// cost charged by the serving process is derived from the rows scanned and
// returned, so the "bottlenecked at the SQLite server core" behavior of the
// paper reproduces.
//
// Copying a Database is cheap: copies share each table on the host until one
// side writes it (copy-on-write). A statement that changes rows first clones
// a table other copies still hold; reads and statements that fail or match
// no row never clone. Replicas are therefore one host catalog, while the
// simulated costs (rows scanned, state transfer per row) stay per replica.
// Thread rule: one Database object is used by one host thread at a time, but
// copies that share tables may be used by different threads. Reads never
// write a shared table, and a write first clones a table another copy holds
// (use_count() > 1). A table whose use_count() is 1 is held by no other
// Database, so no other thread can be reading it.
#ifndef MK_APPS_DB_H_
#define MK_APPS_DB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace mk::apps {

using DbValue = std::variant<std::int64_t, std::string>;

std::string DbValueToString(const DbValue& v);

struct DbError {
  std::string message;
};

class Database {
 public:
  // Executes CREATE TABLE t (col INT|TEXT, ...),
  // INSERT INTO t VALUES (v, ...),
  // UPDATE t SET col = lit [, col = lit]* [WHERE col op lit], or
  // DELETE FROM t [WHERE col op lit]. Returns an error message on failure.
  std::optional<DbError> Exec(const std::string& sql);

  struct ResultSet {
    std::vector<std::string> columns;
    std::vector<std::vector<DbValue>> rows;
    std::uint64_t rows_scanned = 0;  // cost basis for the simulation
  };

  // Executes a SELECT; supports column lists or *, WHERE with = != < <= > >=
  // on one column, ORDER BY col [DESC], LIMIT n.
  std::variant<ResultSet, DbError> Query(const std::string& sql) const;

  std::size_t TableRows(const std::string& name) const;
  // Rows across all tables: the size basis for replica state transfer.
  std::size_t TotalRows() const;
  bool HasTable(const std::string& name) const;
  // True when this database and `other` hold one host copy of table `name`:
  // neither has changed its rows since one was copied from the other.
  bool SharesTable(const Database& other, const std::string& name) const;

  // --- Write-path ledger (mutation accounting the store's invariants audit) ---

  // Rows inserted over the database's lifetime. On a store replica this must
  // equal the count of acknowledged INSERTs shipped to it — any drift means a
  // write was lost or double-applied.
  std::uint64_t rows_inserted() const { return rows_inserted_; }
  // Rows touched by the most recent successful UPDATE/DELETE (0 for other
  // statements), and the rows it scanned (the simulated-cost basis).
  std::uint64_t rows_changed() const { return rows_changed_; }
  std::uint64_t last_exec_scanned() const { return last_exec_scanned_; }

 private:
  struct Column {
    std::string name;
    bool is_int = true;
  };
  struct Table {
    std::vector<Column> columns;
    std::vector<std::vector<DbValue>> rows;
    int ColumnIndex(const std::string& name) const;
  };
  struct WhereClause {
    int col = -1;  // -1: no WHERE, every row matches
    std::string op;
    DbValue val;
    bool Matches(const std::vector<DbValue>& row) const;
  };
  // Makes `slot` the only holder of its table (clones it if other copies
  // share it) and returns it for writing. Call only once a statement is
  // about to change rows.
  static Table& Unshare(std::shared_ptr<Table>& slot);
  std::optional<DbError> ExecUpdate(class DbTokenizer& tok);
  std::optional<DbError> ExecDelete(class DbTokenizer& tok);
  static std::optional<DbError> ParseWhere(DbTokenizer& tok, const Table& table,
                                           WhereClause* out);
  std::map<std::string, std::shared_ptr<Table>> tables_;
  std::uint64_t rows_inserted_ = 0;
  std::uint64_t rows_changed_ = 0;
  std::uint64_t last_exec_scanned_ = 0;
};

}  // namespace mk::apps

#endif  // MK_APPS_DB_H_

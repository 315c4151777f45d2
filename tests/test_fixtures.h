#pragma once

// Shared fixtures for db-layer tests: a small single-table database modeled
// on the paper's NFL-suspensions running example, a two-table PK-FK
// database for join tests, and a per-test temporary directory.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "util/csv.h"

namespace aggchecker {
namespace testing_fixtures {

/// \brief A fresh temporary directory owned by one test, removed on
/// destruction.
///
/// gtest_discover_tests runs every TEST in its own process, so the pid in
/// the name keeps concurrently running tests (`ctest -j`) from sharing
/// on-disk state; `tag` keeps different test binaries apart.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("aggchecker_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  std::string path() const { return path_.string(); }
  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// CSV mirroring the paper's Figure 2(a) example: suspensions with games
/// ("indef" for lifetime bans) and categories.
inline const char* kNflCsv =
    "Name,Team,Games,Category\n"
    "A,ARI,indef,substance abuse repeated offense\n"
    "B,ATL,indef,substance abuse repeated offense\n"
    "C,BAL,indef,substance abuse repeated offense\n"
    "D,BUF,indef,gambling\n"
    "E,CAR,16,substance abuse\n"
    "F,CHI,8,personal conduct\n"
    "G,CIN,4,personal conduct\n"
    "H,CLE,4,substance abuse\n"
    "I,DAL,2,personal conduct\n"
    "J,DEN,1,substance abuse\n";

inline db::Database MakeNflDatabase() {
  auto data = csv::Parse(kNflCsv);
  auto table = db::Table::FromCsv("nflsuspensions", *data);
  db::Database database("nfl");
  (void)database.AddTable(std::move(*table));
  return database;
}

/// Two tables joined by a PK-FK edge: orders.customer_id -> customers.id.
inline db::Database MakeOrdersDatabase() {
  db::Database database("shop");
  {
    db::Table customers("customers");
    (void)customers.AddColumn("id", db::ValueType::kLong);
    (void)customers.AddColumn("region", db::ValueType::kString);
    (void)customers.AddRow({db::Value(int64_t{1}), db::Value("east")});
    (void)customers.AddRow({db::Value(int64_t{2}), db::Value("west")});
    (void)customers.AddRow({db::Value(int64_t{3}), db::Value("east")});
    (void)database.AddTable(std::move(customers));
  }
  {
    db::Table orders("orders");
    (void)orders.AddColumn("id", db::ValueType::kLong);
    (void)orders.AddColumn("customer_id", db::ValueType::kLong);
    (void)orders.AddColumn("amount", db::ValueType::kDouble);
    (void)orders.AddRow({db::Value(int64_t{10}), db::Value(int64_t{1}),
                         db::Value(5.0)});
    (void)orders.AddRow({db::Value(int64_t{11}), db::Value(int64_t{1}),
                         db::Value(7.5)});
    (void)orders.AddRow({db::Value(int64_t{12}), db::Value(int64_t{2}),
                         db::Value(2.5)});
    (void)orders.AddRow({db::Value(int64_t{13}), db::Value(int64_t{3}),
                         db::Value(10.0)});
    (void)orders.AddRow({db::Value(int64_t{14}), db::Value(int64_t{9}),
                         db::Value(99.0)});  // dangling FK, drops in join
    (void)database.AddTable(std::move(orders));
  }
  (void)database.AddForeignKey({"orders", "customer_id"},
                               {"customers", "id"});
  return database;
}

inline db::SimpleAggregateQuery CountStar(
    const std::string& table, std::vector<db::Predicate> preds = {}) {
  db::SimpleAggregateQuery q;
  q.fn = db::AggFn::kCount;
  q.agg_column = db::ColumnRef{table, ""};
  q.predicates = std::move(preds);
  return q;
}

}  // namespace testing_fixtures
}  // namespace aggchecker

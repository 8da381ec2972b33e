#include "host/db/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "sim/util.h"

namespace mcs::host::db {
namespace {

std::unique_ptr<Database> make_shop() {
  auto db = std::make_unique<Database>("shop");
  db->create_table("products", {{"id", ValueType::kInt},
                                {"name", ValueType::kText},
                                {"price", ValueType::kReal},
                                {"stock", ValueType::kInt}});
  return db;
}

TEST(ValueTest, TypeTagAndToString) {
  EXPECT_EQ(type_of(Value{std::int64_t{5}}), ValueType::kInt);
  EXPECT_EQ(type_of(Value{2.5}), ValueType::kReal);
  EXPECT_EQ(type_of(Value{std::string{"x"}}), ValueType::kText);
  EXPECT_EQ(to_string(Value{std::int64_t{42}}), "42");
  EXPECT_EQ(to_string(Value{std::string{"abc"}}), "abc");
}

TEST(ValueTest, ParseRoundTrip) {
  EXPECT_EQ(std::get<std::int64_t>(parse_value("17", ValueType::kInt)), 17);
  EXPECT_DOUBLE_EQ(std::get<double>(parse_value("2.25", ValueType::kReal)),
                   2.25);
  EXPECT_EQ(std::get<std::string>(parse_value("hi", ValueType::kText)), "hi");
}

TEST(ValueTest, OrderingAndEquality) {
  EXPECT_TRUE(value_less(Value{std::int64_t{1}}, Value{std::int64_t{2}}));
  EXPECT_TRUE(value_less(Value{std::string{"a"}}, Value{std::string{"b"}}));
  EXPECT_TRUE(value_eq(Value{std::int64_t{3}}, Value{std::int64_t{3}}));
  EXPECT_FALSE(value_eq(Value{std::int64_t{3}}, Value{3.0}));
}

TEST(TableTest, InsertFindErase) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->insert({std::int64_t{1}, std::string{"Phone"}, 299.0,
                         std::int64_t{10}}));
  EXPECT_TRUE(t->insert({std::int64_t{2}, std::string{"Laptop"}, 999.0,
                         std::int64_t{5}}));
  EXPECT_EQ(t->size(), 2u);

  const Row* r = t->find(Value{std::int64_t{1}});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(std::get<std::string>((*r)[1]), "Phone");

  EXPECT_TRUE(t->erase(Value{std::int64_t{1}}));
  EXPECT_EQ(t->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_EQ(t->size(), 1u);
  EXPECT_FALSE(t->erase(Value{std::int64_t{1}}));  // already gone
}

TEST(TableTest, RejectsDuplicatePrimaryKey) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  EXPECT_TRUE(
      t->insert({std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}}));
  EXPECT_FALSE(
      t->insert({std::int64_t{1}, std::string{"B"}, 2.0, std::int64_t{2}}));
  EXPECT_EQ(t->size(), 1u);
}

TEST(TableTest, RejectsWrongArityOrTypes) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  EXPECT_FALSE(t->insert({std::int64_t{1}}));  // too few columns
  EXPECT_FALSE(t->insert({std::string{"not-an-int"}, std::string{"A"}, 1.0,
                          std::int64_t{1}}));  // wrong pk type
}

TEST(TableTest, UpdateCellAndPkChange) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  t->insert({std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}});
  t->insert({std::int64_t{2}, std::string{"B"}, 2.0, std::int64_t{2}});

  EXPECT_TRUE(t->update(Value{std::int64_t{1}}, 2, Value{5.5}));
  EXPECT_DOUBLE_EQ(std::get<double>((*t->find(Value{std::int64_t{1}}))[2]),
                   5.5);
  // PK update to a free key works; to a taken key fails.
  EXPECT_TRUE(t->update(Value{std::int64_t{1}}, 0, Value{std::int64_t{9}}));
  EXPECT_NE(t->find(Value{std::int64_t{9}}), nullptr);
  EXPECT_EQ(t->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_FALSE(t->update(Value{std::int64_t{9}}, 0, Value{std::int64_t{2}}));
}

TEST(TableTest, ScanWithPredicate) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  for (int i = 1; i <= 10; ++i) {
    t->insert({std::int64_t{i}, sim::strf("item%d", i), i * 10.0,
               std::int64_t{i % 3}});
  }
  const auto cheap = t->scan(
      [](const Row& r) { return std::get<double>(r[2]) < 45.0; });
  EXPECT_EQ(cheap.size(), 4u);  // 10,20,30,40
}

TEST(TableTest, SecondaryIndexFindBy) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  for (int i = 1; i <= 100; ++i) {
    t->insert({std::int64_t{i}, sim::strf("cat%d", i % 5), 1.0 * i,
               std::int64_t{i}});
  }
  t->create_index(1);
  EXPECT_TRUE(t->has_index(1));
  const auto rows = t->find_by(1, Value{std::string{"cat3"}});
  EXPECT_EQ(rows.size(), 20u);
  for (const auto& r : rows) {
    EXPECT_EQ(std::get<std::string>(r[1]), "cat3");
  }
  // Index stays correct across mutation.
  t->erase(Value{std::int64_t{3}});
  EXPECT_EQ(t->find_by(1, Value{std::string{"cat3"}}).size(), 19u);
  t->update(Value{std::int64_t{9}}, 1, Value{std::string{"cat3"}});
  EXPECT_EQ(t->find_by(1, Value{std::string{"cat3"}}).size(), 20u);
}

TEST(TableTest, SlotReuseAfterErase) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  for (int round = 0; round < 5; ++round) {
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(t->insert(
          {std::int64_t{i}, std::string{"x"}, 1.0, std::int64_t{0}}));
    }
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(t->erase(Value{std::int64_t{i}}));
    }
  }
  EXPECT_EQ(t->size(), 0u);
}

// Primary keys of `rows`, in order.
std::vector<std::int64_t> pks(const std::vector<Row>& rows) {
  std::vector<std::int64_t> out;
  for (const auto& r : rows) out.push_back(std::get<std::int64_t>(r[0]));
  return out;
}

TEST(TableTest, VisitorsMatchCopyingQueries) {
  auto db_ptr = make_shop();
  Table* t = db_ptr->table("products");
  t->create_index(1);  // name: duplicates, kept in insertion order
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(t->insert({std::int64_t{i}, sim::strf("cat%d", i % 3),
                           1.0 * i, std::int64_t{i % 2}}));
  }
  // Erase then insert: the free list is LIFO, so 9 takes 5's slot and 10
  // takes 2's, and slot order no longer matches key or insertion order.
  ASSERT_TRUE(t->erase(Value{std::int64_t{2}}));
  ASSERT_TRUE(t->erase(Value{std::int64_t{5}}));
  ASSERT_TRUE(t->insert({std::int64_t{9}, std::string{"cat0"}, 9.0,
                         std::int64_t{1}}));
  ASSERT_TRUE(t->insert({std::int64_t{10}, std::string{"cat1"}, 10.0,
                         std::int64_t{0}}));

  auto visit_all = [&] {
    std::vector<Row> out;
    t->each([&](const Row& r) { out.push_back(r); });
    return out;
  };
  auto visit_by = [&](std::size_t col, const Value& v) {
    std::vector<Row> out;
    t->each_by(col, v, [&](const Row& r) { out.push_back(r); });
    return out;
  };

  EXPECT_EQ(pks(visit_all()),
            (std::vector<std::int64_t>{1, 10, 3, 4, 9, 6, 7, 8}));
  EXPECT_EQ(visit_all(), t->all());

  // Primary-key column: zero or one row.
  const Value nine{std::int64_t{9}};
  const Value two{std::int64_t{2}};
  EXPECT_EQ(pks(visit_by(0, nine)), (std::vector<std::int64_t>{9}));
  EXPECT_EQ(visit_by(0, nine), t->find_by(0, nine));
  EXPECT_TRUE(visit_by(0, two).empty());
  EXPECT_TRUE(t->find_by(0, two).empty());

  // Indexed column with duplicates: index order, not slot order.
  const Value cat1{std::string{"cat1"}};
  EXPECT_EQ(pks(visit_by(1, cat1)), (std::vector<std::int64_t>{1, 4, 7, 10}));
  EXPECT_EQ(visit_by(1, cat1), t->find_by(1, cat1));
  ASSERT_TRUE(t->update(Value{std::int64_t{3}}, 1, cat1));
  EXPECT_EQ(pks(visit_by(1, cat1)),
            (std::vector<std::int64_t>{1, 4, 7, 10, 3}));
  EXPECT_EQ(visit_by(1, cat1), t->find_by(1, cat1));

  // Unindexed column: slot-order scan fallback.
  const Value even{std::int64_t{0}};
  EXPECT_FALSE(t->has_index(3));
  EXPECT_EQ(pks(visit_by(3, even)), (std::vector<std::int64_t>{10, 4, 6, 8}));
  EXPECT_EQ(visit_by(3, even), t->find_by(3, even));
  const Value price{6.0};
  EXPECT_EQ(pks(visit_by(2, price)), (std::vector<std::int64_t>{6}));
  EXPECT_EQ(visit_by(2, price), t->find_by(2, price));
}

// --- Row wire cache ----------------------------------------------------------
// each_line()/each_line_by() must always pass the encoding of the row as it
// is now: a line encoded before a mutation is never served after it.

int g_line_encodes = 0;

// A stand-in for the server's encoder: cells in to_string() form, '|'-joined.
void test_line(std::string& out, const Row& row) {
  ++g_line_encodes;
  out.clear();
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += '|';
    out += to_string(row[i]);
  }
}

std::string fresh_line(const Row& row) {
  std::string out;
  test_line(out, row);
  --g_line_encodes;  // the oracle's own encodes do not count
  return out;
}

// Every read path's lines equal a fresh encoding of the rows it visits.
void expect_lines_fresh(const Table& t) {
  std::vector<std::string> got;
  std::vector<std::string> want;
  t.each_line(test_line, [&](std::string_view l) { got.emplace_back(l); });
  t.each([&](const Row& r) { want.push_back(fresh_line(r)); });
  EXPECT_EQ(got, want);
  t.each([&](const Row& r) {
    for (std::size_t col = 0; col < r.size(); ++col) {
      std::vector<std::string> by_got;
      std::vector<std::string> by_want;
      t.each_line_by(col, r[col], test_line,
                     [&](std::string_view l) { by_got.emplace_back(l); });
      t.each_by(col, r[col],
                [&](const Row& m) { by_want.push_back(fresh_line(m)); });
      EXPECT_EQ(by_got, by_want) << "column " << col;
    }
  });
}

std::vector<std::string> lines_by(const Table& t, std::size_t col,
                                  const Value& v) {
  std::vector<std::string> out;
  t.each_line_by(col, v, test_line,
                 [&](std::string_view l) { out.emplace_back(l); });
  return out;
}

TEST(TableLineCacheTest, EncodesOncePerWriteNotPerRead) {
  auto db_ptr = make_shop();
  Table* t = db_ptr->table("products");
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(t->insert({std::int64_t{i}, sim::strf("item %d", i),
                           1.25 * i, std::int64_t{100}}));
  }
  g_line_encodes = 0;
  for (int read = 0; read < 5; ++read) {
    t->each_line(test_line, [](std::string_view) {});
  }
  EXPECT_EQ(g_line_encodes, 4);
  // One sale touches one row: the next scan re-encodes that row only.
  ASSERT_TRUE(t->update(Value{std::int64_t{3}}, 3, Value{std::int64_t{99}}));
  t->each_line(test_line, [](std::string_view) {});
  t->each_line(test_line, [](std::string_view) {});
  EXPECT_EQ(g_line_encodes, 5);
  EXPECT_EQ(lines_by(*t, 0, Value{std::int64_t{3}}),
            (std::vector<std::string>{"3|item 3|3.75|99"}));
  EXPECT_EQ(g_line_encodes, 5);
}

TEST(TableLineCacheTest, EveryMutationInvalidatesItsSlot) {
  auto db_ptr = make_shop();
  Table* t = db_ptr->table("products");
  t->create_index(1);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(t->insert({std::int64_t{i}, sim::strf("cat%d", i % 2),
                           0.5 * i, std::int64_t{i}}));
  }
  expect_lines_fresh(*t);
  // Non-key update, on an indexed and an unindexed column.
  ASSERT_TRUE(t->update(Value{std::int64_t{2}}, 2, Value{7.125}));
  expect_lines_fresh(*t);
  ASSERT_TRUE(t->update(Value{std::int64_t{2}}, 1, Value{std::string{"cat9"}}));
  expect_lines_fresh(*t);
  // Primary-key move: the row answers under its new key only.
  ASSERT_TRUE(t->update(Value{std::int64_t{3}}, 0, Value{std::int64_t{30}}));
  expect_lines_fresh(*t);
  EXPECT_TRUE(lines_by(*t, 0, Value{std::int64_t{3}}).empty());
  EXPECT_EQ(lines_by(*t, 0, Value{std::int64_t{30}}),
            (std::vector<std::string>{"30|cat1|1.5|3"}));
  // Whole-row replacement, including a key change.
  ASSERT_TRUE(t->update_row(Value{std::int64_t{4}},
                            {std::int64_t{40}, std::string{"new"}, 4.5,
                             std::int64_t{0}}));
  expect_lines_fresh(*t);
  // Erase, then an insert that reuses the erased slot.
  ASSERT_TRUE(t->erase(Value{std::int64_t{5}}));
  expect_lines_fresh(*t);
  ASSERT_TRUE(t->insert({std::int64_t{50}, std::string{"reused"}, 5.5,
                         std::int64_t{5}}));
  expect_lines_fresh(*t);
  EXPECT_EQ(lines_by(*t, 0, Value{std::int64_t{50}}),
            (std::vector<std::string>{"50|reused|5.5|5"}));
}

TEST(TableLineCacheTest, RolledBackTransactionServesTheRestoredRows) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  for (int i = 1; i <= 4; ++i) {
    db.insert("products", {std::int64_t{i}, sim::strf("p%d", i), 1.0 * i,
                           std::int64_t{10}});
  }
  expect_lines_fresh(*t);
  std::vector<std::string> before;
  t->each_line(test_line, [&](std::string_view l) { before.emplace_back(l); });
  auto txn = db.begin();
  ASSERT_TRUE(txn->update("products", Value{std::int64_t{1}}, 3,
                          Value{std::int64_t{9}}));
  ASSERT_TRUE(txn->update("products", Value{std::int64_t{2}}, 0,
                          Value{std::int64_t{20}}));
  ASSERT_TRUE(txn->erase("products", Value{std::int64_t{3}}));
  ASSERT_TRUE(txn->insert("products", {std::int64_t{5}, std::string{"tmp"},
                                       5.0, std::int64_t{1}}));
  // Reads inside the transaction fill the cache with its uncommitted rows.
  expect_lines_fresh(*t);
  txn->abort();
  expect_lines_fresh(*t);
  std::vector<std::string> after;
  t->each_line(test_line, [&](std::string_view l) { after.emplace_back(l); });
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(after, before);
}

TEST(TransactionTest, CommitPersists) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  auto txn = db.begin();
  EXPECT_TRUE(txn->insert("products", {std::int64_t{1}, std::string{"A"}, 1.0,
                                       std::int64_t{1}}));
  EXPECT_TRUE(txn->commit());
  EXPECT_NE(db.table("products")->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_EQ(db.committed_txns(), 1u);
}

TEST(TransactionTest, AbortRollsBackAllOps) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  db.insert("products",
            {std::int64_t{1}, std::string{"keep"}, 1.0, std::int64_t{7}});
  auto txn = db.begin();
  EXPECT_TRUE(txn->insert("products", {std::int64_t{2}, std::string{"new"},
                                       2.0, std::int64_t{2}}));
  EXPECT_TRUE(txn->update("products", Value{std::int64_t{1}}, 3,
                          Value{std::int64_t{99}}));
  EXPECT_TRUE(txn->erase("products", Value{std::int64_t{1}}));
  txn->abort();

  Table* t = db.table("products");
  EXPECT_EQ(t->size(), 1u);
  const Row* r = t->find(Value{std::int64_t{1}});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(std::get<std::int64_t>((*r)[3]), 7);  // update rolled back
  EXPECT_EQ(t->find(Value{std::int64_t{2}}), nullptr);
}

TEST(TransactionTest, DestructorAbortsActiveTxn) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  {
    auto txn = db.begin();
    txn->insert("products",
                {std::int64_t{5}, std::string{"tmp"}, 1.0, std::int64_t{1}});
  }
  EXPECT_EQ(db.table("products")->size(), 0u);
  EXPECT_EQ(db.aborted_txns(), 1u);
}

TEST(TransactionTest, WriteLocksConflict) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  auto t1 = db.begin();
  auto t2 = db.begin();
  EXPECT_TRUE(t1->insert("products", {std::int64_t{1}, std::string{"A"}, 1.0,
                                      std::int64_t{1}}));
  // t2 cannot write the locked table...
  EXPECT_FALSE(t2->insert("products", {std::int64_t{2}, std::string{"B"}, 2.0,
                                       std::int64_t{2}}));
  t1->commit();
  // ...but can after t1 releases.
  EXPECT_TRUE(t2->insert("products", {std::int64_t{2}, std::string{"B"}, 2.0,
                                      std::int64_t{2}}));
  EXPECT_TRUE(t2->commit());
}

TEST(TransactionTest, PkUpdateRollsBackToOriginalKey) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  db.insert("products",
            {std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}});
  auto txn = db.begin();
  EXPECT_TRUE(
      txn->update("products", Value{std::int64_t{1}}, 0, Value{std::int64_t{8}}));
  txn->abort();
  Table* t = db.table("products");
  EXPECT_NE(t->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_EQ(t->find(Value{std::int64_t{8}}), nullptr);
}

TEST(WalTest, CommitWritesRecordsAbortDoesNot) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  auto t1 = db.begin();
  t1->insert("products",
             {std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}});
  t1->commit();
  const std::size_t after_commit = db.wal().records();
  EXPECT_EQ(after_commit, 2u);  // INS + COMMIT
  EXPECT_GT(db.wal().bytes(), 0u);

  auto t2 = db.begin();
  t2->insert("products",
             {std::int64_t{2}, std::string{"B"}, 2.0, std::int64_t{2}});
  t2->abort();
  EXPECT_EQ(db.wal().records(), after_commit);  // nothing added

  db.wal().checkpoint();
  EXPECT_EQ(db.wal().records(), 0u);
  EXPECT_EQ(db.wal().checkpoints(), 1u);
}

TEST(DatabaseTest, AutoCommitHelpers) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  EXPECT_TRUE(db.insert(
      "products", {std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}}));
  EXPECT_TRUE(
      db.update("products", Value{std::int64_t{1}}, 2, Value{9.0}));
  EXPECT_TRUE(db.erase("products", Value{std::int64_t{1}}));
  EXPECT_FALSE(db.erase("products", Value{std::int64_t{1}}));
  EXPECT_FALSE(db.insert("nope", {std::int64_t{1}}));
  EXPECT_EQ(db.committed_txns(), 3u);
}

// The autocommit helpers keep no undo log and take no lock, but must log
// and count exactly what a one-op Transaction does: same txn ids, same WAL
// op bytes, COMMIT after each success, nothing for a failure, which counts
// as an abort -- including a write to a table an open transaction holds.
TEST(DatabaseTest, AutoCommitLogsLikeAOneOpTransaction) {
  auto auto_ptr = make_shop();
  auto txn_ptr = make_shop();
  Database& by_auto = *auto_ptr;
  Database& by_txn = *txn_ptr;
  const auto one_op = [&](auto&& op) {
    auto txn = by_txn.begin();
    return op(*txn) && txn->commit();
  };
  const auto both = [&](bool ok_auto, bool ok_txn) {
    EXPECT_EQ(ok_auto, ok_txn);
  };
  const Row a{std::int64_t{1}, std::string{"A b|c"}, 1.5, std::int64_t{3}};
  const Row b{std::int64_t{2}, std::string{"B"}, 2.0, std::int64_t{4}};
  const Value one{std::int64_t{1}};
  const Value two{std::int64_t{2}};
  const Value seven{std::int64_t{7}};
  both(by_auto.insert("products", a),
       one_op([&](Transaction& t) { return t.insert("products", a); }));
  both(by_auto.insert("products", b),
       one_op([&](Transaction& t) { return t.insert("products", b); }));
  both(by_auto.insert("products", a),  // duplicate key
       one_op([&](Transaction& t) { return t.insert("products", a); }));
  both(by_auto.update("products", one, 2, Value{9.25}),
       one_op([&](Transaction& t) {
         return t.update("products", one, 2, Value{9.25});
       }));
  both(by_auto.update("products", one, 0, seven),  // key change
       one_op([&](Transaction& t) {
         return t.update("products", one, 0, seven);
       }));
  both(by_auto.update("products", one, 3, two),  // key gone
       one_op([&](Transaction& t) {
         return t.update("products", one, 3, two);
       }));
  both(by_auto.erase("products", two),
       one_op([&](Transaction& t) { return t.erase("products", two); }));
  both(by_auto.erase("products", two),
       one_op([&](Transaction& t) { return t.erase("products", two); }));
  both(by_auto.insert("nope", b),
       one_op([&](Transaction& t) { return t.insert("nope", b); }));
  {
    // An open transaction holds the table's lock: autocommit fails.
    auto hold_auto = by_auto.begin();
    auto hold_txn = by_txn.begin();
    ASSERT_TRUE(hold_auto->erase("products", seven));
    ASSERT_TRUE(hold_txn->erase("products", seven));
    both(by_auto.insert("products", b),
         one_op([&](Transaction& t) { return t.insert("products", b); }));
    hold_auto->commit();
    hold_txn->commit();
  }

  EXPECT_EQ(by_auto.committed_txns(), by_txn.committed_txns());
  EXPECT_EQ(by_auto.aborted_txns(), by_txn.aborted_txns());
  EXPECT_EQ(by_auto.committed_txns(), 6u);
  EXPECT_EQ(by_auto.aborted_txns(), 5u);
  const auto log = [](Database& db) {
    std::vector<std::string> out;
    for (const WalRecord* r = db.wal().head();
         r != nullptr; r = r->next) {
      out.push_back(std::to_string(r->txn) + " " + std::string{r->op});
    }
    return out;
  };
  EXPECT_EQ(log(by_auto), log(by_txn));
  EXPECT_EQ(by_auto.wal().bytes(), by_txn.wal().bytes());
  EXPECT_EQ(log(by_auto).front(), "1 INS products 1|A b|c|1.5|3");
  EXPECT_EQ(by_auto.table("products")->size(), 0u);
}

}  // namespace
}  // namespace mcs::host::db

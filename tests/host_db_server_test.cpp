#include "host/db/db_server.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "net/network.h"
#include "sim/util.h"

namespace mcs::host::db {

// Drives DbClient's receive path directly, bypassing the socket, so a test
// controls exactly how the server's bytes are segmented.
struct DbClientTestPeer {
  static void feed(DbClient& c, const std::string& bytes) { c.on_data(bytes); }
};

namespace {

// A DbClient with no server behind it: each queued command leaves a
// pending callback, and answers are fed straight into on_data().
struct ClientHarness {
  ClientHarness() : network{sim, 7} {
    net::Node* app = network.add_node("app");
    net::Node* dbhost = network.add_node("dbhost");
    network.connect(app, dbhost);
    network.compute_routes();
    tcp = std::make_unique<transport::TcpStack>(*app);
    client = std::make_unique<DbClient>(
        *tcp, net::Endpoint{dbhost->addr(), 5432});
  }

  // Queue `answers` commands, feed `chunks` in order, and return the
  // results in answer order.
  std::vector<DbClient::Result> run(std::size_t answers,
                                    const std::vector<std::string>& chunks) {
    std::vector<DbClient::Result> out;
    for (std::size_t i = 0; i < answers; ++i) {
      client->scan("t", [&out](const DbClient::Result& r) {
        out.push_back(r);
      });
    }
    for (const auto& chunk : chunks) DbClientTestPeer::feed(*client, chunk);
    return out;
  }

  sim::Simulator sim;
  net::Network network;
  std::unique_ptr<transport::TcpStack> tcp;
  std::unique_ptr<DbClient> client;
};

std::string join_escaped(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += '|';
    out += esc(fields[i]);
  }
  return out;
}

TEST(DbProtocolTest, EscapingRoundTrips) {
  const std::string nasty = "a b|c%d\ne";
  EXPECT_EQ(unesc(esc(nasty)), nasty);
  EXPECT_EQ(esc("plain"), "plain");
  const std::vector<std::string> fields{"x y", "1|2", "z"};
  ClientHarness h;
  const auto got = h.run(1, {"ROWS 1\n" + join_escaped(fields) + "\n"});
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].rows.size(), 1u);
  const auto row = got[0].rows[0];
  ASSERT_EQ(row.size(), fields.size());
  for (std::size_t j = 0; j < fields.size(); ++j) EXPECT_EQ(row[j], fields[j]);
}

// --- Differential oracle: the decoder Rows replaced ---------------------------
// A line-at-a-time copy of the original client: substr each line, split it
// with split_fields, and unescape one character at a time with strtol.

std::string oracle_unesc(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      out += static_cast<char>(std::strtol(s.substr(i + 1, 2).c_str(),
                                           nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::vector<std::string> split_fields(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '|') {
      out.push_back(oracle_unesc(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

struct OracleResult {
  bool ok = false;
  std::string error;
  std::uint64_t txn = 0;
  std::vector<std::vector<std::string>> rows;
};

// Decode a whole answer stream, one pending command per answer.
std::vector<OracleResult> oracle_decode(const std::string& wire) {
  std::vector<OracleResult> out;
  OracleResult partial;
  int rows_expected = 0;
  std::size_t start = 0;
  std::size_t nl;
  while ((nl = wire.find('\n', start)) != std::string::npos) {
    const std::string line = wire.substr(start, nl - start);
    start = nl + 1;
    if (rows_expected > 0) {
      partial.rows.push_back(split_fields(line));
      if (--rows_expected == 0) out.push_back(std::move(partial));
      continue;
    }
    OracleResult r;
    if (line.rfind("OK", 0) == 0) {
      r.ok = true;
      if (line.size() > 3) r.txn = std::strtoull(line.c_str() + 3, nullptr, 10);
    } else if (line.rfind("ROWS ", 0) == 0) {
      r.ok = true;
      const int n = std::atoi(line.c_str() + 5);
      if (n > 0) {
        partial = std::move(r);
        partial.rows.clear();
        rows_expected = n;
        continue;
      }
    } else {
      r.error = line;
    }
    out.push_back(std::move(r));
  }
  return out;
}

void expect_same(const std::vector<DbClient::Result>& got,
                 const std::vector<OracleResult>& want,
                 const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t a = 0; a < want.size(); ++a) {
    EXPECT_EQ(got[a].ok, want[a].ok) << where << " answer " << a;
    EXPECT_EQ(got[a].error, want[a].error) << where << " answer " << a;
    EXPECT_EQ(got[a].txn, want[a].txn) << where << " answer " << a;
    ASSERT_EQ(got[a].rows.size(), want[a].rows.size())
        << where << " answer " << a;
    std::size_t i = 0;
    for (const auto& row : got[a].rows) {  // range-for over row views
      const auto& expect = want[a].rows[i];
      ASSERT_EQ(row.size(), expect.size())
          << where << " answer " << a << " row " << i;
      for (std::size_t j = 0; j < expect.size(); ++j) {
        EXPECT_EQ(row[j], expect[j])
            << where << " answer " << a << " row " << i << " field " << j;
      }
      ++i;
    }
  }
}

// Answer streams covering escapes, empty fields and lines, malformed
// escapes, 0-row answers and several answers pipelined in one segment.
const std::vector<std::string>& wire_cases() {
  static const std::vector<std::string> cases{
      // Every escape the server writes; empty fields, a trailing '|', an
      // empty row line.
      "ROWS 3\nProduct%2012|a%7Cb|100%25|line%0Abreak\n|x||\n\n",
      // Malformed escapes keep strtol semantics: a '%' in the last two
      // characters stays literal, "%zz" decodes to NUL, "%4z" to 4.
      "ROWS 4\nab%4\n%zz|%4z|% 4|%-1\n%|%%|%%41|tail%\n%0a%0A%7c%7C\n",
      // 0-row answers, errors, txn ids, a stray empty response line.
      "ROWS 0\nOK 42\nERR no-table\nOK\n\nROWS 0\n",
      // Several answers pipelined back to back.
      "OK 1\nROWS 1\na\nROWS 2\nb|c\nd\nERR bad-command\nROWS 1\n"
      "24|Product%2024|books|81.99|100\nOK 7\n",
      // Plain and escaped row lines alternating in one answer.
      "ROWS 6\n1|Phone|299.9\nProduct%201|a%7Cb|100%25\n2||x\n"
      "%41|tail%\n|\n3|Case%0A|12.99\n",
  };
  return cases;
}

TEST(DbRowsDecoderTest, MatchesSplitFieldsOracle) {
  for (const auto& wire : wire_cases()) {
    const auto want = oracle_decode(wire);
    ClientHarness h;
    expect_same(h.run(want.size(), {wire}), want, "whole: " + wire);
  }
  // All cases in one segment: the pipelined stream decodes the same.
  std::string all;
  for (const auto& wire : wire_cases()) all += wire;
  const auto want = oracle_decode(all);
  ClientHarness h;
  expect_same(h.run(want.size(), {all}), want, "concatenated");
}

TEST(DbRowsDecoderTest, EverySplitPointDecodesTheSame) {
  std::string all;
  for (const auto& wire : wire_cases()) all += wire;
  const auto want = oracle_decode(all);
  ClientHarness h;
  for (std::size_t k = 0; k <= all.size(); ++k) {
    expect_same(h.run(want.size(), {all.substr(0, k), all.substr(k)}), want,
                "split at " + std::to_string(k));
  }
}

TEST(DbRowsDecoderTest, ViewsSurviveMovesAndCopies) {
  // Short fields keep the text in the string's inline buffer, which moves
  // with the object: offsets, not pointers, must address it.
  ClientHarness h;
  auto got = h.run(1, {"ROWS 2\na|b\nc\n"});
  ASSERT_EQ(got.size(), 1u);
  DbClient::Result moved = std::move(got[0]);
  const DbClient::Result copied = moved;
  DbClient::Result reassigned;
  reassigned = std::move(moved);
  for (const DbClient::Result* r :
       {&copied, static_cast<const DbClient::Result*>(&reassigned)}) {
    ASSERT_EQ(r->rows.size(), 2u);
    EXPECT_EQ(r->rows[0][0], "a");
    EXPECT_EQ(r->rows[0][1], "b");
    EXPECT_EQ(r->rows[1][0], "c");
    EXPECT_FALSE(r->rows[1].empty());
  }
}

TEST(DbRowsDecoderTest, HugeRowCountSizesNothingFromTheWire) {
  // Storage is reserved from bytes received, never from the header's n.
  ClientHarness h;
  const auto got = h.run(1, {"ROWS 18446744073709551615\na|b\n"});
  EXPECT_TRUE(got.empty());  // still waiting for the remaining rows
}

TEST(DbRowsDecoderTest, NumericFieldsReadLikeAtollAndAtof) {
  for (const char* text : {"0", "42", "-7", "9223372036854775807", ""}) {
    EXPECT_EQ(int_field(text), std::atoll(text)) << text;
  }
  for (const char* text : {"0", "12.99", "81.99", "1e+06", "-2.5e-05", "100",
                           "18.99", ""}) {
    EXPECT_EQ(real_field(text), std::atof(text)) << text;
  }
}

// --- Answer delivery ---------------------------------------------------------
// A callback reads its answer while it runs; what it keeps, it copies.

// One field of an answer as an owned string ("" past the end).
std::string field_of(const DbClient::Result& r, std::size_t row,
                     std::size_t col) {
  if (row >= r.rows.size() || col >= r.rows[row].size()) return "";
  return std::string{r.rows[row][col]};
}

TEST(DbClientDeliveryTest, TwoAnswersInOneSegment) {
  ClientHarness h;
  std::vector<std::string> seen;
  h.client->get("t", "1", [&](const DbClient::Result& r) {
    seen.push_back(sim::cat("get ", r.ok ? "ok " : "err ", field_of(r, 0, 0),
                            "/", field_of(r, 0, 1)));
  });
  h.client->scan("t", [&](const DbClient::Result& r) {
    std::string s = sim::cat("scan ", sim::u64s(r.rows.size()));
    for (const auto row : r.rows) s += sim::cat(" ", row[0]);
    seen.push_back(s);
  });
  h.client->begin([&](const DbClient::Result& r) {
    seen.push_back(sim::cat("begin ", sim::u64s(r.txn), " rows ",
                            sim::u64s(r.rows.size())));
  });
  DbClientTestPeer::feed(*h.client,
                         "ROWS 1\nalpha|a%20b\nROWS 3\nx\nyy\nzzz\nOK 9\n");
  EXPECT_EQ(seen, (std::vector<std::string>{"get ok alpha/a b",
                                            "scan 3 x yy zzz",
                                            "begin 9 rows 0"}));
}

TEST(DbClientDeliveryTest, RowsAnswerSplitAcrossSegments) {
  ClientHarness h;
  int calls = 0;
  std::vector<std::string> fields;
  h.client->scan("t", [&](const DbClient::Result& r) {
    ++calls;
    EXPECT_TRUE(r.ok);
    for (const auto row : r.rows) {
      for (std::size_t j = 0; j < row.size(); ++j) {
        fields.emplace_back(row[j]);
      }
    }
  });
  for (const char* chunk : {"RO", "WS 3\nfirst|se", "cond%7C", "x\n",
                            "third\nfo", "urth|%25\n"}) {
    EXPECT_EQ(calls, 0) << "answered before its last row arrived";
    DbClientTestPeer::feed(*h.client, chunk);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(fields, (std::vector<std::string>{"first", "second|x", "third",
                                              "fourth", "%"}));
}

TEST(DbClientDeliveryTest, CallbackIssuesACommandFromInside) {
  ClientHarness h;
  std::vector<std::string> seen;
  h.client->scan("t", [&](const DbClient::Result& r) {
    // Queue the next command first: the answer being delivered must stay
    // readable while the callback goes on.
    h.client->get("t", "2", [&](const DbClient::Result& inner) {
      seen.push_back(sim::cat("inner ", field_of(inner, 0, 0)));
    });
    seen.push_back(sim::cat("outer ", field_of(r, 0, 0), " ",
                            field_of(r, 1, 0)));
  });
  h.client->get("t", "1", [&](const DbClient::Result& r) {
    seen.push_back(sim::cat("second ", field_of(r, 0, 0)));
  });
  // The first two answers share a segment; the nested command's answer is
  // queued behind the second, so it comes last.
  DbClientTestPeer::feed(*h.client, "ROWS 2\nrow-a\nrow-b\nROWS 1\nrow-c\n");
  DbClientTestPeer::feed(*h.client, "ROWS 1\nrow-d\n");
  EXPECT_EQ(seen, (std::vector<std::string>{"outer row-a row-b",
                                            "second row-c",
                                            "inner row-d"}));
}

TEST(DbClientDeliveryTest, CloseFailsEveryPendingCallbackOnce) {
  // No server listens behind the harness client: the connection attempt
  // times out and closes the socket, which fails whatever is still queued,
  // including a command whose ROWS answer is half received.
  ClientHarness h;
  std::vector<int> calls(3, 0);
  std::vector<std::string> errors(3);
  for (int i = 0; i < 3; ++i) {
    h.client->scan("t", [&, i](const DbClient::Result& r) {
      ++calls[i];
      EXPECT_FALSE(r.ok);
      EXPECT_TRUE(r.rows.empty());
      errors[i] = r.error;
    });
  }
  DbClientTestPeer::feed(*h.client, "ROWS 2\nonly-one\n");
  h.sim.run();
  EXPECT_EQ(calls, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(errors, (std::vector<std::string>(3, "connection-closed")));
}

struct DbNetFixture : public ::testing::Test {
  explicit DbNetFixture() : network{sim, 31}, db{"shop"} {
    db.create_table("products", {{"id", ValueType::kInt},
                                 {"name", ValueType::kText},
                                 {"price", ValueType::kReal}});
    app_node = network.add_node("app");
    db_node = network.add_node("dbhost");
    network.connect(app_node, db_node);
    network.compute_routes();
    app_tcp = std::make_unique<transport::TcpStack>(*app_node);
    db_tcp = std::make_unique<transport::TcpStack>(*db_node);
  }

  void start(DbServerConfig cfg = {}) {
    server = std::make_unique<DbServer>(*db_tcp, 5432, db, cfg);
    client = std::make_unique<DbClient>(*app_tcp, net::Endpoint{db_node->addr(), 5432});
  }

  sim::Simulator sim;
  net::Network network;
  Database db;
  net::Node* app_node;
  net::Node* db_node;
  std::unique_ptr<transport::TcpStack> app_tcp;
  std::unique_ptr<transport::TcpStack> db_tcp;
  std::unique_ptr<DbServer> server;
  std::unique_ptr<DbClient> client;
};

TEST_F(DbNetFixture, AutocommitInsertAndGet) {
  start();
  bool inserted = false;
  client->insert(0, "products", {"1", "Smart Phone", "299.99"},
                 [&](const DbClient::Result& r) { inserted = r.ok; });
  DbClient::Result got;
  client->get("products", "1", [&](const DbClient::Result& r) { got = r; });
  sim.run();
  EXPECT_TRUE(inserted);
  ASSERT_TRUE(got.ok);
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0][1], "Smart Phone");  // space survived escaping
}

TEST_F(DbNetFixture, GetMissingReturnsZeroRows) {
  start();
  DbClient::Result got;
  got.ok = false;
  client->get("products", "99", [&](const DbClient::Result& r) { got = r; });
  sim.run();
  EXPECT_TRUE(got.ok);
  EXPECT_TRUE(got.rows.empty());
}

TEST_F(DbNetFixture, TransactionCommitOverNetwork) {
  start();
  std::uint64_t txn = 0;
  bool committed = false;
  client->begin([&](const DbClient::Result& r) {
    ASSERT_TRUE(r.ok);
    txn = r.txn;
    client->insert(txn, "products", {"1", "A", "1.0"},
                   [&](const DbClient::Result& r2) { ASSERT_TRUE(r2.ok); });
    client->insert(txn, "products", {"2", "B", "2.0"},
                   [&](const DbClient::Result& r2) { ASSERT_TRUE(r2.ok); });
    client->commit(txn, [&](const DbClient::Result& r2) { committed = r2.ok; });
  });
  sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(db.table("products")->size(), 2u);
  EXPECT_EQ(db.committed_txns(), 1u);
}

TEST_F(DbNetFixture, TransactionAbortRollsBack) {
  start();
  client->begin([&](const DbClient::Result& r) {
    const std::uint64_t txn = r.txn;
    client->insert(txn, "products", {"1", "A", "1.0"},
                   [](const DbClient::Result&) {});
    client->abort_txn(txn, [](const DbClient::Result&) {});
  });
  sim.run();
  EXPECT_EQ(db.table("products")->size(), 0u);
}

TEST_F(DbNetFixture, UpdateDeleteFindByScan) {
  start();
  for (int i = 1; i <= 6; ++i) {
    client->insert(0, "products",
                   {sim::strf("%d", i), i % 2 ? "odd" : "even",
                    sim::strf("%d.5", i)},
                   [](const DbClient::Result&) {});
  }
  DbClient::Result odd, all;
  client->update(0, "products", "2", 2, "42.0", [](const DbClient::Result&) {});
  client->erase(0, "products", "6", [](const DbClient::Result&) {});
  client->find_by("products", 1, "odd",
                  [&](const DbClient::Result& r) { odd = r; });
  client->scan("products", [&](const DbClient::Result& r) { all = r; });
  sim.run();
  ASSERT_TRUE(odd.ok);
  EXPECT_EQ(odd.rows.size(), 3u);
  ASSERT_TRUE(all.ok);
  EXPECT_EQ(all.rows.size(), 5u);
  const Row* updated = db.table("products")->find(Value{std::int64_t{2}});
  ASSERT_NE(updated, nullptr);
  EXPECT_DOUBLE_EQ(std::get<double>((*updated)[2]), 42.0);
}

// --- Row wire cache ----------------------------------------------------------
// SCAN, GET and FINDBY answer from the table's cached wire lines; on the raw
// wire every answer must equal a fresh encoding of the rows as they are now.

// The server's raw answer to one command, over a connection of its own.
std::string raw_answer(DbNetFixture& f, const std::string& command) {
  auto sock = f.app_tcp->connect({f.db_node->addr(), 5432});
  std::string wire;
  sock->on_data = [&](const std::string& bytes) { wire += bytes; };
  sock->send(command + "\n");
  f.sim.run();
  sock->close();
  f.sim.run();
  return wire;
}

// A fresh encoding: cells in to_string() form, text escaped, '|'-joined.
std::string fresh_line(const Row& row) {
  std::vector<std::string> cells;
  for (const Value& v : row) cells.push_back(to_string(v));
  return join_escaped(cells);
}

std::string rows_answer(const std::vector<Row>& rows) {
  std::string out = sim::strf("ROWS %zu", rows.size());
  for (const Row& r : rows) out.append("\n").append(fresh_line(r));
  return out + "\n";
}

// SCAN, GET on every key and FINDBY on every cell all match a fresh
// encoding of the table's current rows.
void expect_wire_fresh(DbNetFixture& f) {
  const Table& t = *f.db.table("products");
  EXPECT_EQ(raw_answer(f, "SCAN products"), rows_answer(t.all()));
  for (const Row& r : t.all()) {
    EXPECT_EQ(raw_answer(f, "GET products " + esc(to_string(r[0]))),
              rows_answer({r}));
    for (std::size_t col = 1; col < r.size(); ++col) {
      // FINDBY can only name a value whose wire text reads back as it.
      const std::string cell = to_string(r[col]);
      if (cell.empty() ||
          !value_eq(parse_value(cell, type_of(r[col])), r[col])) {
        continue;
      }
      EXPECT_EQ(raw_answer(f, sim::strf("FINDBY products %zu ", col) +
                                  esc(cell)),
                rows_answer(t.find_by(col, r[col])))
          << "column " << col;
    }
  }
}

TEST_F(DbNetFixture, CachedLinesAreTheServerEncoding) {
  start();
  const std::vector<std::vector<std::string>> rows = {
      {"1", "Smart Phone", "299.99"},
      {"2", "pipe|and%percent", "0.1"},
      {"3", "two\nlines and a back\\slash", "1e+21"},
      {"4", "", "-3.14159265"},
  };
  for (const auto& r : rows) {
    client->insert(0, "products", r, [](const DbClient::Result& r2) {
      ASSERT_TRUE(r2.ok);
    });
  }
  sim.run();
  // The exact wire text, spelled out once for the awkward cells.
  EXPECT_EQ(raw_answer(*this, "GET products 2"),
            "ROWS 1\n2|pipe%7Cand%25percent|0.1\n");
  EXPECT_EQ(raw_answer(*this, "GET products 3"),
            "ROWS 1\n3|two%0Alines%20and%20a%20back\\slash|1e+21\n");
  EXPECT_EQ(raw_answer(*this, "GET products 4"), "ROWS 1\n4||-3.14159\n");
  // Read twice: the second answers come from the cache.
  expect_wire_fresh(*this);
  expect_wire_fresh(*this);
}

TEST_F(DbNetFixture, WireAnswersFollowEveryMutation) {
  db.table("products")->create_index(1);
  start();
  for (int i = 1; i <= 5; ++i) {
    client->insert(0, "products",
                   {sim::strf("%d", i), i % 2 ? "odd|one" : "even one",
                    sim::strf("%d.25", i)},
                   [](const DbClient::Result&) {});
  }
  sim.run();
  expect_wire_fresh(*this);
  auto step = [&](auto&& mutate) {
    mutate();
    sim.run();
    expect_wire_fresh(*this);
  };
  // Non-key update (unindexed, then indexed column).
  step([&] { client->update(0, "products", "2", 2, "8.5", [](auto) {}); });
  step([&] { client->update(0, "products", "2", 1, "odd|one", [](auto) {}); });
  // Primary-key update: the old key answers no rows.
  step([&] { client->update(0, "products", "3", 0, "30", [](auto) {}); });
  EXPECT_EQ(raw_answer(*this, "GET products 3"), "ROWS 0\n");
  // Erase, then an insert into the reused slot.
  step([&] { client->erase(0, "products", "4", [](auto) {}); });
  step([&] {
    client->insert(0, "products", {"6", "re used", "6.5"}, [](auto) {});
  });
  // update_row, through a rolled-back transaction that read its own writes.
  Table& t = *db.table("products");
  const std::vector<Row> before = t.all();
  auto txn = db.begin();
  ASSERT_TRUE(txn->update("products", Value{std::int64_t{1}}, 2, Value{99.0}));
  ASSERT_TRUE(txn->update("products", Value{std::int64_t{5}}, 0,
                          Value{std::int64_t{50}}));
  ASSERT_TRUE(txn->erase("products", Value{std::int64_t{6}}));
  ASSERT_TRUE(txn->insert("products", {std::int64_t{7}, std::string{"tmp"},
                                       7.0}));
  expect_wire_fresh(*this);
  txn->abort();
  expect_wire_fresh(*this);
  EXPECT_EQ(raw_answer(*this, "SCAN products"), rows_answer(before));
}

TEST_F(DbNetFixture, ErrorsAreReported) {
  start();
  DbClient::Result bad_table, dup;
  client->insert(0, "nope", {"1"},
                 [&](const DbClient::Result& r) { bad_table = r; });
  client->insert(0, "products", {"1", "A", "1.0"},
                 [](const DbClient::Result&) {});
  client->insert(0, "products", {"1", "B", "2.0"},
                 [&](const DbClient::Result& r) { dup = r; });
  sim.run();
  EXPECT_FALSE(bad_table.ok);
  EXPECT_FALSE(dup.ok);
  EXPECT_NE(dup.error.find("ERR"), std::string::npos);
}

TEST_F(DbNetFixture, PerCommitFsyncSlowerThanNone) {
  auto measure = [&](SyncPolicy policy) {
    DbServerConfig cfg;
    cfg.sync_policy = policy;
    cfg.fsync_delay = sim::Time::millis(5);
    start(cfg);
    const sim::Time start_t = sim.now();
    int done = 0;
    for (int i = 0; i < 20; ++i) {
      client->insert(0, "products", {sim::strf("%d", 100 + i), "x", "1.0"},
                     [&](const DbClient::Result& r) {
                       EXPECT_TRUE(r.ok);
                       ++done;
                     });
    }
    sim.run();
    EXPECT_EQ(done, 20);
    // Fresh tables for the next policy run.
    for (int i = 0; i < 20; ++i) {
      db.erase("products", Value{std::int64_t{100 + i}});
    }
    return sim.now() - start_t;
  };
  const sim::Time with_fsync = measure(SyncPolicy::kPerCommit);
  const sim::Time without = measure(SyncPolicy::kNone);
  const sim::Time grouped = measure(SyncPolicy::kGroup);
  EXPECT_GT(with_fsync, without * 2.0);
  EXPECT_LT(grouped, with_fsync);
  EXPECT_GT(server->stats().counter("group_commit_batches").value(), 0u);
}

}  // namespace
}  // namespace mcs::host::db

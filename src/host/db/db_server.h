#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/db/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/arena.h"
#include "sim/stats.h"
#include "transport/tcp.h"

namespace mcs::host::db {

// --- Wire protocol helpers ---------------------------------------------------
// Line-based protocol; fields are percent-escaped so values may contain
// spaces, pipes and newlines.
std::string esc(const std::string& s);
std::string unesc(const std::string& s);

// Numeric fields of a decoded row are the decimal text the server writes
// (to_string() form); std::from_chars reads back the value atoll/atof
// would, and an empty or malformed field reads as 0.
std::int64_t int_field(sim::Slice f);
double real_field(sim::Slice f);

// The rows of one "ROWS n" answer, decoded once. Every field is unescaped
// into one owned buffer and addressed by offsets (not Slices: moving a
// Rows moves its string, which relocates a small-string buffer), so a
// copied or moved Result needs no fix-up. Fields read back as views that
// live as long as the Rows holds this answer.
class Rows {
 public:
  // One row: a view over its fields.
  class Row {
   public:
    std::size_t size() const { return end_ - first_; }
    bool empty() const { return end_ == first_; }
    sim::Slice operator[](std::size_t j) const {
      MCS_ASSERT(j < size(), "field index past the end of the row");
      return rows_->field(first_ + j);
    }

   private:
    friend class Rows;
    Row(const Rows* rows, std::uint32_t first, std::uint32_t end)
        : rows_{rows}, first_{first}, end_{end} {}
    const Rows* rows_ = nullptr;
    std::uint32_t first_ = 0;  // index of the row's first field
    std::uint32_t end_ = 0;    // one past its last field
  };
  class iterator {
   public:
    Row operator*() const { return (*rows_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    friend class Rows;
    iterator(const Rows* rows, std::size_t i) : rows_{rows}, i_{i} {}
    const Rows* rows_ = nullptr;
    std::size_t i_ = 0;
  };

  std::size_t size() const { return rows_.empty() ? 0 : rows_.size() - 1; }
  bool empty() const { return size() == 0; }
  Row operator[](std::size_t i) const {
    MCS_ASSERT(i < size(), "row index past the end of the answer");
    return Row{this, rows_[i], rows_[i + 1]};
  }
  iterator begin() const { return iterator{this, 0}; }
  iterator end() const { return iterator{this, size()}; }

 private:
  friend class DbClient;
  // Expect `n` rows and reserve storage from `ahead`, the received data
  // after the "ROWS n" line: only as much as bytes already received can
  // hold, never a count read off the wire alone.
  void start(std::size_t n, sim::Slice ahead);
  // Unescape one wire row ("<f1>|<f2>|...") onto the end of the answer.
  void append(sim::Slice line);
  bool complete() const { return size() == declared_; }
  // Forget the answer but keep the storage for the next one.
  void clear() {
    text_.clear();
    fields_.clear();
    rows_.clear();
    declared_ = 0;
  }

  sim::Slice field(std::uint32_t k) const {
    return sim::Slice{text_.data() + fields_[k], fields_[k + 1] - fields_[k]};
  }

  std::string text_;                   // all fields' bytes, back to back
  std::vector<std::uint32_t> fields_;  // field boundaries in text_, from 0
  std::vector<std::uint32_t> rows_;    // row boundaries in fields_, from 0
  std::size_t declared_ = 0;           // n from the "ROWS n" header
};

// Durability policy for commits (ablation bench: WAL sync cost).
enum class SyncPolicy {
  kNone,       // no fsync modelled (fastest, unsafe)
  kPerCommit,  // one fsync per commit
  kGroup,      // group commit: one fsync per window, shared by all commits
};

struct DbServerConfig {
  sim::Time fsync_delay = sim::Time::millis(2);    // one log flush
  SyncPolicy sync_policy = SyncPolicy::kPerCommit;
};

// Network front-end for a Database (§7 "database servers"): a line protocol
// over TCP.
//
//   BEGIN                          -> OK <txn>
//   COMMIT <txn>                   -> OK | ERR <why>     (after fsync delay)
//   ABORT <txn>                    -> OK
//   INS <txn> <table> <row>        -> OK | ERR <why>     (txn 0: autocommit)
//   UPD <txn> <table> <pk> <col> <value> -> OK | ERR
//   DEL <txn> <table> <pk>         -> OK | ERR
//   GET <table> <pk>               -> ROWS <n> + n row lines
//   FINDBY <table> <col> <value>   -> ROWS <n> + n row lines
//   SCAN <table>                   -> ROWS <n> + n row lines
class DbServer {
 public:
  DbServer(transport::TcpStack& stack, std::uint16_t port, Database& db,
           DbServerConfig cfg = {});
  DbServer(const DbServer&) = delete;
  DbServer& operator=(const DbServer&) = delete;

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }
  Database& database() { return db_; }

 private:
  // Responses complete after different simulated delays (fsync vs. plain
  // op), but the wire protocol matches responses to requests by order; the
  // outbox holds per-request slots flushed strictly FIFO.
  struct PendingResponse {
    std::string msg;
    bool ready = false;
    // Span covering the operation from arrival to response flush (includes
    // op CPU, fsync queueing); closed in complete().
    obs::TraceContext ctx;
  };
  struct Connection {
    transport::TcpSocket::Ptr socket;
    std::string buffer;
    std::deque<std::shared_ptr<PendingResponse>> outbox;
    // Transactions opened on this connection (owned server-side).
    std::unordered_map<std::uint64_t, std::unique_ptr<Transaction>> txns;
  };
  using Slot = std::shared_ptr<PendingResponse>;

  void on_accept(transport::TcpSocket::Ptr s);
  // `line` is a window of the connection's receive buffer (DESIGN.md §12);
  // fields are parsed as views and only escape into owning strings where a
  // typed Value or map key demands one.
  void on_line(const std::shared_ptr<Connection>& conn, sim::Slice line);
  void complete(const std::shared_ptr<Connection>& conn, const Slot& slot,
                std::string&& msg);
  void respond(const std::shared_ptr<Connection>& conn, const Slot& slot,
               std::string&& msg);
  void respond_commit(const std::shared_ptr<Connection>& conn,
                      const Slot& slot, std::string&& msg);
  // Answer "ROWS n" plus the wire lines `visit(fn)` passes to `fn`, read
  // from the table's row wire cache (GET, FINDBY and SCAN alike).
  template <typename Visit>
  void respond_rows(const std::shared_ptr<Connection>& conn, const Slot& slot,
                    const Visit& visit);

  transport::TcpStack& stack_;
  Database& db_;
  DbServerConfig cfg_;
  // Group commit: pending (conn, slot, response) entries flushed together.
  std::vector<std::tuple<std::shared_ptr<Connection>, Slot, std::string>>
      pending_commits_;
  bool group_timer_armed_ = false;
  // The WAL lives on one log device: fsyncs serialize on it.
  sim::Time log_busy_until_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_connections_{"connections"};
  sim::CounterHandle c_requests_{"requests"};
  sim::CounterHandle c_commits_{"commits"};
  sim::CounterHandle c_commit_failures_{"commit_failures"};
  sim::CounterHandle c_fsyncs_{"fsyncs"};
  sim::CounterHandle c_group_commit_batches_{"group_commit_batches"};
  // Telemetry handles, cached at construction (obs/metrics.h). WAL flush
  // latency is commit-observed: queueing behind the busy log device counts,
  // which is exactly what an SLO investigation needs to see.
  sim::Counter* m_requests_ = obs::metric_counter("host.db.requests");
  sim::Counter* m_fsyncs_ = obs::metric_counter("host.db.fsyncs");
  sim::Histogram* m_wal_flush_us_ =
      obs::metric_histogram("host.db.wal_flush_us");
};

// Async client for DbServer; commands pipeline on one connection.
class DbClient {
 public:
  // Generic result: ok flag, error text, and decoded rows (for queries).
  struct Result {
    bool ok = false;
    std::string error;
    std::uint64_t txn = 0;  // for begin()
    Rows rows;
  };
  // Each answer reaches its callback by reference to the client's one
  // answer buffer, which the next answer clears and refills in place. The
  // reference, and every view read from its rows, is valid only during the
  // call: a callback copies what it keeps.
  using Callback = std::function<void(const Result&)>;

  DbClient(transport::TcpStack& stack, net::Endpoint server);
  DbClient(const DbClient&) = delete;
  DbClient& operator=(const DbClient&) = delete;

  void begin(Callback cb);
  void commit(std::uint64_t txn, Callback cb);
  void abort_txn(std::uint64_t txn, Callback cb);
  void insert(std::uint64_t txn, const std::string& table,
              const std::vector<std::string>& fields, Callback cb);
  void update(std::uint64_t txn, const std::string& table,
              const std::string& pk, std::size_t col, const std::string& value,
              Callback cb);
  void erase(std::uint64_t txn, const std::string& table,
             const std::string& pk, Callback cb);
  void get(const std::string& table, const std::string& pk, Callback cb);
  void find_by(const std::string& table, std::size_t col,
               const std::string& value, Callback cb);
  void scan(const std::string& table, Callback cb);

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  friend struct DbClientTestPeer;  // feeds on_data() directly in tests

  void send_command(std::string&& line, Callback cb);
  // Lines are scanned as views over the segment, with a carry buffer only
  // for a partial tail (the DbServer::on_accept pattern); `ahead` is the
  // data after `line`, which sizes a ROWS answer's storage.
  void on_data(const std::string& bytes);
  void on_line(sim::Slice line, sim::Slice ahead);
  // Empty answer_ for the next answer, keeping its buffers.
  void clear_answer();
  // Hand answer_ to the oldest pending callback.
  void deliver();
  void fail_all(const std::string& why);

  transport::TcpStack& stack_;
  net::Endpoint server_;
  transport::TcpSocket::Ptr socket_;
  std::string buffer_;
  std::deque<Callback> pending_;
  // The answer being received or delivered; rows arrive while
  // answer_.rows is incomplete.
  Result answer_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_commands_{"commands"};
};

}  // namespace mcs::host::db

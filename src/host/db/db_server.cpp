#include "host/db/db_server.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "sim/arena.h"
#include "sim/util.h"

namespace mcs::host::db {

// ---------------------------------------------------------------------------
// Protocol helpers
// ---------------------------------------------------------------------------

namespace {

// Append `s` percent-escaped (the wire form of esc()) through `w`.
void esc_append(sim::BufWriter& w, sim::Slice s) {
  for (char c : s) {
    switch (c) {
      case ' ': w.put("%20"); break;
      case '|': w.put("%7C"); break;
      case '%': w.put("%25"); break;
      case '\n': w.put("%0A"); break;
      default: w.ch(c);
    }
  }
}

// Append the unescaped form of `s` (inverse of esc_append), copying the
// runs between escapes in bulk. A `%XY` window decodes with strtol(16)
// semantics over the two characters, matching what the historical
// substr-based decoder produced for malformed input; a '%' in the last two
// characters stays literal.
void unesc_append(std::string& out, sim::Slice s) {
  sim::BufWriter w{out};
  std::size_t i = 0;
  for (std::size_t pct; (pct = s.find('%', i)) != sim::Slice::npos &&
                        pct + 2 < s.size();
       i = pct + 3) {
    w.put(sim::Slice{s.data() + i, pct - i});
    const char hex[3] = {s[pct + 1], s[pct + 2], '\0'};
    w.ch(static_cast<char>(std::strtol(hex, nullptr, 16)));
  }
  w.put(sim::Slice{s.data() + i, s.size() - i});
}

}  // namespace

std::string esc(const std::string& s) {
  return sim::build(s.size(), [&](std::string& out) {
    sim::BufWriter w{out};
    esc_append(w, s);
  });
}

std::string unesc(const std::string& s) {
  return sim::build(s.size(), [&](std::string& out) { unesc_append(out, s); });
}

std::int64_t int_field(sim::Slice f) {
  std::int64_t v = 0;
  std::from_chars(f.data(), f.data() + f.size(), v);
  return v;
}

double real_field(sim::Slice f) {
  double v = 0.0;
  std::from_chars(f.data(), f.data() + f.size(), v);
  return v;
}

namespace {

// Split on ' ' exactly as sim::split would (empty fields count toward the
// total), capturing the first `cap` fields as views. Returns the full count.
std::size_t split_ws(sim::Slice s, sim::Slice* f, std::size_t cap) {
  std::size_t nf = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ' ') {
      if (nf < cap) f[nf] = sim::Slice{s.data() + start, i - start};
      ++nf;
      start = i + 1;
    }
  }
  return nf;
}

// strtoull(.., 10) semantics over a view; command ids and column indexes are
// produced by our own client, so signs and overflow never occur.
std::uint64_t parse_u64(sim::Slice s) {
  std::size_t i = 0;
  while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
  std::uint64_t v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  return v;
}

// Unescape one wire field into a reused per-thread buffer and parse it as
// `type`: the typed Value is the only owning allocation on this path.
Value parse_field(sim::Slice f, ValueType type) {
  std::string& buf = sim::scratch(0);
  buf.clear();
  unesc_append(buf, f);
  return parse_value(buf, type);
}

// Decode "<f1>|<f2>|..." straight into a typed Row, with no per-field
// strings in between.
Row decode_row_packed(const Table& t, sim::Slice packed) {
  std::size_t nf = 1;
  for (char c : packed) nf += c == '|' ? 1 : 0;
  Row row;
  row.resize(std::min(nf, t.columns().size()));
  std::size_t start = 0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i <= packed.size() && idx < row.size(); ++i) {
    if (i == packed.size() || packed[i] == '|') {
      row[idx] = parse_field(sim::Slice{packed.data() + start, i - start},
                             t.columns()[idx].type);
      ++idx;
      start = i + 1;
    }
  }
  return row;
}

// Serialize one cell in to_string() form with text escaped; numeric
// renderings never contain escapable characters.
void encode_value(sim::BufWriter& w, const Value& v) {
  if (const auto* text = std::get_if<std::string>(&v)) {
    esc_append(w, *text);
  } else {
    append_value(w, v);
  }
}

// One row's wire line, written into `out`; the table's row wire cache
// fills through this (Table::LineEncoder).
void encode_row(std::string& out, const Row& row) {
  out.clear();
  sim::BufWriter w{out};
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) w.ch('|');
    encode_value(w, row[i]);
  }
}

// Spans never own their names, so commands map to static strings.
const char* db_span_name(sim::Slice cmd) {
  if (cmd == "BEGIN") return "db.begin";
  if (cmd == "COMMIT") return "db.commit";
  if (cmd == "ABORT") return "db.abort";
  if (cmd == "INS") return "db.insert";
  if (cmd == "UPD") return "db.update";
  if (cmd == "DEL") return "db.delete";
  if (cmd == "GET") return "db.get";
  if (cmd == "FINDBY") return "db.findby";
  if (cmd == "SCAN") return "db.scan";
  return "db.op";
}

}  // namespace

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

void Rows::start(std::size_t n, sim::Slice ahead) {
  MCS_ASSERT(n > 0 && declared_ == 0 && rows_.empty(),
             "a Rows value holds one answer");
  // Bytes already received bound the text (unescaping only shrinks) and
  // the row count (each row line ends in '\n'); fields grow past one per
  // row as they arrive.
  const std::size_t rows = std::min(n, ahead.size());
  declared_ = n;
  text_.reserve(ahead.size());
  fields_.reserve(1 + rows);
  rows_.reserve(1 + rows);
  fields_.push_back(0);
  rows_.push_back(0);
}

void Rows::append(sim::Slice line) {
  MCS_ASSERT(size() < declared_, "more row lines than the ROWS header");
  MCS_ASSERT(text_.size() + line.size() <= UINT32_MAX,
             "field offsets are 32-bit: one answer stays under 4 GiB");
  for (std::size_t start = 0;;) {
    const std::size_t bar = line.find('|', start);
    const std::size_t end = bar == sim::Slice::npos ? line.size() : bar;
    unesc_append(text_, sim::Slice{line.data() + start, end - start});
    fields_.push_back(static_cast<std::uint32_t>(text_.size()));
    if (bar == sim::Slice::npos) break;
    start = bar + 1;
  }
  rows_.push_back(static_cast<std::uint32_t>(fields_.size() - 1));
}

// ---------------------------------------------------------------------------
// DbServer
// ---------------------------------------------------------------------------

namespace {
constexpr sim::Time kOpDelay = sim::Time::micros(50);  // CPU per operation
// SyncPolicy::kGroup: commits arriving within this window share one fsync.
constexpr sim::Time kGroupWindow = sim::Time::millis(2);
}  // namespace

DbServer::DbServer(transport::TcpStack& stack, std::uint16_t port,
                   Database& db, DbServerConfig cfg)
    : stack_{stack}, db_{db}, cfg_{cfg} {
  stack_.listen(port,
                [this](transport::TcpSocket::Ptr s) { on_accept(std::move(s)); });
}

void DbServer::on_accept(transport::TcpSocket::Ptr s) {
  stats_.counter(c_connections_).add();
  auto conn = std::make_shared<Connection>();
  conn->socket = std::move(s);
  conn->socket->on_data = [this, conn](const std::string& bytes) {
    // Steady state: whole lines arrive with an empty carry buffer, so the
    // parse runs over the segment itself and only a partial tail is copied.
    sim::Slice data;
    if (conn->buffer.empty()) {
      data = bytes;
    } else {
      conn->buffer += bytes;
      data = conn->buffer;
    }
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = data.find('\n', start)) != sim::Slice::npos) {
      if (nl > start) {
        on_line(conn, sim::Slice{data.data() + start, nl - start});
      }
      start = nl + 1;
    }
    if (data.data() == conn->buffer.data()) {
      conn->buffer.erase(0, start);
    } else if (start < data.size()) {
      conn->buffer.assign(data.data() + start, data.size() - start);
    }
  };
  conn->socket->on_remote_close = [conn] { conn->socket->close(); };
}

// Fill a slot and flush the in-order prefix of ready responses.
void DbServer::complete(const std::shared_ptr<Connection>& conn,
                        const Slot& slot, std::string&& msg) {
  slot->msg = std::move(msg);
  slot->ready = true;
  obs::end_span(slot->ctx, stack_.sim().now());
  while (!conn->outbox.empty() && conn->outbox.front()->ready) {
    const Slot front = conn->outbox.front();
    conn->outbox.pop_front();
    // Response bytes stamped with the operation they answer. The slot is
    // dead after this flush, so its message doubles as the send buffer.
    obs::ActiveScope scope{front->ctx};
    front->msg += '\n';
    conn->socket->send(front->msg);
  }
}

void DbServer::respond(const std::shared_ptr<Connection>& conn,
                       const Slot& slot, std::string&& msg) {
  // CPU cost of handling one operation.
  stack_.sim().after(kOpDelay,
                     [this, conn, slot, msg = std::move(msg)]() mutable {
    complete(conn, slot, std::move(msg));
  });
}

void DbServer::respond_commit(const std::shared_ptr<Connection>& conn,
                              const Slot& slot, std::string&& msg) {
  switch (cfg_.sync_policy) {
    case SyncPolicy::kNone:
      respond(conn, slot, std::move(msg));
      return;
    case SyncPolicy::kPerCommit: {
      // One serialized fsync per commit on the single log device.
      const sim::Time start =
          std::max(stack_.sim().now() + kOpDelay, log_busy_until_);
      log_busy_until_ = start + cfg_.fsync_delay;
      stack_.sim().at(log_busy_until_,
                      [this, conn, slot, msg = std::move(msg)]() mutable {
                        complete(conn, slot, std::move(msg));
                      });
      stats_.counter(c_fsyncs_).add();
      obs::metric_add(m_fsyncs_);
      obs::metric_record(m_wal_flush_us_,
                         (log_busy_until_ - stack_.sim().now()).to_micros());
      return;
    }
    case SyncPolicy::kGroup:
      pending_commits_.emplace_back(conn, slot, std::move(msg));
      if (!group_timer_armed_) {
        group_timer_armed_ = true;
        // Collect commits for one window, then issue a single fsync.
        const sim::Time start =
            std::max(stack_.sim().now() + kGroupWindow, log_busy_until_);
        log_busy_until_ = start + cfg_.fsync_delay;
        stack_.sim().at(log_busy_until_, [this] {
          group_timer_armed_ = false;
          stats_.counter(c_fsyncs_).add();
          obs::metric_add(m_fsyncs_);
          auto batch = std::move(pending_commits_);
          pending_commits_.clear();
          stats_.counter(c_group_commit_batches_).add();
          for (auto& [c, sl, m] : batch) complete(c, sl, std::move(m));
        });
      }
      // Once the window is armed log_busy_until_ is this batch's flush
      // completion, so every joining commit observes its true wait.
      obs::metric_record(m_wal_flush_us_,
                         (log_busy_until_ - stack_.sim().now()).to_micros());
      return;
  }
}

template <typename Visit>
void DbServer::respond_rows(const std::shared_ptr<Connection>& conn,
                            const Slot& slot, const Visit& visit) {
  // Rows' cached wire lines are gathered into a reused per-thread buffer
  // (slot 2: parse_field and the table name hold 0 and 1), then copied once
  // into a message with room for the '\n' complete() appends.
  std::string& body = sim::scratch(2);
  body.clear();
  sim::BufWriter w{body};
  std::uint64_t n = 0;
  visit([&](sim::Slice line) {
    w.ch('\n').put(line);
    ++n;
  });
  const sim::NumStr count = sim::u64s(n);
  respond(conn, slot,
          sim::build(5 + count.len + body.size() + 1, [&](std::string& out) {
            sim::BufWriter{out}.put("ROWS ").put(count).put(body);
          }));
}

void DbServer::on_line(const std::shared_ptr<Connection>& conn,
                       sim::Slice line) {
  stats_.counter(c_requests_).add();
  obs::metric_add(m_requests_);
  Slot slot = std::make_shared<PendingResponse>();
  conn->outbox.push_back(slot);
  sim::Slice f[6];
  const std::size_t nf = split_ws(line, f, 6);
  const sim::Slice cmd = f[0];
  // Ambient parent: the app.program span that issued the command.
  slot->ctx = obs::begin_span(obs::Component::kHostDb, db_span_name(cmd),
                              stack_.sim().now());

  auto get_txn = [&](std::uint64_t id) -> Transaction* {
    auto it = conn->txns.find(id);
    return it == conn->txns.end() ? nullptr : it->second.get();
  };
  // Table and transaction APIs key on owning strings; one reused per-thread
  // buffer carries the table name through the whole command. parse_field
  // uses slot 0, so the name is safe in slot 1 for the command's lifetime.
  std::string& tname = sim::scratch(1);
  auto lookup_table = [&](sim::Slice name) -> Table* {
    tname.assign(name.data(), name.size());
    return db_.table(tname);
  };

  if (cmd == "BEGIN") {
    auto txn = db_.begin();
    const std::uint64_t id = txn->id();
    conn->txns[id] = std::move(txn);
    respond(conn, slot, sim::cat("OK ", sim::u64s(id)));
    return;
  }
  if (cmd == "COMMIT" && nf == 2) {
    const std::uint64_t id = parse_u64(f[1]);
    Transaction* txn = get_txn(id);
    if (txn == nullptr) {
      respond(conn, slot, "ERR unknown-txn");
      return;
    }
    const bool ok = txn->commit();
    conn->txns.erase(id);
    stats_.counter(ok ? c_commits_ : c_commit_failures_).add();
    respond_commit(conn, slot, ok ? "OK" : "ERR commit-failed");
    return;
  }
  if (cmd == "ABORT" && nf == 2) {
    const std::uint64_t id = parse_u64(f[1]);
    if (Transaction* txn = get_txn(id); txn != nullptr) {
      txn->abort();
      conn->txns.erase(id);
    }
    respond(conn, slot, "OK");
    return;
  }
  if (cmd == "INS" && nf == 4) {
    const std::uint64_t id = parse_u64(f[1]);
    Table* t = lookup_table(f[2]);
    if (t == nullptr) {
      respond(conn, slot, "ERR no-table");
      return;
    }
    Row row = decode_row_packed(*t, f[3]);
    bool ok;
    if (id == 0) {
      ok = db_.insert(tname, std::move(row));
      if (ok) {
        respond_commit(conn, slot, "OK");
        return;
      }
    } else {
      Transaction* txn = get_txn(id);
      ok = txn != nullptr && txn->insert(tname, std::move(row));
    }
    respond(conn, slot, ok ? "OK" : "ERR insert-failed");
    return;
  }
  if (cmd == "UPD" && nf == 6) {
    const std::uint64_t id = parse_u64(f[1]);
    Table* t = lookup_table(f[2]);
    if (t == nullptr) {
      respond(conn, slot, "ERR no-table");
      return;
    }
    const std::size_t col = parse_u64(f[4]);
    if (col >= t->columns().size()) {
      respond(conn, slot, "ERR bad-column");
      return;
    }
    const Value pk =
        parse_field(f[3], t->columns()[t->primary_key_col()].type);
    const Value v = parse_field(f[5], t->columns()[col].type);
    bool ok;
    if (id == 0) {
      ok = db_.update(tname, pk, col, v);
      if (ok) {
        respond_commit(conn, slot, "OK");
        return;
      }
    } else {
      Transaction* txn = get_txn(id);
      ok = txn != nullptr && txn->update(tname, pk, col, v);
    }
    respond(conn, slot, ok ? "OK" : "ERR update-failed");
    return;
  }
  if (cmd == "DEL" && nf == 4) {
    const std::uint64_t id = parse_u64(f[1]);
    Table* t = lookup_table(f[2]);
    if (t == nullptr) {
      respond(conn, slot, "ERR no-table");
      return;
    }
    const Value pk =
        parse_field(f[3], t->columns()[t->primary_key_col()].type);
    bool ok;
    if (id == 0) {
      ok = db_.erase(tname, pk);
      if (ok) {
        respond_commit(conn, slot, "OK");
        return;
      }
    } else {
      Transaction* txn = get_txn(id);
      ok = txn != nullptr && txn->erase(tname, pk);
    }
    respond(conn, slot, ok ? "OK" : "ERR delete-failed");
    return;
  }
  if (cmd == "GET" && nf == 3) {
    Table* t = lookup_table(f[1]);
    if (t == nullptr) {
      respond(conn, slot, "ERR no-table");
      return;
    }
    const Value pk =
        parse_field(f[2], t->columns()[t->primary_key_col()].type);
    respond_rows(conn, slot, [&](const auto& fn) {
      t->each_line_by(t->primary_key_col(), pk, encode_row, fn);
    });
    return;
  }
  if (cmd == "FINDBY" && nf == 4) {
    Table* t = lookup_table(f[1]);
    if (t == nullptr) {
      respond(conn, slot, "ERR no-table");
      return;
    }
    const std::size_t col = parse_u64(f[2]);
    if (col >= t->columns().size()) {
      respond(conn, slot, "ERR bad-column");
      return;
    }
    const Value v = parse_field(f[3], t->columns()[col].type);
    respond_rows(conn, slot, [&](const auto& fn) {
      t->each_line_by(col, v, encode_row, fn);
    });
    return;
  }
  if (cmd == "SCAN" && nf == 2) {
    Table* t = lookup_table(f[1]);
    if (t == nullptr) {
      respond(conn, slot, "ERR no-table");
      return;
    }
    respond_rows(conn, slot,
                 [&](const auto& fn) { t->each_line(encode_row, fn); });
    return;
  }
  respond(conn, slot, "ERR bad-command");
}

// ---------------------------------------------------------------------------
// DbClient
// ---------------------------------------------------------------------------

DbClient::DbClient(transport::TcpStack& stack, net::Endpoint server)
    : stack_{stack}, server_{server} {
  socket_ = stack_.connect(server_);
  socket_->on_data = [this](const std::string& bytes) { on_data(bytes); };
  socket_->on_closed = [this] { fail_all("connection-closed"); };
}

void DbClient::fail_all(const std::string& why) {
  auto pending = std::move(pending_);
  pending_.clear();
  // A half-received ROWS answer is dropped with the connection.
  clear_answer();
  answer_.error = why;
  for (auto& cb : pending) cb(answer_);
}

void DbClient::send_command(std::string&& line, Callback cb) {
  stats_.counter(c_commands_).add();
  pending_.push_back(std::move(cb));
  line += '\n';
  socket_->send(line);
}

void DbClient::on_data(const std::string& bytes) {
  sim::Slice data;
  if (buffer_.empty()) {
    data = bytes;
  } else {
    buffer_ += bytes;
    data = buffer_;
  }
  std::size_t start = 0;
  std::size_t nl;
  while ((nl = data.find('\n', start)) != sim::Slice::npos) {
    on_line(sim::Slice{data.data() + start, nl - start}, data.substr(nl + 1));
    start = nl + 1;
  }
  if (data.data() == buffer_.data()) {
    buffer_.erase(0, start);
  } else if (start < data.size()) {
    buffer_.assign(data.data() + start, data.size() - start);
  }
}

void DbClient::on_line(sim::Slice line, sim::Slice ahead) {
  if (!answer_.rows.complete()) {
    answer_.rows.append(line);
    if (answer_.rows.complete()) deliver();
    return;
  }
  if (pending_.empty()) return;  // stray line

  clear_answer();
  if (line.starts_with("OK")) {
    answer_.ok = true;
    if (line.size() > 3) answer_.txn = parse_u64(line.substr(3));
  } else if (line.starts_with("ROWS ")) {
    answer_.ok = true;
    const std::uint64_t n = parse_u64(line.substr(5));
    if (n > 0) {
      answer_.rows.start(n, ahead);
      return;  // wait for the row lines
    }
  } else {
    answer_.error.assign(line.data(), line.size());
  }
  deliver();
}

void DbClient::clear_answer() {
  answer_.ok = false;
  answer_.error.clear();
  answer_.txn = 0;
  answer_.rows.clear();
}

void DbClient::deliver() {
  if (pending_.empty()) return;
  auto cb = std::move(pending_.front());
  pending_.pop_front();
  cb(answer_);
}

void DbClient::begin(Callback cb) { send_command("BEGIN", std::move(cb)); }
void DbClient::commit(std::uint64_t txn, Callback cb) {
  send_command(sim::cat("COMMIT ", sim::u64s(txn)), std::move(cb));
}
void DbClient::abort_txn(std::uint64_t txn, Callback cb) {
  send_command(sim::cat("ABORT ", sim::u64s(txn)), std::move(cb));
}
void DbClient::insert(std::uint64_t txn, const std::string& table,
                      const std::vector<std::string>& fields, Callback cb) {
  MCS_ASSERT(!table.empty() && !fields.empty(),
             "INS needs a named table and at least the primary-key field");
  send_command(sim::build(16 + table.size(), [&](std::string& out) {
    sim::BufWriter w{out};
    w.put("INS ").u64(txn).ch(' ').put(table).ch(' ');
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) w.ch('|');
      esc_append(w, fields[i]);
    }
  }), std::move(cb));
}
void DbClient::update(std::uint64_t txn, const std::string& table,
                      const std::string& pk, std::size_t col,
                      const std::string& value, Callback cb) {
  MCS_ASSERT(!table.empty(),
             "UPD addresses its table by name; the server has no default");
  send_command(sim::build(24 + table.size(), [&](std::string& out) {
    sim::BufWriter w{out};
    w.put("UPD ").u64(txn).ch(' ').put(table).ch(' ');
    esc_append(w, pk);
    w.ch(' ').u64(col).ch(' ');
    esc_append(w, value);
  }), std::move(cb));
}
void DbClient::erase(std::uint64_t txn, const std::string& table,
                     const std::string& pk, Callback cb) {
  MCS_ASSERT(!table.empty(),
             "DEL addresses its table by name; the server has no default");
  send_command(sim::build(16 + table.size(), [&](std::string& out) {
    sim::BufWriter w{out};
    w.put("DEL ").u64(txn).ch(' ').put(table).ch(' ');
    esc_append(w, pk);
  }), std::move(cb));
}
void DbClient::get(const std::string& table, const std::string& pk,
                   Callback cb) {
  MCS_ASSERT(!table.empty(),
             "GET addresses its table by name; the server has no default");
  send_command(sim::build(8 + table.size(), [&](std::string& out) {
    sim::BufWriter w{out};
    w.put("GET ").put(table).ch(' ');
    esc_append(w, pk);
  }), std::move(cb));
}
void DbClient::find_by(const std::string& table, std::size_t col,
                       const std::string& value, Callback cb) {
  MCS_ASSERT(!table.empty(),
             "FINDBY addresses its table by name; the server has no default");
  send_command(sim::build(16 + table.size(), [&](std::string& out) {
    sim::BufWriter w{out};
    w.put("FINDBY ").put(table).ch(' ').u64(col).ch(' ');
    esc_append(w, value);
  }), std::move(cb));
}
void DbClient::scan(const std::string& table, Callback cb) {
  send_command(sim::cat("SCAN ", table), std::move(cb));
}

}  // namespace mcs::host::db

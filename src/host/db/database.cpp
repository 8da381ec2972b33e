#include "host/db/database.h"

#include <type_traits>

#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::host::db {

namespace {

// The WAL op of each mutation, appended to `out`. Rows join
// to_string()-form cells with '|'.
void write_insert(std::string& out, const std::string& table, const Row& row) {
  sim::BufWriter w{out};
  w.put("INS ").put(table).ch(' ');
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) w.ch('|');
    append_value(w, row[i]);
  }
}

void write_update(std::string& out, const std::string& table, const Value& pk,
                  std::size_t col, const Value& v) {
  sim::BufWriter w{out};
  w.put("UPD ").put(table).ch(' ');
  append_value(w, pk);
  w.ch(' ').u64(col).ch(' ');
  append_value(w, v);
}

void write_erase(std::string& out, const std::string& table,
                 const Value& pk) {
  sim::BufWriter w{out};
  w.put("DEL ").put(table).ch(' ');
  append_value(w, pk);
}

}  // namespace

static_assert(std::is_trivially_copyable_v<WalRecord>,
              "WAL records are raw-arena allocated; they must not need a "
              "constructor or destructor");

void Wal::append(std::uint64_t txn, sim::Slice op) {
  MCS_ASSERT(txn != 0, "WAL records belong to a real transaction (ids "
                       "start at 1)");
  MCS_ASSERT(!op.empty(), "an empty WAL record would replay as a no-op");
  bytes_ += op.size() + 16;  // record framing overhead
  auto* rec = static_cast<WalRecord*>(
      arena_.allocate(sizeof(WalRecord), alignof(WalRecord)));
  *rec = WalRecord{txn, arena_.copy(op), nullptr};
  if (tail_ == nullptr) {
    head_ = rec;
  } else {
    tail_->next = rec;
  }
  tail_ = rec;
  ++count_;
}

void Wal::checkpoint() {
  head_ = nullptr;
  tail_ = nullptr;
  count_ = 0;
  bytes_ = 0;
  // Under MCS_SANITIZE=address the reset poisons every record and op byte,
  // so a stale WalRecord* held across a checkpoint traps immediately.
  arena_.reset();
  ++checkpoints_;
  MCS_INVARIANT(head_ == nullptr && count_ == 0 && bytes_ == 0,
                "a checkpoint truncates the log completely");
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

Transaction::~Transaction() {
  if (state_ == State::kActive) abort();
}

bool Transaction::lock(const Table& table) {
  if (!Database::try_lock(table, id_)) return false;
  for (std::size_t i = 0; i < locked_count_; ++i) {
    if (locked_tables_[i] == &table) return true;  // already held
  }
  MCS_ASSERT(locked_count_ < kMaxLockedTables,
             "transaction locked more tables than the inline lock table "
             "holds; raise kMaxLockedTables");
  locked_tables_[locked_count_++] = &table;
  return true;
}

bool Transaction::insert(const std::string& table, Row row) {
  if (state_ != State::kActive) return false;
  Table* t = db_.table(table);
  if (t == nullptr || !lock(*t)) return false;
  MCS_ASSERT(t->primary_key_col() < row.size(),
             "row too short to carry the table's primary key");
  const Value pk = row[t->primary_key_col()];
  auto wal_op = sim::build(8 + table.size(), [&](std::string& out) {
    write_insert(out, table, row);
  });
  if (!t->insert(std::move(row))) return false;
  undo_.push_back(
      UndoOp{UndoOp::Kind::kErase, table, pk, {}});
  redo_.push_back(std::move(wal_op));
  MCS_INVARIANT(undo_.size() == redo_.size(),
                "every redo record needs a matching undo to stay abortable");
  return true;
}

bool Transaction::update(const std::string& table, const Value& pk,
                         std::size_t col, const Value& v) {
  if (state_ != State::kActive) return false;
  Table* t = db_.table(table);
  if (t == nullptr || !lock(*t)) return false;
  const Row* old = t->find(pk);
  if (old == nullptr) return false;
  Row old_copy = *old;
  if (!t->update(pk, col, v)) return false;
  // After a PK-column update the row is addressed by the new key.
  const Value new_pk = col == t->primary_key_col() ? v : pk;
  undo_.push_back(
      UndoOp{UndoOp::Kind::kRestoreRow, table, new_pk, std::move(old_copy)});
  redo_.push_back(sim::build(8 + table.size(), [&](std::string& out) {
    write_update(out, table, pk, col, v);
  }));
  MCS_INVARIANT(undo_.size() == redo_.size(),
                "every redo record needs a matching undo to stay abortable");
  return true;
}

bool Transaction::erase(const std::string& table, const Value& pk) {
  if (state_ != State::kActive) return false;
  Table* t = db_.table(table);
  if (t == nullptr || !lock(*t)) return false;
  const Row* old = t->find(pk);
  if (old == nullptr) return false;
  Row old_copy = *old;
  if (!t->erase(pk)) return false;
  undo_.push_back(
      UndoOp{UndoOp::Kind::kReinsert, table, pk, std::move(old_copy)});
  redo_.push_back(sim::build(8 + table.size(), [&](std::string& out) {
    write_erase(out, table, pk);
  }));
  MCS_INVARIANT(undo_.size() == redo_.size(),
                "every redo record needs a matching undo to stay abortable");
  return true;
}

const Row* Transaction::find(const std::string& table, const Value& pk) const {
  const Table* t = db_.table(table);
  return t == nullptr ? nullptr : t->find(pk);
}

bool Transaction::commit() {
  if (state_ != State::kActive) return false;
  MCS_ASSERT(undo_.size() == redo_.size(),
             "commit with unpaired undo/redo: some mutation bypassed "
             "transaction bookkeeping");
  for (const auto& op : redo_) db_.wal_.append(id_, op);
  db_.wal_.append(id_, "COMMIT");
  state_ = State::kCommitted;
  Database::unlock_all(id_, {locked_tables_.data(), locked_count_});
  ++db_.committed_;
  MCS_INVARIANT(state_ != State::kActive,
                "a committed transaction can never mutate again");
  return true;
}

void Transaction::abort() {
  if (state_ != State::kActive) return;
  // Undo in reverse order.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    Table* t = db_.table(it->table);
    if (t == nullptr) continue;
    switch (it->kind) {
      case UndoOp::Kind::kErase:
        t->erase(it->pk);
        break;
      case UndoOp::Kind::kRestoreRow:
        t->update_row(it->pk, it->old_row);
        break;
      case UndoOp::Kind::kReinsert:
        t->insert(it->old_row);
        break;
    }
  }
  state_ = State::kAborted;
  Database::unlock_all(id_, {locked_tables_.data(), locked_count_});
  ++db_.aborted_;
  MCS_INVARIANT(state_ == State::kAborted,
                "abort must land in the terminal state even when undo "
                "touched dropped tables");
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Table& Database::create_table(const std::string& table,
                              std::vector<Column> columns,
                              std::size_t primary_key_col) {
  MCS_ASSERT(!table.empty(), "tables are addressed by name everywhere; "
                             "an unnamed table would be unreachable");
  MCS_ASSERT(!tables_.contains(table),
             "a table is created once: transactions hold pointers to it");
  auto t = std::make_unique<Table>(table, std::move(columns), primary_key_col);
  Table& ref = *t;
  tables_[table] = std::move(t);
  MCS_INVARIANT(tables_.contains(table),
                "create_table must leave the table addressable by name");
  return ref;
}

Table* Database::table(const std::string& name) {
  MCS_ASSERT(!name.empty(), "table lookup requires a name");
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(name);
  return out;
}

std::unique_ptr<Transaction> Database::begin() {
  return std::unique_ptr<Transaction>{new Transaction{*this, next_txn_++}};
}

// An autocommit runs to completion before anything else can take a lock,
// so it records no undo, copies no old row and takes no lock: it only has
// to find its table unlocked, as a one-op Transaction would. Success logs
// the op and COMMIT exactly as Transaction::commit() does; failure counts
// as an abort. Either way the transaction id is spent.
Table* Database::autocommit_table(const std::string& table) {
  Table* t = this->table(table);
  return t != nullptr && t->lock_owner_ == 0 ? t : nullptr;
}

bool Database::finish_autocommit(std::uint64_t txn, bool ok) {
  if (!ok) {
    ++aborted_;
    return false;
  }
  wal_.append(txn, wal_op_);
  wal_.append(txn, "COMMIT");
  ++committed_;
  return true;
}

bool Database::insert(const std::string& table, Row row) {
  const std::uint64_t txn = next_txn_++;
  Table* t = autocommit_table(table);
  if (t == nullptr) return finish_autocommit(txn, false);
  MCS_ASSERT(t->primary_key_col() < row.size(),
             "row too short to carry the table's primary key");
  wal_op_.clear();
  write_insert(wal_op_, table, row);
  return finish_autocommit(txn, t->insert(std::move(row)));
}

bool Database::update(const std::string& table, const Value& pk,
                      std::size_t col, const Value& v) {
  const std::uint64_t txn = next_txn_++;
  Table* t = autocommit_table(table);
  if (t == nullptr) return finish_autocommit(txn, false);
  // Written first: `pk` may name a cell of the row the update rewrites.
  wal_op_.clear();
  write_update(wal_op_, table, pk, col, v);
  const std::size_t rows = t->size();
  const bool ok = finish_autocommit(txn, t->update(pk, col, v));
  MCS_INVARIANT(t->size() == rows, "an update never adds or drops a row");
  return ok;
}

bool Database::erase(const std::string& table, const Value& pk) {
  const std::uint64_t txn = next_txn_++;
  Table* t = autocommit_table(table);
  if (t == nullptr) return finish_autocommit(txn, false);
  wal_op_.clear();
  write_erase(wal_op_, table, pk);
  const std::size_t rows = t->size();
  const bool ok = finish_autocommit(txn, t->erase(pk));
  MCS_INVARIANT(t->size() + (ok ? 1 : 0) == rows,
                "a committed erase drops exactly one row, a failed one none");
  return ok;
}

bool Database::try_lock(const Table& table, std::uint64_t txn) {
  if (table.lock_owner_ == 0) {
    table.lock_owner_ = txn;
    return true;
  }
  return table.lock_owner_ == txn;
}

void Database::unlock_all(std::uint64_t txn,
                          std::span<const Table* const> tables) {
  for (const Table* t : tables) {
    if (t->lock_owner_ == txn) t->lock_owner_ = 0;
  }
}

}  // namespace mcs::host::db

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "host/db/value.h"

namespace mcs::host::db {

// One relational table: typed columns, a unique primary key, optional
// secondary indexes, predicate scans. Rows live in a slot vector; indexes
// map key values to slots.
class Table {
 public:
  Table(std::string name, std::vector<Column> columns,
        std::size_t primary_key_col = 0);

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }
  std::size_t primary_key_col() const { return pk_col_; }
  std::optional<std::size_t> column_index(const std::string& name) const;

  // --- Mutations (return false on constraint violation) ---------------------
  bool insert(Row row);
  bool update(const Value& pk, std::size_t col, const Value& v);
  bool update_row(const Value& pk, Row row);
  bool erase(const Value& pk);

  // --- Queries ---------------------------------------------------------------
  const Row* find(const Value& pk) const;
  // Visitors: call `fn(const Row&)` on each matching row in place, with no
  // copy. each() visits every live row in slot order; each_by() visits the
  // rows equal to `v` on `col` (primary key, then a secondary index, then a
  // slot-order scan). The copying queries below are built on them, so both
  // forms see the same rows in the same order.
  template <typename Fn>
  void each(Fn&& fn) const {
    each_slot([&](const Slot& s) { fn(s.row); });
  }
  template <typename Fn>
  void each_by(std::size_t col, const Value& v, Fn&& fn) const {
    each_slot_by(col, v, [&](const Slot& s) { fn(s.row); });
  }

  // Row wire cache (DESIGN.md §12.4): each_line() and each_line_by() visit
  // the same rows as each() and each_by(), passing `fn` the row's wire text
  // instead. `encode(out, row)` is the server's line encoder; it writes the
  // line into `out`, which it clears first. A slot keeps the line until a
  // mutation of that slot (insert, update, update_row, erase) invalidates
  // it, so a row is encoded on the first read after each write, not on
  // every read.
  using LineEncoder = void (*)(std::string& out, const Row& row);
  template <typename Fn>
  void each_line(LineEncoder encode, Fn&& fn) const {
    each_slot([&](const Slot& s) { fn(line_of(s, encode)); });
  }
  template <typename Fn>
  void each_line_by(std::size_t col, const Value& v, LineEncoder encode,
                    Fn&& fn) const {
    each_slot_by(col, v, [&](const Slot& s) { fn(line_of(s, encode)); });
  }

  std::vector<Row> scan(
      const std::function<bool(const Row&)>& predicate) const;
  std::vector<Row> all() const { return scan([](const Row&) { return true; }); }
  // Equality lookup; uses a secondary index when one exists on `col`.
  std::vector<Row> find_by(std::size_t col, const Value& v) const;

  void create_index(std::size_t col);
  bool has_index(std::size_t col) const { return indexes_.contains(col); }

  std::size_t size() const { return live_rows_; }

 private:
  friend class Database;  // takes and releases lock_owner_

  // Dead slots chain through the slots themselves: erase/insert churn on
  // the steady state reuses storage with no free-list container to grow
  // (the table hot path stays allocation-free once the slot vector has
  // reached the working-set size).
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  struct Slot {
    Row row;
    bool live = false;
    std::size_t next_free = kNoSlot;  // intrusive free-list link
    // The row's wire text, valid while line_ok; every mutation of the slot
    // clears line_ok and the next read re-encodes into the same storage.
    mutable std::string line;
    mutable bool line_ok = false;
  };
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return value_less(a, b);
    }
  };
  using Index = std::multimap<Value, std::size_t, ValueLess>;

  template <typename Fn>
  void each_slot(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.live) fn(s);
    }
  }
  template <typename Fn>
  void each_slot_by(std::size_t col, const Value& v, Fn&& fn) const;
  static const std::string& line_of(const Slot& s, LineEncoder encode) {
    if (!s.line_ok) {
      encode(s.line, s.row);
      s.line_ok = true;
    }
    return s.line;
  }

  void index_insert(std::size_t slot);
  void index_erase(std::size_t slot);

  std::string name_;
  std::vector<Column> columns_;
  std::size_t pk_col_ = 0;
  std::vector<Slot> slots_;
  std::size_t free_head_ = kNoSlot;  // head of the intrusive free list
  std::map<Value, std::size_t, ValueLess> primary_;
  std::map<std::size_t, Index> indexes_;  // col -> index
  std::size_t live_rows_ = 0;
  // Table-level write lock of the owning Database's transactions: the id of
  // the transaction holding it, 0 while free. Lock state, not content, so a
  // const Table can be locked.
  mutable std::uint64_t lock_owner_ = 0;
};

template <typename Fn>
void Table::each_slot_by(std::size_t col, const Value& v, Fn&& fn) const {
  if (col == pk_col_) {
    if (auto it = primary_.find(v); it != primary_.end()) {
      fn(slots_[it->second]);
    }
    return;
  }
  if (auto idx = indexes_.find(col); idx != indexes_.end()) {
    auto [lo, hi] = idx->second.equal_range(v);
    for (auto it = lo; it != hi; ++it) fn(slots_[it->second]);
    return;
  }
  each_slot([&](const Slot& s) {
    if (value_eq(s.row[col], v)) fn(s);
  });
}

}  // namespace mcs::host::db

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/contract.h"

namespace mcs::middleware {

// Bounds of the memos on the Figure 2 page path, from measured hit rates
// (DESIGN.md §12.4): entries, and heap bytes of keys and outputs together.
// A gateway memo maps HTML bodies to translated pages; i-mode media bodies
// run to 28 KB.
inline constexpr std::size_t kGatewayMemoEntries = 64;
inline constexpr std::size_t kGatewayMemoBytes = std::size_t{1} << 20;
// A station memo maps delivered pages to their decoded scan.
inline constexpr std::size_t kStationMemoEntries = 32;
inline constexpr std::size_t kStationMemoBytes = std::size_t{256} << 10;

// A small bounded memo of one pure page transform, keyed by the exact input
// bytes plus a one-byte variant tag (DESIGN.md §12.4). Each gateway and
// browser owns one; it dies with its component, so nothing outlives the
// system that produced it.
//
// The hash only selects candidates: a hit needs the same tag and the same
// bytes, so a collision can never return another input's output. Storage
// grows on the first misses, never at construction. Once the memo holds
// `max_entries`, a miss refills the least recently used entry in place,
// reusing its string capacity. When the heap bytes exceed `max_bytes`, the
// least recently used other entries are released until they fit again, so
// the memo never holds more than max(max_bytes, its newest entry).
//
// `Value` is default-constructible and reports the heap bytes it holds with
// `std::size_t bytes() const`. `Hash` is replaceable so tests can force
// collisions. A reference returned by get() is valid only until the next
// get(): never hold it across a callback or an event.
template <typename Value, typename Hash = std::hash<std::string_view>>
class PageMemo {
 public:
  PageMemo(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_{max_entries}, max_bytes_{max_bytes} {
    MCS_ASSERT(max_entries_ > 0, "a page memo needs room for one entry");
  }
  PageMemo(const PageMemo&) = delete;
  PageMemo& operator=(const PageMemo&) = delete;

  // The output for (`input`, `tag`). On a miss, `fill(input, value)` writes
  // it into an entry's Value, which is then returned exactly like a hit.
  template <typename Fill>
  const Value& get(std::string_view input, std::uint8_t tag, Fill&& fill) {
    const std::size_t hash = Hash{}(input) ^ tag;
    ++clock_;
    for (Entry& e : entries_) {
      if (e.hash == hash && e.tag == tag && e.key == input) {
        e.used = clock_;
        return e.value;
      }
    }
    Entry& e = victim();
    bytes_ -= e.bytes;
    e.hash = hash;
    e.tag = tag;
    e.used = clock_;
    e.key.assign(input);
    fill(input, e.value);
    e.bytes = e.key.capacity() + e.value.bytes();
    bytes_ += e.bytes;
    const std::uint64_t newest = clock_;
    while (bytes_ > max_bytes_ && entries_.size() > 1) release_oldest(newest);
    MCS_INVARIANT(entries_.size() <= max_entries_ &&
                      (bytes_ <= max_bytes_ || entries_.size() == 1),
                  "a page memo must stay within its entry and byte bounds");
    // Releases may have moved the newest entry; it is never released.
    return std::find_if(entries_.begin(), entries_.end(),
                        [newest](const Entry& k) { return k.used == newest; })
        ->value;
  }

  std::size_t size() const { return entries_.size(); }
  // Heap bytes held by keys and outputs (string capacities).
  std::size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    std::size_t hash = 0;
    std::uint8_t tag = 0;
    std::uint64_t used = 0;  // clock_ at the last get() that returned it
    std::size_t bytes = 0;   // key capacity + value.bytes() when filled
    std::string key;
    Value value;
  };

  Entry& victim() {
    if (entries_.size() < max_entries_) {
      if (entries_.empty()) entries_.reserve(max_entries_);
      return entries_.emplace_back();
    }
    return *oldest(0);
  }

  // The least recently used entry other than the one stamped `skip`.
  typename std::vector<Entry>::iterator oldest(std::uint64_t skip) {
    auto best = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->used == skip) continue;
      if (best == entries_.end() || it->used < best->used) best = it;
    }
    return best;
  }

  void release_oldest(std::uint64_t keep) {
    auto it = oldest(keep);
    bytes_ -= it->bytes;
    if (it != entries_.end() - 1) *it = std::move(entries_.back());
    entries_.pop_back();
  }

  std::size_t max_entries_ = 0;
  std::size_t max_bytes_ = 0;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace mcs::middleware

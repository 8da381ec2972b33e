#include "sim/simulator.h"

#include <utility>

#include "sim/contract.h"

namespace mcs::sim {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

constexpr std::size_t kArity = 4;
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoIndex) {
    const std::uint32_t slot = free_head_;
    free_head_ = meta_[slot].next_free;
    return slot;
  }
  meta_.emplace_back();
  fns_.emplace_back();
  return static_cast<std::uint32_t>(meta_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  fns_[slot].reset();
  SlotMeta& m = meta_[slot];
  m.heap_index = kNoIndex;
  // Bumping the generation on release invalidates every outstanding EventId
  // for this slot immediately, before any reuse.
  ++m.gen;
  m.next_free = free_head_;
  free_head_ = slot;
}

// Writes `node` at `index` and records the new position in its slot.
void Simulator::place(std::size_t index, HeapNode node) {
  meta_[slot_of(node)].heap_index = static_cast<std::uint32_t>(index);
  heap_[index] = node;
}

std::size_t Simulator::sift_up(std::size_t index, const HeapNode& node) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  return index;
}

std::size_t Simulator::sift_down(std::size_t index, const HeapNode& node) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = index * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], node)) break;
    place(index, heap_[best]);
    index = best;
  }
  return index;
}

// at() has already parked the callback in `slot`; link it into the heap.
EventId Simulator::finish_schedule(Time t, std::uint32_t slot) {
  const HeapNode node{t.ns(), pack(next_seq_++, slot)};
  heap_.push_back(node);
  place(sift_up(heap_.size() - 1, node), node);
  return (static_cast<EventId>(slot) << 32) | meta_[slot].gen;
}

Simulator::SlotMeta* Simulator::pending_meta(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  if (slot >= meta_.size()) return nullptr;
  SlotMeta& m = meta_[slot];
  // Fired, already-cancelled, and recycled handles all fail this check:
  // release_slot() bumped the generation the moment the slot emptied.
  const bool live = m.gen == static_cast<std::uint32_t>(id) &&
                    m.heap_index != kNoIndex;
  return live ? &m : nullptr;
}

void Simulator::cancel(EventId id) {
  const SlotMeta* m = pending_meta(id);
  if (m == nullptr) return;
  remove_heap_index(m->heap_index);
  release_slot(static_cast<std::uint32_t>(id >> 32));
}

// cancel() + at() would release the slot and take it straight back off the
// free list, bumping its generation once; doing both in place leaves the
// callback where it is and re-sifts one node.
EventId Simulator::retime(EventId id, Time t) {
  MCS_ASSERT(t >= now_, "Simulator::retime(): cannot move into the past");
  SlotMeta* m = pending_meta(id);
  if (m == nullptr) return kInvalidEventId;
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  ++m->gen;
  const HeapNode node{t.ns(), pack(next_seq_++, slot)};
  const std::size_t index = m->heap_index;
  const std::size_t up = sift_up(index, node);
  place(up == index ? sift_down(index, node) : up, node);
  return (static_cast<EventId>(slot) << 32) | m->gen;
}

// Removes the heap node at `index`, preserving the heap invariant: the last
// node fills the hole and sifts whichever direction restores order.
void Simulator::remove_heap_index(std::uint32_t index) {
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;  // removed the tail node itself
  const std::size_t up = sift_up(index, last);
  place(up == index ? sift_down(index, last) : up, last);
}

// Root removal, Floyd-style: walk the hole down to a leaf along minimum
// children (3 compares per level), then drop the tail node in and sift it
// up (expected O(1) — the tail is almost always leaf-sized). The plain
// sift_down in remove_heap_index() pays an extra compare against the moved
// node at every level; on the pop-heavy steady state that shows up in
// bench/kernel.
void Simulator::pop_root() {
  const HeapNode last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = hole * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    place(hole, heap_[best]);
    hole = best;
  }
  place(sift_up(hole, last), last);
}

bool Simulator::pop_and_run_next() {
  if (heap_.empty()) return false;
  const HeapNode top = heap_[0];
  // The heap must deliver events in nondecreasing time: a violation here
  // means the (time, schedule-order) replay contract is already broken.
  MCS_INVARIANT(top.t >= now_.ns(),
                "event heap yielded a timestamp before now()");
  // Move the callback out and retire the slot *before* invoking it, so a
  // callback cancelling its own id (or scheduling into this slot's reuse)
  // sees consistent state — same semantics as the seed kernel's erase-first.
  const std::uint32_t slot = slot_of(top);
  InlineFunction fn = std::move(fns_[slot]);
  pop_root();
  release_slot(slot);
  now_ = Time::nanos(top.t);
  ++executed_;
  trace_hash_ = fnv1a_mix(fnv1a_mix(trace_hash_,
                                    static_cast<std::uint64_t>(top.t)),
                          top.word >> kSlotBits);
  fn();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next()) {
  }
}

void Simulator::run_until(Time t) {
  MCS_ASSERT(t >= now_, "Simulator::run_until(): target before now()");
  stopped_ = false;
  // Unlike the seed kernel there are no tombstones: heap_[0] is always a
  // live event, so the boundary check needs no cancelled-head purge.
  while (!stopped_ && !heap_.empty() && heap_[0].t <= t.ns()) {
    pop_and_run_next();
  }
  if (t > now_) now_ = t;
}

}  // namespace mcs::sim

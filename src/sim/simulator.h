#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/contract.h"
#include "sim/inline_function.h"
#include "sim/time.h"

namespace mcs::sim {

// Opaque handle: (slot << 32) | generation. Generations start at 1, so no
// live event ever encodes to 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Deterministic discrete-event scheduler. Single-threaded: callbacks run to
// completion in (time, schedule-order) order, so equal-timestamp events fire
// FIFO and whole-system runs replay exactly for a fixed seed.
//
// Internals (see DESIGN.md §8): a single indexed 4-ary min-heap of 16-byte
// nodes {time, seq << 24 | slot}; seq is unique, so ordering on the pair is
// ordering on (time, seq), and four children fill 64 bytes. A slot's
// bookkeeping (generation, heap position, free-list link) lives in a dense
// 12-byte array and its callback in a separate array of InlineFunctions (no
// per-event heap allocation for captures <= 48B), so a heap move writes a
// small hot array. Generations make cancel() an O(log n) remove-at-index --
// stale or double cancels fail the generation check and no tombstones ever
// sit in the heap. The visible schedule (and therefore trace_hash()) is
// byte-identical to the seed kernel's.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Schedule `fn` at absolute time `t` (must be >= now()). Accepts any
  // void() callable; captures up to InlineFunction::kInlineSize bytes are
  // stored inline in the callback array.
  template <typename F>
  EventId at(Time t, F&& fn) {
    MCS_ASSERT(callable_not_null(fn), "Simulator::at(): null callback");
    MCS_ASSERT(t >= now_, "Simulator::at(): cannot schedule into the past");
    // Construct the callback directly in its slot: no InlineFunction
    // temporary, no relocate through the dispatch table.
    const std::uint32_t slot = acquire_slot();
    fns_[slot].install(std::forward<F>(fn));
    return finish_schedule(t, slot);
  }
  // Schedule `fn` after `delay` (must be >= 0) from now().
  template <typename F>
  EventId after(Time delay, F&& fn) {
    MCS_ASSERT(!delay.is_negative(), "Simulator::after(): negative delay");
    return at(now_ + delay, std::forward<F>(fn));
  }
  // Cancel a pending event; no-op if it already ran or was cancelled.
  void cancel(EventId id);
  // Move a pending event to time `t` (must be >= now()), keeping its
  // callback. Schedules exactly like cancel(id) followed by at(t, the same
  // callback): the event takes the next sequence number, `id` goes stale,
  // and the returned id replaces it. Returns kInvalidEventId, changing
  // nothing, if `id` already ran or was cancelled.
  EventId retime(EventId id, Time t);

  Time now() const { return now_; }

  // Run until the queue drains or stop() is called.
  void run();
  // Run all events with timestamp <= t; afterwards now() == t.
  void run_until(Time t);
  // Run for `d` simulated time from now().
  void run_for(Time d) { run_until(now_ + d); }
  // Stop the current run() after the in-flight callback returns.
  void stop() { stopped_ = true; }

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  // Timestamp of the next pending event (now() when the queue is empty).
  // The kernel profiler samples next_time() - now() as deterministic
  // event-loop lookahead: how far the kernel can jump before more work.
  Time next_time() const {
    return heap_.empty() ? now_ : Time::nanos(heap_.front().t);
  }

  // Bytes reserved by the kernel's own structures (heap nodes, slot
  // bookkeeping and callbacks). Capacity-based, so it tracks high-water
  // footprint rather than the instantaneous queue depth; sampled by the
  // kernel profiler.
  std::size_t footprint_bytes() const {
    return heap_.capacity() * sizeof(HeapNode) +
           meta_.capacity() * sizeof(SlotMeta) +
           fns_.capacity() * sizeof(InlineFunction);
  }

  // FNV-1a hash over the (time, sequence) pairs of every executed event.
  // Two runs of the same scenario with the same seed must produce identical
  // hashes; the determinism tests (and the kernel rewrite itself) assert on
  // this instead of diffing full event logs.
  std::uint64_t trace_hash() const { return trace_hash_; }

 private:
  friend struct SimulatorTestPeer;  // drives the layout limits in tests

  static constexpr std::uint32_t kNoIndex = 0xffffffffu;
  // The heap node's word packs the slot into its low 24 bits and the
  // sequence number above them, which bounds both.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSchedules = 1ull << (64 - kSlotBits);

  // Empty std::functions / null function pointers must trip the contract
  // check; plain lambdas are never null.
  template <typename F>
  static constexpr bool callable_not_null(const F& f) {
    if constexpr (std::is_constructible_v<bool, const F&>) {
      return static_cast<bool>(f);
    } else {
      return true;
    }
  }

  struct HeapNode {
    std::int64_t t = 0;      // Time::ns()
    std::uint64_t word = 0;  // seq << kSlotBits | slot
  };
  static_assert(sizeof(HeapNode) == 16);

  struct SlotMeta {
    std::uint32_t gen = 1;
    // Position of this slot's node in heap_, or kNoIndex when free.
    std::uint32_t heap_index = kNoIndex;
    std::uint32_t next_free = kNoIndex;
  };
  static_assert(sizeof(SlotMeta) == 12);

  static std::uint64_t pack(std::uint64_t seq, std::uint32_t slot) {
    MCS_ASSERT(slot < kMaxSlots, "Simulator: 2^24 events pending at once");
    MCS_ASSERT(seq < kMaxSchedules, "Simulator: 2^40 events scheduled");
    return seq << kSlotBits | slot;
  }
  static std::uint32_t slot_of(const HeapNode& n) {
    return static_cast<std::uint32_t>(n.word & kSlotMask);
  }

  static bool before(const HeapNode& a, const HeapNode& b) {
#ifdef __SIZEOF_INT128__
    // Branchless composite-key compare. Timestamps are non-negative (at()
    // rejects scheduling into the past and now() starts at zero), so the
    // unsigned reinterpretation preserves order; sift loops on large heaps
    // mispredict the two-field form badly enough to show in bench/kernel.
    const auto key = [](const HeapNode& n) {
      return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(n.t))
              << 64) |
             n.word;
    };
    return key(a) < key(b);
#else
    if (a.t != b.t) return a.t < b.t;
    return a.word < b.word;
#endif
  }

  EventId finish_schedule(Time t, std::uint32_t slot);
  // The bookkeeping of the event `id` names if it is pending, else null.
  SlotMeta* pending_meta(EventId id);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void place(std::size_t index, HeapNode node);
  std::size_t sift_up(std::size_t index, const HeapNode& node);
  std::size_t sift_down(std::size_t index, const HeapNode& node);
  void remove_heap_index(std::uint32_t index);
  void pop_root();
  bool pop_and_run_next();

  Time now_;
  bool stopped_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t trace_hash_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::vector<HeapNode> heap_;
  std::vector<SlotMeta> meta_;      // by slot
  std::vector<InlineFunction> fns_;  // by slot
  std::uint32_t free_head_ = kNoIndex;
};

}  // namespace mcs::sim

// Differential test of the event kernel against a reference queue: a
// std::set ordered on (time, sequence), which is the order the kernel
// promises by definition. A seeded random mix of at(), after(), cancel() and
// retime() -- equal-time ties, self-cancels inside callbacks, cancels and
// retimes of fired and already-cancelled ids -- drives both. A retime is,
// by contract, a cancel followed by a schedule of the same callback, so the
// reference re-inserts the label under the next sequence number. Every
// executed event must be the reference's minimum when it runs, and the
// kernel's trace_hash(), executed() and pending() must equal the
// reference's at the end.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace mcs::sim {
namespace {

// The kernel's documented trace hash: FNV-1a over the little-endian bytes
// of each executed event's timestamp (ns) and then its sequence number.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

class KernelModel {
 public:
  KernelModel(std::uint64_t seed, int label_budget)
      : rng_{seed}, budget_{label_budget} {}

  // Seeds `initial` events, then alternates bounded run_until() steps with
  // operations from outside any callback until the queue drains.
  void run(int initial) {
    for (int i = 0; i < initial; ++i) schedule(random_delay(8));
    while (sim_.pending() > 0) {
      for (int i = static_cast<int>(rng_.uniform_int(0, 3)); i > 0; --i) {
        random_op();
      }
      sim_.run_until(sim_.now() + Time::micros(rng_.uniform_int(0, 5)));
    }
    sim_.run();
  }

  void expect_matches_reference() const {
    EXPECT_EQ(out_of_order_, 0u);
    EXPECT_EQ(sim_.executed(), executed_);
    EXPECT_EQ(sim_.trace_hash(), hash_);
    EXPECT_EQ(sim_.pending(), ref_.size());
    EXPECT_TRUE(ref_.empty());
  }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t schedules() const { return next_seq_; }

 private:
  using Key = std::tuple<std::int64_t, std::uint64_t, std::size_t>;

  Time random_delay(std::int64_t max_us) {
    // A coarse grid, so equal timestamps (FIFO ties) are common.
    return Time::micros(rng_.uniform_int(0, max_us));
  }

  std::size_t random_label() {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1));
  }

  void schedule(Time delay) {
    if (budget_ <= 0) return;
    --budget_;
    const std::size_t label = ids_.size();
    const Time t = sim_.now() + delay;
    auto fn = [this, label] { fire(label); };
    ids_.push_back(rng_.bernoulli(0.5) ? sim_.at(t, fn)
                                       : sim_.after(delay, fn));
    ASSERT_NE(ids_.back(), kInvalidEventId);
    const Key key{t.ns(), next_seq_++, label};
    ref_.insert(key);
    pending_.push_back(key);
  }

  void cancel(std::size_t label) {
    sim_.cancel(ids_[label]);
    if (pending_[label]) {
      ref_.erase(*pending_[label]);
      pending_[label].reset();
    }
  }

  void retime(std::size_t label, Time delay) {
    const Time t = sim_.now() + delay;
    const EventId old = ids_[label];
    const EventId id = sim_.retime(old, t);
    if (!pending_[label]) {
      EXPECT_EQ(id, kInvalidEventId) << "retimed a label that is not pending";
      return;
    }
    ASSERT_NE(id, kInvalidEventId);
    ref_.erase(*pending_[label]);
    const Key key{t.ns(), next_seq_++, label};
    ref_.insert(key);
    pending_[label] = key;
    ids_[label] = id;
    // The replaced id is stale, exactly as if it had been cancelled.
    EXPECT_EQ(sim_.retime(old, t), kInvalidEventId);
  }

  void random_op() {
    const std::int64_t op = ids_.empty() ? 0 : rng_.uniform_int(0, 2);
    if (op == 0) {
      schedule(random_delay(8));
    } else if (op == 1) {
      cancel(random_label());
    } else {
      retime(random_label(), random_delay(8));
    }
  }

  void fire(std::size_t label) {
    ASSERT_FALSE(ref_.empty());
    const Key top = *ref_.begin();
    if (std::get<2>(top) != label || std::get<0>(top) != sim_.now().ns()) {
      ++out_of_order_;
    }
    ASSERT_TRUE(pending_[label].has_value());
    const Key mine = *pending_[label];
    ref_.erase(mine);
    pending_[label].reset();
    hash_ = fnv_mix(fnv_mix(hash_, static_cast<std::uint64_t>(
                                       std::get<0>(mine))),
                    std::get<1>(mine));
    ++executed_;

    // Cancelling or retiming oneself after firing is a no-op in both.
    if (rng_.bernoulli(0.2)) cancel(label);
    if (rng_.bernoulli(0.1)) retime(label, random_delay(3));
    for (int i = static_cast<int>(rng_.uniform_int(0, 2)); i > 0; --i) {
      schedule(random_delay(3));
    }
    if (rng_.bernoulli(0.4)) cancel(random_label());
    // Retimes move events both earlier and later than where they sat.
    if (rng_.bernoulli(0.4)) retime(random_label(), random_delay(6));
  }

  Simulator sim_;
  Rng rng_;
  int budget_;
  std::set<Key> ref_;
  std::vector<EventId> ids_;                // by label: the latest id
  std::vector<std::optional<Key>> pending_;  // by label: its reference key
  std::uint64_t next_seq_ = 0;
  std::uint64_t hash_ = kFnvBasis;
  std::uint64_t executed_ = 0;
  std::uint64_t out_of_order_ = 0;
};

TEST(KernelDiffTest, RandomMixMatchesReferenceQueue) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 1234ull, 987654321ull}) {
    SCOPED_TRACE(seed);
    KernelModel model{seed, 20000};
    model.run(/*initial=*/64);
    model.expect_matches_reference();
    // The mix must actually exercise the queue, not drain at once.
    EXPECT_GT(model.executed(), 1000u);
    EXPECT_LT(model.executed(), model.schedules());
  }
}

TEST(KernelDiffTest, DeepQueueMatchesReferenceQueue) {
  KernelModel model{77, 30000};
  model.run(/*initial=*/4096);
  model.expect_matches_reference();
}

}  // namespace
}  // namespace mcs::sim

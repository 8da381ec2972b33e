#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace mcs::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(Time::millis(30), [&] { order.push_back(3); });
  sim.at(Time::millis(10), [&] { order.push_back(1); });
  sim.at(Time::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::millis(30));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(Time::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator sim;
  Time seen;
  sim.at(Time::millis(10), [&] {
    sim.after(Time::millis(5), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, Time::millis(15));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.at(Time::millis(10), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, CancelFromInsideCallback) {
  Simulator sim;
  bool ran = false;
  const EventId victim = sim.at(Time::millis(20), [&] { ran = true; });
  sim.at(Time::millis(10), [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, RunUntilAdvancesClockAndKeepsFutureEvents) {
  Simulator sim;
  int count = 0;
  sim.at(Time::millis(10), [&] { ++count; });
  sim.at(Time::millis(30), [&] { ++count; });
  sim.run_until(Time::millis(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), Time::millis(20));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.run_until(Time::millis(100));
  int count = 0;
  sim.after(Time::millis(50), [&] { ++count; });
  sim.after(Time::millis(150), [&] { ++count; });
  sim.run_for(Time::millis(100));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), Time::millis(200));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.at(Time::millis(10), [&] {
    ++count;
    sim.stop();
  });
  sim.at(Time::millis(20), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.after(Time::micros(1), chain);
  };
  sim.at(Time::zero(), chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Time::micros(99));
}

TEST(SimulatorTest, CancelledHeadDoesNotBreachRunUntilBoundary) {
  // Regression: a cancelled event before the boundary must not let a live
  // event beyond the boundary execute (the clock would jump past t).
  Simulator sim;
  bool far_ran = false;
  const EventId near_id = sim.at(Time::millis(10), [] {});
  sim.at(Time::seconds(10.0), [&] { far_ran = true; });
  sim.cancel(near_id);
  sim.run_until(Time::seconds(2.0));
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(sim.now(), Time::seconds(2.0));
  sim.run();
  EXPECT_TRUE(far_ran);
}

TEST(SimulatorTest, ZeroDelayEventRunsAtSameTime) {
  Simulator sim;
  Time seen = Time::infinity();
  sim.at(Time::millis(5), [&] {
    sim.after(Time::zero(), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, Time::millis(5));
}

TEST(SimulatorTest, RetimeMovesAPendingEventAndKeepsItsCallback) {
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.at(Time::millis(30), [&] { order.push_back(1); });
  sim.at(Time::millis(20), [&] { order.push_back(2); });
  const EventId moved = sim.retime(a, Time::millis(10));
  ASSERT_NE(moved, kInvalidEventId);
  EXPECT_NE(moved, a);
  EXPECT_EQ(sim.pending(), 2u);
  // The replaced id is stale: it neither cancels nor moves the event.
  sim.cancel(a);
  EXPECT_EQ(sim.retime(a, Time::millis(40)), kInvalidEventId);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), Time::millis(20));
}

TEST(SimulatorTest, RetimeTakesTheNextSequenceNumber) {
  // Moving an event to the time it already has still sends it behind every
  // event scheduled at that time since: a retime is a cancel plus a new
  // schedule, not a change of key in place.
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.at(Time::millis(5), [&] { order.push_back(1); });
  sim.at(Time::millis(5), [&] { order.push_back(2); });
  ASSERT_NE(sim.retime(a, Time::millis(5)), kInvalidEventId);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimulatorTest, RetimeOfFiredOrCancelledEventChangesNothing) {
  Simulator sim;
  int runs = 0;
  const EventId fired = sim.at(Time::millis(1), [&] { ++runs; });
  const EventId cancelled = sim.at(Time::millis(2), [&] { ++runs; });
  sim.cancel(cancelled);
  sim.run_until(Time::millis(3));
  EXPECT_EQ(sim.retime(fired, Time::millis(4)), kInvalidEventId);
  EXPECT_EQ(sim.retime(cancelled, Time::millis(4)), kInvalidEventId);
  EXPECT_EQ(sim.retime(kInvalidEventId, Time::millis(4)), kInvalidEventId);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(runs, 1);
}

TEST(SimulatorTest, RetimeSchedulesExactlyLikeCancelThenAt) {
  // Two kernels run the same script; one re-arms a timer by cancel + at,
  // the other by retime. Ids, execution order and trace hash must agree.
  Simulator by_cancel;
  Simulator by_retime;
  EventId timer_c = kInvalidEventId;
  EventId timer_r = kInvalidEventId;
  int fired_c = 0;
  int fired_r = 0;
  for (int i = 0; i < 50; ++i) {
    const Time t = Time::micros(10 * i);
    by_cancel.at(t, [] {});
    by_retime.at(t, [] {});
    const Time due = t + Time::micros(60 - i % 7 * 9);  // earlier or later
    if (timer_c == kInvalidEventId) {
      timer_c = by_cancel.at(due, [&] { ++fired_c; });
      timer_r = by_retime.at(due, [&] { ++fired_r; });
    } else {
      by_cancel.cancel(timer_c);
      timer_c = by_cancel.at(due, [&] { ++fired_c; });
      timer_r = by_retime.retime(timer_r, due);
    }
    EXPECT_EQ(timer_c, timer_r) << i;
    by_cancel.run_until(t);
    by_retime.run_until(t);
  }
  by_cancel.run();
  by_retime.run();
  EXPECT_EQ(fired_c, 1);
  EXPECT_EQ(fired_r, 1);
  EXPECT_EQ(by_cancel.executed(), by_retime.executed());
  EXPECT_EQ(by_cancel.trace_hash(), by_retime.trace_hash());
}

}  // namespace
}  // namespace mcs::sim

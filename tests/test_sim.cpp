// Tests for the discrete-event simulator.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "core/error.h"

using wild5g::sim::Simulator;

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now_ms(), 30.0);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now_ms(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(10.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator sim;
  sim.cancel(12345);  // must not throw
  SUCCEED();
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 9.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  std::vector<double> fired;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now_ms()); });
  }
  sim.run_until(5.0);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
  EXPECT_EQ(sim.pending_count(), 5u);
  sim.run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 42.0);
}

TEST(Simulator, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), wild5g::Error);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), wild5g::Error);
}

TEST(Simulator, NullHandlerRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), wild5g::Error);
}

TEST(Simulator, SameInstantFifoHoldsAcrossInterleavedSchedules) {
  // FIFO among same-instant events must follow scheduling order even when
  // the schedules are interleaved with other instants and issued from
  // within running handlers.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, [&] {
    // Scheduled later (from a handler) but for the same instant 10.0:
    // must fire after the ones scheduled earlier.
    sim.schedule_at(10.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(10.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameInstantEventCanCancelLaterSibling) {
  // An event may cancel a same-instant event that was scheduled after it;
  // FIFO guarantees the canceller runs first, so the victim must not fire.
  Simulator sim;
  bool victim_fired = false;
  Simulator* sim_ptr = &sim;
  wild5g::sim::EventId victim = 0;
  sim.schedule_at(7.0, [&, sim_ptr] { sim_ptr->cancel(victim); });
  victim = sim.schedule_at(7.0, [&] { victim_fired = true; });
  sim.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CancelOfFiredIdIsNoop) {
  Simulator sim;
  int fired = 0;
  const auto early = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] {
    sim.cancel(early);  // already fired: must be a no-op
    ++fired;
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  sim.cancel(early);  // and again after the run
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CancelledIdIsNotReusedForNewEvents) {
  // Cancelling an id and then scheduling again must not resurrect the
  // cancelled handler or confuse bookkeeping.
  Simulator sim;
  bool cancelled_fired = false;
  bool fresh_fired = false;
  const auto id = sim.schedule_at(1.0, [&] { cancelled_fired = true; });
  sim.cancel(id);
  const auto fresh = sim.schedule_at(1.0, [&] { fresh_fired = true; });
  EXPECT_NE(id, fresh);
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(fresh_fired);
}

TEST(Simulator, RunUntilFiresEventsAtExactlyTheHorizon) {
  Simulator sim;
  bool at_horizon = false;
  bool past_horizon = false;
  sim.schedule_at(5.0, [&] { at_horizon = true; });
  sim.schedule_at(5.0 + 1e-9, [&] { past_horizon = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(past_horizon);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, RunUntilCanBeResumedRepeatedly) {
  Simulator sim;
  std::vector<double> fired;
  for (double t = 1.0; t <= 6.0; t += 1.0) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now_ms()); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(fired.size(), 2u);
  sim.run_until(2.0);  // same horizon again: nothing new fires
  EXPECT_EQ(fired.size(), 2u);
  sim.run_until(4.5);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 4.5);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
}

TEST(Simulator, PendingCountTracksScheduleCancelAndFire) {
  Simulator sim;
  EXPECT_EQ(sim.pending_count(), 0u);
  const auto a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  const auto c = sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);  // double-cancel: no effect
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run_until(2.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.cancel(c);
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.run();  // nothing left; must not fire or throw
  EXPECT_DOUBLE_EQ(sim.now_ms(), 2.0);
}

TEST(Simulator, SelfCancelInsideHandlerIsNoop) {
  // A handler cancelling its own id must be a no-op: the entry is removed
  // from the registry before invocation, so there is nothing to cancel and
  // nothing to double-free or re-fire.
  Simulator sim;
  int fired = 0;
  wild5g::sim::EventId self = 0;
  self = sim.schedule_at(3.0, [&] {
    sim.cancel(self);
    ++fired;
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.cancel(self);  // still a no-op afterwards
}

TEST(Simulator, HandlerCanCancelFutureEventDuringDispatch) {
  Simulator sim;
  bool future_fired = false;
  const auto future = sim.schedule_at(10.0, [&] { future_fired = true; });
  sim.schedule_at(5.0, [&] { sim.cancel(future); });
  sim.run();
  EXPECT_FALSE(future_fired);
  // The cancelled event is skipped without dispatch, and the clock still
  // reflects the last *fired* event.
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
}

TEST(Simulator, RunUntilAdvancesClockOnEarlyDrain) {
  // The queue drains at t=3 but the horizon is 100: the clock must land on
  // the horizon so back-to-back run_until calls tile a timeline gap-free.
  Simulator sim;
  sim.schedule_at(3.0, [] {});
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 100.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  // schedule_in after the drained window anchors at the horizon, not at
  // the last event.
  double fired_at = -1.0;
  sim.schedule_in(5.0, [&] { fired_at = sim.now_ms(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 105.0);
}

TEST(Simulator, RunUntilClockAdvancesWhenOnlyCancelledEventsRemain) {
  // Cancelled-but-unpopped events must not hold the clock back or count as
  // work: run_until over them behaves exactly like an empty queue.
  Simulator sim;
  const auto id = sim.schedule_at(4.0, [] {});
  sim.cancel(id);
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 10.0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, RunUntilPreservesFifoForEventPushedBackPastHorizon) {
  // run_until may pop an event past the horizon and push it back; its seq
  // must survive the round-trip so FIFO among simultaneous events holds on
  // the next run.
  Simulator sim;
  std::vector<int> order;
  // A cancelled event inside the horizon forces pop_next past it and onto
  // the first live 10.0 event, which is then past the horizon: push-back.
  const auto decoy = sim.schedule_at(3.0, [] {});
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(10.0, [&] { order.push_back(2); });
  sim.schedule_at(10.0, [&] { order.push_back(3); });
  sim.cancel(decoy);
  sim.run_until(5.0);  // pops the first 10.0 event, pushes it back
  EXPECT_TRUE(order.empty());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TimerRestartPattern) {
  // The RRC inactivity-timer idiom: cancel + reschedule on each activity.
  Simulator sim;
  double expired_at = -1.0;
  wild5g::sim::EventId timer = 0;
  auto arm = [&](double delay) {
    sim.cancel(timer);
    timer = sim.schedule_in(delay, [&] { expired_at = sim.now_ms(); });
  };
  sim.schedule_at(0.0, [&] { arm(10.0); });
  sim.schedule_at(5.0, [&] { arm(10.0); });   // activity: restart
  sim.schedule_at(12.0, [&] { arm(10.0); });  // activity: restart again
  sim.run();
  EXPECT_DOUBLE_EQ(expired_at, 22.0);
}

TEST(Simulator, CancelledHandlerCaptureIsDestroyed) {
  // Non-trivially-destructible captures must be destroyed on cancel and on
  // simulator teardown, not just on dispatch (ASan would flag the leak).
  auto token = std::make_shared<int>(7);
  Simulator sim;
  const auto id = sim.schedule_at(5.0, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  sim.cancel(id);
  EXPECT_EQ(token.use_count(), 1) << "cancel must destroy the capture";
  {
    Simulator doomed;
    doomed.schedule_at(1.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1) << "teardown must destroy live captures";
}

TEST(Simulator, FiredHandlerCaptureIsDestroyedOnDispatch) {
  // A freed slot must not keep a fired handler's captures alive until the
  // slot is next reused.
  auto token = std::make_shared<int>(7);
  Simulator sim;
  long seen_inside = 0;
  sim.schedule_at(1.0, [token, &seen_inside] {
    seen_inside = token.use_count();
  });
  sim.run();
  EXPECT_EQ(seen_inside, 2) << "the running handler must own its capture";
  EXPECT_EQ(token.use_count(), 1) << "dispatch must destroy the capture";
}

TEST(Simulator, LiveCapturesTrackPendingAcrossRunUntilAndCancel) {
  // Every capture the simulator holds belongs to a pending event: dispatch,
  // cancel and slot reuse leave nothing behind, window after window.
  auto token = std::make_shared<int>(0);
  Simulator sim;
  std::vector<wild5g::sim::EventId> ids;
  int fired = 0;
  for (int window = 0; window < 20; ++window) {
    const double start = sim.now_ms();
    const std::size_t first = ids.size();
    for (int i = 0; i < 50; ++i) {
      ids.push_back(sim.schedule_at(start + 1.0 + i % 10,
                                    [token, &fired] { ++fired; }));
    }
    for (std::size_t i = first; i < ids.size(); i += 3) sim.cancel(ids[i]);
    sim.run_until(start + 5.0);
    EXPECT_EQ(static_cast<std::size_t>(token.use_count() - 1),
              sim.pending_count())
        << "window " << window;
  }
  sim.run();
  EXPECT_EQ(fired, 20 * (50 - 17));
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, StaleIdCannotCancelEventThatReusedItsSlot) {
  // Each event below reuses the slot its predecessor freed; the generation
  // in the id keeps the old handles from reaching the new occupant.
  Simulator sim;
  const auto fired_id = sim.schedule_at(1.0, [] {});
  sim.run();
  const auto cancelled_id = sim.schedule_at(2.0, [] {});
  sim.cancel(cancelled_id);
  bool fresh_fired = false;
  sim.schedule_at(3.0, [&] { fresh_fired = true; });
  sim.cancel(fired_id);
  sim.cancel(cancelled_id);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_TRUE(fresh_fired);
}

TEST(Simulator, ThrowingHandlerLeavesTheSimulatorConsistent) {
  // The slot is released before the handler runs, so an exception escaping
  // run() leaves no half-fired event: the thrower is gone with its capture,
  // and a second run() fires the rest in order.
  auto token = std::make_shared<int>(0);
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [token] {
    (void)*token;
    throw wild5g::Error("handler failed");
  });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  EXPECT_THROW(sim.run(), wild5g::Error);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 2.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CaptureDestructorRunsAfterItsSlotIsReleased) {
  // cancel and dispatch destroy a handler only once its slot is free, so a
  // capture whose destructor re-enters the simulator already sees its event
  // gone from the pending count.
  struct Probe {
    Simulator* sim;  // null once moved from
    std::vector<std::size_t>* seen;
    Probe(Simulator* s, std::vector<std::size_t>* v) : sim(s), seen(v) {}
    Probe(const Probe&) = default;
    Probe(Probe&& other) noexcept
        : sim(std::exchange(other.sim, nullptr)), seen(other.seen) {}
    Probe& operator=(const Probe&) = delete;
    ~Probe() {
      if (sim != nullptr) seen->push_back(sim->pending_count());
    }
  };
  Simulator sim;
  std::vector<std::size_t> seen;
  sim.schedule_at(9.0, [] {});
  const auto cancelled =
      sim.schedule_at(5.0, [probe = Probe(&sim, &seen)] {});
  sim.schedule_at(6.0, [probe = Probe(&sim, &seen)] {});
  EXPECT_TRUE(seen.empty());
  sim.cancel(cancelled);  // pending afterwards: the 6.0 and 9.0 events
  sim.run_until(7.0);     // fires 6.0; pending afterwards: 9.0
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 1}));
}

TEST(Simulator, OversizedCapturesStillFire) {
  // Large captures live on the heap behind the std::function; semantics
  // must not change.
  Simulator sim;
  std::array<double, 400> payload{};
  payload[0] = 1.0;
  payload[399] = 2.0;
  double sum = 0.0;
  sim.schedule_at(1.0, [payload, &sum] { sum = payload[0] + payload[399]; });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 3.0);
}

TEST(Simulator, HandlerOutlivesSchedulingDuringItsOwnDispatch) {
  // A running handler that schedules many events reuses its own freed slot
  // and grows the slot table. Dispatch must run it from storage neither can
  // touch: invoked in place, the first schedule would overwrite (and free)
  // its heap-stored capture, and ASan reports the reads below.
  constexpr int kScheduled = 1000;
  Simulator sim;
  std::array<std::uint64_t, 64> payload{};  // far past the inline buffer
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * i;
  int fired = 0;
  std::uint64_t sum = 0;
  std::size_t pending_inside = 0;
  sim.schedule_at(1.0, [payload, &sim, &fired, &sum, &pending_inside] {
    for (int i = 0; i < kScheduled; ++i) {
      sim.schedule_in(static_cast<double>(1 + i % 7), [&fired] { ++fired; });
    }
    for (const std::uint64_t value : payload) sum += value;
    pending_inside = sim.pending_count();
  });
  sim.run();
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
  EXPECT_EQ(pending_inside, static_cast<std::size_t>(kScheduled))
      << "the running handler must not count as pending";
  EXPECT_EQ(fired, kScheduled);
  EXPECT_EQ(sim.pending_count(), 0u);
}

// --- same-instant multi-actor scheduling (the metro campaign pattern: N
// UEs share one step boundary, so whole cohorts of events land on the same
// at_ms and their relative order must be pinned) ------------------------

TEST(Simulator, ManyActorsAtOneInstantFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int ue = 0; ue < 100; ++ue) {
    sim.schedule_at(5.0, [&order, ue] { order.push_back(ue); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int ue = 0; ue < 100; ++ue) {
    ASSERT_EQ(order[static_cast<std::size_t>(ue)], ue)
        << "same-instant events must fire in scheduling order";
  }
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
}

TEST(Simulator, SameInstantCohortSurvivesCancelDuringDispatch) {
  // The first actor of the cohort cancels every odd-indexed peer while the
  // instant is already dispatching: victims must simply never fire, and
  // the survivors must keep their scheduling order.
  Simulator sim;
  std::vector<int> order;
  std::vector<wild5g::sim::EventId> cohort;
  sim.schedule_at(5.0, [&] {
    order.push_back(-1);
    for (std::size_t i = 1; i < cohort.size(); i += 2) {
      sim.cancel(cohort[i]);
    }
  });
  for (int ue = 0; ue < 50; ++ue) {
    cohort.push_back(sim.schedule_at(5.0, [&order, ue] {
      order.push_back(ue);
    }));
  }
  sim.run();
  ASSERT_EQ(order.size(), 1u + 25u);
  EXPECT_EQ(order.front(), -1);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>((i - 1) * 2));
  }
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, HandlerSchedulingAtTheSameInstantRunsAfterTheCohort) {
  // A same-instant event scheduled *during* dispatch of that instant joins
  // the back of the FIFO: every already-scheduled actor goes first.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(0);
    sim.schedule_at(5.0, [&order] { order.push_back(99); });
  });
  sim.schedule_at(5.0, [&order] { order.push_back(1); });
  sim.schedule_at(5.0, [&order] { order.push_back(2); });
  sim.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 99);
}

TEST(Simulator, InterleavedCohortsOrderByTimeThenScheduling) {
  // Two step boundaries scheduled interleaved (UE 0 at t1, UE 0 at t2,
  // UE 1 at t1, ...): dispatch must sort by time first and scheduling
  // order within each instant, regardless of interleaving.
  Simulator sim;
  std::vector<std::pair<double, int>> order;
  for (int ue = 0; ue < 10; ++ue) {
    sim.schedule_at(10.0, [&order, ue] { order.push_back({10.0, ue}); });
    sim.schedule_at(20.0, [&order, ue] { order.push_back({20.0, ue}); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)],
              (std::pair<double, int>{10.0, i}));
    EXPECT_EQ(order[static_cast<std::size_t>(10 + i)],
              (std::pair<double, int>{20.0, i}));
  }
}

TEST(Simulator, CohortCancelOfAlreadyFiredPeersIsNoop) {
  // The last actor of an instant cancels the whole cohort, including ids
  // that already fired this instant: fired ids miss (generation bumped),
  // nothing double-fires, and pending drains to zero.
  Simulator sim;
  int fired = 0;
  std::vector<wild5g::sim::EventId> cohort;
  for (int ue = 0; ue < 20; ++ue) {
    cohort.push_back(sim.schedule_at(5.0, [&fired] { ++fired; }));
  }
  sim.schedule_at(5.0, [&] {
    for (const auto id : cohort) sim.cancel(id);
  });
  sim.run();
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(sim.pending_count(), 0u);
}

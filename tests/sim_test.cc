// Tests for the discrete-event simulator: ordering, cancellation, timers, and the
// parallel shard-lane engine (determinism across worker counts, mailbox barriers,
// generation-based cancellation, event-pool reuse).

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/timer.h"

namespace presto {
namespace {

// Test-local event sink: each scheduled action is a closure held here until its
// typed event fires (the simulator itself only carries typed records). Lanes may
// schedule concurrently, so the table is mutex-guarded; an action runs unlocked so
// it can schedule more.
class Actions : public EventSink {
 public:
  explicit Actions(Simulator* sim) : sim_(sim) {}

  EventHandle At(SimTime t, std::function<void()> fn,
                 int lane = Simulator::kLaneCurrent) {
    EventPayload payload;
    {
      std::lock_guard<std::mutex> lock(m_);
      payload.a = next_id_++;
      pending_.emplace(payload.a, std::move(fn));
    }
    return sim_->ScheduleEventAt(t, EventKind::kQuery, this, std::move(payload), lane);
  }
  EventHandle In(Duration delay, std::function<void()> fn,
                 int lane = Simulator::kLaneCurrent) {
    return At(sim_->Now() + delay, std::move(fn), lane);
  }

  void OnSimEvent(EventKind kind, EventPayload& payload) override {
    ASSERT_EQ(kind, EventKind::kQuery);
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(m_);
      auto it = pending_.find(payload.a);
      ASSERT_NE(it, pending_.end());
      fn = std::move(it->second);
      pending_.erase(it);
    }
    fn();
  }

 private:
  Simulator* sim_;
  std::mutex m_;
  uint64_t next_id_ = 0;
  std::map<uint64_t, std::function<void()>> pending_;
};

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  Actions actions(&sim);
  std::vector<int> order;
  actions.At(Seconds(3), [&] { order.push_back(3); });
  actions.At(Seconds(1), [&] { order.push_back(1); });
  actions.At(Seconds(2), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Seconds(3));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  Actions actions(&sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    actions.At(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  Actions actions(&sim);
  bool fired = false;
  EventHandle handle = actions.In(Seconds(1), [&] { fired = true; });
  handle.Cancel();
  sim.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutOvershooting) {
  Simulator sim;
  Actions actions(&sim);
  bool late_fired = false;
  actions.At(Seconds(10), [&] { late_fired = true; });
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.RunUntil(Seconds(10));
  EXPECT_TRUE(late_fired);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  Actions actions(&sim);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      actions.In(Seconds(1), recurse);
    }
  };
  actions.In(Seconds(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, NextEventTime) {
  Simulator sim;
  Actions actions(&sim);
  EXPECT_EQ(sim.NextEventTime(), -1);
  actions.At(Seconds(4), [] {});
  EXPECT_EQ(sim.NextEventTime(), Seconds(4));
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10));
  sim.RunUntil(Seconds(35));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(10), Seconds(20), Seconds(30)}));
}

TEST(PeriodicTimerTest, InitialDelayOverride) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10), Seconds(1));
  sim.RunUntil(Seconds(12));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(1), Seconds(11)}));
}

TEST(PeriodicTimerTest, SetPeriodTakesEffect) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10));
  sim.RunUntil(Seconds(10));  // one fire at 10
  timer.SetPeriod(Seconds(2));
  sim.RunUntil(Seconds(15));
  // After the change at t=10, fires at 12 and 14.
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(10), Seconds(12), Seconds(14)}));
}

TEST(PeriodicTimerTest, StopIsIdempotentAndFinal) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(&sim, [&] { ++fires; });
  timer.Start(Seconds(1));
  sim.RunUntil(Seconds(2));
  timer.Stop();
  timer.Stop();
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, RestartReschedules) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(&sim, [&] { fires.push_back(sim.Now()); });
  timer.Start(Seconds(10));
  timer.Start(Seconds(3));  // restart replaces the pending fire
  sim.RunUntil(Seconds(7));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(3), Seconds(6)}));
}

// ---------- shard-lane engine ----------

TEST(SimulatorTest, LegacyFingerprintIsScheduleSensitive) {
  auto run = [](bool swap) {
    Simulator sim;
  Actions actions(&sim);
    actions.At(Seconds(swap ? 2 : 1), [] {});
    actions.At(Seconds(swap ? 1 : 2), [] {});
    sim.RunAll();
    return sim.fingerprint();
  };
  EXPECT_EQ(run(false), run(false));  // identical replays agree
  EXPECT_NE(run(false), run(true));   // a different event order does not
}

// A synthetic multi-lane workload: every lane runs a self-rescheduling chain that
// periodically posts cross-lane work, exercising queues, mailboxes, and barriers.
// Padding keeps each lane's counter on its own cache line (the lanes genuinely run
// in parallel).
struct LaneCell {
  uint64_t count = 0;
  char pad[56];
};

uint64_t RunLaneWorkload(int threads, uint64_t* executed = nullptr) {
  constexpr int kLanes = 4;
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(kLanes, threads, Millis(100));
  auto cells = std::make_shared<std::array<LaneCell, kLanes>>();
  std::function<void(int)> tick = [&actions, &sim, cells, &tick](int lane) {
    LaneCell& cell = (*cells)[static_cast<size_t>(lane)];
    ++cell.count;
    if (cell.count % 3 == 0) {
      // Cross-lane post: lands via the mailbox, executes in the target's lane.
      const int target = (lane + 1) % kLanes;
      actions.In(Millis(7),
                 [cells, target] { ++(*cells)[static_cast<size_t>(target)].count; },
                 target);
    }
    if (sim.Now() < Seconds(30)) {
      actions.In(Millis(11 + lane), [&tick, lane] { tick(lane); });
    }
  };
  for (int lane = 0; lane < kLanes; ++lane) {
    actions.At(Millis(1 + lane), [&tick, lane] { tick(lane); }, lane);
  }
  sim.RunUntil(Seconds(31));
  if (executed != nullptr) {
    *executed = sim.events_executed();
  }
  return sim.fingerprint();
}

TEST(LaneEngineTest, FingerprintIdenticalAcrossWorkerCounts) {
  uint64_t executed1 = 0;
  uint64_t executed2 = 0;
  uint64_t executed8 = 0;
  const uint64_t fp1 = RunLaneWorkload(1, &executed1);
  const uint64_t fp2 = RunLaneWorkload(2, &executed2);
  const uint64_t fp8 = RunLaneWorkload(8, &executed8);
  EXPECT_GT(executed1, 1000u);
  EXPECT_EQ(executed1, executed2);
  EXPECT_EQ(executed1, executed8);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, fp8);
  // Repeat runs replay bit-identically too.
  EXPECT_EQ(fp2, RunLaneWorkload(2));
  EXPECT_EQ(fp8, RunLaneWorkload(8));
}

TEST(LaneEngineTest, CrossLaneCancellation) {
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(4, 2, Millis(100));
  bool fired = false;
  // Scheduled from control into lane 2, cancelled from control before it fires.
  EventHandle handle = actions.At(Seconds(1), [&] { fired = true; }, 2);
  ASSERT_TRUE(handle.valid());
  handle.Cancel();
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(LaneEngineTest, CancellationIsGenerationScoped) {
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(2, 1, Millis(100));
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = actions.At(Seconds(1), [&] { a_fired = true; }, 0);
  a.Cancel();  // releases the slot
  // B reuses A's slot under a fresh generation.
  EventHandle b = actions.At(Seconds(1), [&] { b_fired = true; }, 0);
  a.Cancel();  // stale generation: must NOT cancel B
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  b.Cancel();  // cancel-after-fire is a no-op
  bool c_fired = false;
  actions.At(Seconds(3), [&] { c_fired = true; }, 0);
  sim.RunUntil(Seconds(3));
  EXPECT_TRUE(c_fired);
}

TEST(LaneEngineTest, MailboxOrderingAtBarriers) {
  // Lane 2 posts first in real order, lane 0 second — the barrier drains mailboxes
  // in source-lane order, so lane 0's mail arrives first, all clamped to the barrier.
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(3, 3, Millis(100));
  auto log = std::make_shared<std::vector<std::pair<std::string, SimTime>>>();
  auto post = [&actions, &sim, log](const char* tag) {
    actions.In(Millis(1), [log, tag, &sim] { log->emplace_back(tag, sim.Now()); }, 1);
  };
  actions.At(Millis(5), [&] {
    post("two-a");
    post("two-b");
  }, 2);
  actions.At(Millis(9), [&] { post("zero"); }, 0);
  sim.RunUntil(Seconds(1));
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ((*log)[0].first, "zero");
  EXPECT_EQ((*log)[1].first, "two-a");
  EXPECT_EQ((*log)[2].first, "two-b");
  // All three were clamped to the next epoch barrier.
  EXPECT_EQ((*log)[0].second, Millis(100));
  EXPECT_EQ((*log)[1].second, Millis(100));
  EXPECT_EQ((*log)[2].second, Millis(100));
}

TEST(LaneEngineTest, EventPoolSlotsAreReused) {
  Simulator sim;  // legacy single lane: same pool machinery
  Actions actions(&sim);
  int remaining = 2000;
  std::function<void()> chain = [&] {
    if (--remaining > 0) {
      actions.In(Millis(1), chain);
    }
  };
  actions.In(Millis(1), chain);
  sim.RunAll();
  EXPECT_EQ(remaining, 0);
  // A chain keeps at most a couple of live events; the pool must not grow per event.
  EXPECT_LE(sim.PoolSlotsForTest(Simulator::kLaneControl), 4u);
}

TEST(LaneEngineTest, LegacyModeReportsNoEpochGrid) {
  // Legacy single-queue engine: no barrier grid exists, and the accessors say so
  // explicitly with the sentinel rather than a fake zero-length epoch (stacked
  // layers treat kNoEpochGrid as "no constraint").
  Simulator sim;
  EXPECT_EQ(sim.epoch(), Simulator::kNoEpochGrid);
}

TEST(LaneEngineTest, TimersFireInBoundLanes) {
  Simulator sim;
  sim.ConfigureLanes(2, 2, Millis(50));
  auto lanes_seen = std::make_shared<std::vector<int>>();
  PeriodicTimer timer(&sim, [&sim, lanes_seen] {
    lanes_seen->push_back(sim.CurrentLane());
  });
  timer.BindLane(1);
  timer.Start(Millis(30));
  sim.RunUntil(Millis(100));
  ASSERT_GE(lanes_seen->size(), 3u);
  for (int lane : *lanes_seen) {
    EXPECT_EQ(lane, 1);
  }
}

// ---------- barrier-time lane re-binding ----------

// Matches every event the test's Actions sink scheduled.
auto MatchActions(const Actions& actions) {
  return [&actions](EventKind, const EventSink* sink, const EventPayload&) {
    return sink == &actions;
  };
}

TEST(LaneRebindTest, PendingEventsHandOffPreservingDeliveryTimes) {
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(2, 2, Millis(100));
  auto fires = std::make_shared<std::vector<std::pair<int, SimTime>>>();
  for (int i = 1; i <= 3; ++i) {
    actions.At(Millis(250 * i), [&sim, fires] {
      fires->emplace_back(sim.CurrentLane(), sim.Now());
    }, 0);
  }
  sim.RunUntil(Millis(100));  // a barrier; nothing has fired yet
  EXPECT_EQ(sim.RebindMatchingEvents(0, 1, MatchActions(actions)), 3u);
  sim.RunUntil(Seconds(1));
  ASSERT_EQ(fires->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*fires)[static_cast<size_t>(i)].first, 1)
        << "moved events execute in the new lane";
    EXPECT_EQ((*fires)[static_cast<size_t>(i)].second, Millis(250 * (i + 1)))
        << "delivery times survive the move";
  }
}

TEST(LaneRebindTest, UndrainedMailFollowsTheRebind) {
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(2, 2, Millis(100));
  auto lanes_seen = std::make_shared<std::vector<int>>();
  // A lane-1 event posts cross-lane work at lane 0 mid-epoch; that mail waits in
  // lane 0's inbox for the next opening barrier — exactly when a re-bind happens.
  actions.At(Millis(5), [&actions, &sim, lanes_seen] {
    actions.In(Millis(1),
               [lanes_seen, &sim] { lanes_seen->push_back(sim.CurrentLane()); }, 0);
  }, 1);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(sim.RebindMatchingEvents(0, 1, MatchActions(actions)), 1u);
  sim.RunUntil(Millis(300));
  ASSERT_EQ(lanes_seen->size(), 1u);
  EXPECT_EQ((*lanes_seen)[0], 1) << "undrained mail must deliver into the new lane";
}

TEST(LaneRebindTest, StaleHandlesAfterRebindAreNoOps) {
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(2, 1, Millis(100));
  bool moved_fired = false;
  bool other_fired = false;
  EventHandle handle = actions.At(Seconds(1), [&] { moved_fired = true; }, 0);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(sim.RebindMatchingEvents(0, 1, MatchActions(actions)), 1u);
  // The move released the source slot under a fresh generation; a later event may
  // reuse it.
  actions.At(Seconds(2), [&] { other_fired = true; }, 0);
  // The pre-move handle is stale: cancelling through it must affect neither the
  // moved event nor the slot's new occupant (generation-scoped, same as after any
  // cancel/reuse cycle).
  handle.Cancel();
  sim.RunUntil(Seconds(3));
  EXPECT_TRUE(moved_fired) << "a stale handle must not cancel the moved event";
  EXPECT_TRUE(other_fired) << "a stale handle must not cancel the slot's new tenant";
}

TEST(LaneRebindTest, TimerRebindPreservesPhase) {
  Simulator sim;
  sim.ConfigureLanes(2, 2, Millis(50));
  auto fires = std::make_shared<std::vector<std::pair<int, SimTime>>>();
  PeriodicTimer timer(&sim, [&sim, fires] {
    fires->emplace_back(sim.CurrentLane(), sim.Now());
  });
  timer.BindLane(0);
  timer.Start(Millis(30));
  sim.RunUntil(Millis(100));  // fires at 30, 60, 90 in lane 0
  timer.Rebind(1);            // cooperative half: the timer owns its handle
  sim.RunUntil(Millis(200));  // fires at 120, 150, 180 in lane 1
  ASSERT_EQ(fires->size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*fires)[i].first, i < 3 ? 0 : 1);
    EXPECT_EQ((*fires)[i].second, Millis(30 * (static_cast<int>(i) + 1)))
        << "the duty-cycle phase must not shift across the re-bind";
  }
}

// The fingerprint workload with mid-run control-lane re-binds folded in: chain
// events migrate between lanes every 5 simulated seconds. Chains touch only their
// own padded cell and cross-lane posts touch nothing shared, so chains stay
// race-free even when re-binding doubles them up in one lane.
uint64_t RunRebindWorkload(int threads, uint64_t* executed = nullptr,
                           bool with_rebinds = true) {
  constexpr int kLanes = 4;
  Simulator sim;
  Actions actions(&sim);
  sim.ConfigureLanes(kLanes, threads, Millis(100));
  auto cells = std::make_shared<std::array<LaneCell, kLanes>>();
  std::function<void(int)> tick = [&actions, &sim, cells, &tick](int chain) {
    LaneCell& cell = (*cells)[static_cast<size_t>(chain)];
    ++cell.count;
    if (cell.count % 3 == 0) {
      actions.In(Millis(7), [] {}, (chain + 1) % kLanes);
    }
    if (sim.Now() < Seconds(30)) {
      // Current-lane reschedule: after a re-bind the chain keeps running wherever
      // it was moved to.
      actions.In(Millis(11 + chain), [&tick, chain] { tick(chain); });
    }
  };
  for (int chain = 0; chain < kLanes; ++chain) {
    actions.At(Millis(1 + chain), [&tick, chain] { tick(chain); }, chain);
  }
  for (int k = 0; with_rebinds && k < 5; ++k) {
    actions.At(Seconds(5 * (k + 1)), [&actions, &sim, k] {
      sim.RebindMatchingEvents(k % kLanes, (k + 1) % kLanes, MatchActions(actions));
    }, Simulator::kLaneControl);
  }
  sim.RunUntil(Seconds(31));
  if (executed != nullptr) {
    *executed = sim.events_executed();
  }
  return sim.fingerprint();
}

TEST(LaneRebindTest, FingerprintIdenticalAcrossWorkerCountsWithRebinds) {
  uint64_t executed1 = 0;
  uint64_t executed2 = 0;
  uint64_t executed8 = 0;
  const uint64_t fp1 = RunRebindWorkload(1, &executed1);
  const uint64_t fp2 = RunRebindWorkload(2, &executed2);
  const uint64_t fp8 = RunRebindWorkload(8, &executed8);
  EXPECT_GT(executed1, 1000u);
  EXPECT_EQ(executed1, executed2);
  EXPECT_EQ(executed1, executed8);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, fp8);
  EXPECT_EQ(fp2, RunRebindWorkload(2));
  EXPECT_EQ(fp8, RunRebindWorkload(8));
  // Re-binds are part of the replay contract: the same workload *without* them
  // must not collide with the re-bound fingerprint.
  EXPECT_NE(fp1, RunRebindWorkload(1, nullptr, /*with_rebinds=*/false));
}

}  // namespace
}  // namespace presto

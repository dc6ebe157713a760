// Tests for the realtime ingestion front-end (DESIGN.md section 14):
// the MPSC ring, the shedding/watchdog policies, the RealtimeEngine's
// counter identity and latched risk, warm restarts, and the replay
// harness's knob-independence contract.
//
// The threaded cases (MultiProducer*, Live*) are the TSan targets: they
// exercise the producer path concurrently with a draining/stalled/killed
// consumer and assert the lock-free bookkeeping stays exact.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "service/realtime/engine.hpp"
#include "service/realtime/monotonic_clock.hpp"
#include "service/realtime/mpsc_queue.hpp"
#include "service/realtime/policies.hpp"
#include "service/realtime/replay.hpp"
#include "service/realtime/time_source.hpp"

namespace chenfd::rt {
namespace {

// ---------------------------------------------------------------------------
// MpscQueue
// ---------------------------------------------------------------------------

TEST(MpscQueue, CeilPow2) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(64), 64u);
  EXPECT_EQ(ceil_pow2(65), 128u);
}

TEST(MpscQueue, FifoOrderAndBoundedCapacity) {
  MpscQueue<int> q(5);  // rounds up to 8
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full: fails immediately, never blocks
  EXPECT_EQ(q.size(), 8u);

  int out = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_TRUE(q.try_push(8));  // freed slots are reusable (ring laps)

  int batch[8] = {};
  const std::size_t n = q.pop_batch(batch, 8);
  ASSERT_EQ(n, 6u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], static_cast<int>(i) + 3);
  }
  EXPECT_TRUE(q.empty());
  ASSERT_FALSE(q.try_pop(out));
}

TEST(MpscQueue, MultiProducerAccountingIsExact) {
  // TSan target: several producers race into a small ring while one
  // consumer drains.  Every push either succeeds or reports full, and the
  // consumer sees exactly the successful ones, per-producer in order.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscQueue<std::uint64_t> q(64);

  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &pushed, &rejected, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t token =
            (static_cast<std::uint64_t>(p) << 32U) |
            static_cast<std::uint64_t>(i);
        if (q.try_push(token)) {
          pushed.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::uint64_t popped = 0;
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::vector<bool> seen_any(kProducers, false);
  std::thread consumer([&] {
    std::uint64_t token = 0;
    for (;;) {
      if (q.try_pop(token)) {
        ++popped;
        const auto p = static_cast<std::size_t>(token >> 32U);
        const std::uint64_t i = token & 0xffffffffULL;
        if (seen_any[p]) {
          EXPECT_GT(i, last_seen[p]);  // per-producer FIFO
        }
        last_seen[p] = i;
        seen_any[p] = true;
      } else if (done.load(std::memory_order_acquire)) {
        if (!q.try_pop(token)) break;
        ++popped;
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(pushed.load() + rejected.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(popped, pushed.load());
  EXPECT_GT(pushed.load(), 0u);
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

TEST(RiskLatch, FirstReasonSticks) {
  RiskLatch latch;
  EXPECT_FALSE(latch.engaged());
  EXPECT_EQ(latch.reason(), RiskReason::kNone);
  EXPECT_TRUE(latch.latch(RiskReason::kOverload));
  EXPECT_FALSE(latch.latch(RiskReason::kWatchdogRestart));  // lost the race
  EXPECT_EQ(latch.reason(), RiskReason::kOverload);
  latch.reset();
  EXPECT_FALSE(latch.engaged());
  EXPECT_TRUE(latch.latch(RiskReason::kConsumerStall));
  EXPECT_EQ(latch.reason(), RiskReason::kConsumerStall);
}

TEST(Policies, Names) {
  EXPECT_STREQ(name(OverloadPolicy::kDropNewest), "drop-newest");
  EXPECT_STREQ(name(OverloadPolicy::kDropOldest), "drop-oldest");
  EXPECT_STREQ(name(OverloadPolicy::kDegradeEta), "degrade-eta");
  EXPECT_STREQ(name(RiskReason::kNone), "none");
  EXPECT_STREQ(name(RiskReason::kOverload), "overload");
  EXPECT_STREQ(name(RiskReason::kConsumerStall), "consumer-stall");
  EXPECT_STREQ(name(RiskReason::kWatchdogRestart), "watchdog-restart");
}

TEST(WatchdogPolicy, StallDetectionAndBoundedBackoff) {
  WatchdogConfig cfg;
  cfg.stall_timeout = seconds(2.0);
  cfg.backoff_base = seconds(1.0);
  cfg.backoff_cap = seconds(4.0);
  cfg.healthy_interval = seconds(10.0);
  WatchdogPolicy wd(cfg);

  // Healthy: progress recent, queue nonempty.
  wd.note_progress(TimePoint(1.0));
  EXPECT_EQ(wd.poll(TimePoint(2.0), true, true), WatchdogAction::kNone);
  // An empty queue is never a stall, no matter how stale progress is.
  EXPECT_EQ(wd.poll(TimePoint(100.0), true, false), WatchdogAction::kNone);

  // Stall: no progress for >= stall_timeout with work waiting.
  EXPECT_EQ(wd.poll(TimePoint(103.0), true, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.consecutive_restarts(), 1);
  // Inside the backoff window nothing restarts again...
  EXPECT_EQ(wd.poll(TimePoint(103.5), false, true), WatchdogAction::kBackoff);
  // ...and each restart doubles the delay: 1, 2, 4, then capped at 4.
  EXPECT_EQ(wd.poll(TimePoint(106.0), false, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.next_allowed_restart(), TimePoint(108.0));
  EXPECT_EQ(wd.poll(TimePoint(108.0), false, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.next_allowed_restart(), TimePoint(112.0));
  EXPECT_EQ(wd.poll(TimePoint(112.0), false, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.next_allowed_restart(), TimePoint(116.0));  // capped
  EXPECT_EQ(wd.consecutive_restarts(), 4);

  // A healthy_interval of progress after the last restart resets the streak.
  wd.note_progress(TimePoint(113.0));
  wd.note_progress(TimePoint(123.0));
  EXPECT_EQ(wd.consecutive_restarts(), 0);
}

TEST(WatchdogPolicy, DeadConsumerIsStalledEvenWithEmptyQueue) {
  WatchdogConfig cfg;
  cfg.stall_timeout = seconds(2.0);
  cfg.backoff_base = seconds(1.0);
  cfg.backoff_cap = seconds(4.0);
  WatchdogPolicy wd(cfg);
  wd.note_progress(TimePoint(0.5));
  EXPECT_EQ(wd.poll(TimePoint(1.0), false, false), WatchdogAction::kRestart);
}

// ---------------------------------------------------------------------------
// Engine shedding policies (deterministic, virtual time)
// ---------------------------------------------------------------------------

RealtimeOptions small_engine(OverloadPolicy policy) {
  RealtimeOptions opts;
  opts.processes = 4;
  opts.shards = 1;
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 8;
  opts.policy = policy;
  return opts;
}

void expect_identity(const ShardCounters& c) {
  EXPECT_EQ(c.produced, c.accepted + c.shed_total());
}

TEST(RealtimeEngine, DropNewestShedsAtCapacityAndLatchesRisk) {
  VirtualTimeSource time;
  RealtimeEngine engine(small_engine(OverloadPolicy::kDropNewest), time);
  EXPECT_FALSE(engine.qos_at_risk());

  std::uint64_t admitted = 0;
  for (net::SeqNo seq = 1; seq <= 20; ++seq) {
    if (engine.offer(fleet::Heartbeat{0, 0, seq, TimePoint(0.01 * seq)})) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 8u);  // the logical bound, not the physical ring
  ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.produced, 20u);
  EXPECT_EQ(c.shed_newest, 12u);
  EXPECT_EQ(c.shed_overflow, 0u);
  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);
  EXPECT_EQ(engine.shard_risk(0), RiskReason::kOverload);

  time.advance(TimePoint(1.0));
  EXPECT_EQ(engine.drain_shard(0, TimePoint(1.0)), 8u);
  c = engine.counters(0);
  EXPECT_EQ(c.accepted, 8u);
  EXPECT_EQ(c.consumed, 8u);
  expect_identity(c);
  EXPECT_EQ(engine.pending(0), 0u);
  // The survivors reached the monitor: the sender is trusted.
  EXPECT_EQ(engine.verdict(0), Verdict::kTrust);
}

TEST(RealtimeEngine, DropOldestAdmitsAllAndShedsBacklogAtDrain) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropOldest);
  opts.ring_capacity = 32;  // physical headroom so nothing overflows here
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  for (net::SeqNo seq = 1; seq <= 20; ++seq) {
    EXPECT_TRUE(engine.offer(fleet::Heartbeat{1, 0, seq, TimePoint(0.01 * seq)}));
  }
  EXPECT_EQ(engine.pending(0), 20u);  // everything admitted

  time.advance(TimePoint(1.0));
  // Only the newest queue_capacity items survive the drain.
  EXPECT_EQ(engine.drain_shard(0, TimePoint(1.0)), 8u);
  const ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.produced, 20u);
  EXPECT_EQ(c.consumed, 20u);
  EXPECT_EQ(c.shed_oldest, 12u);
  EXPECT_EQ(c.accepted, 8u);
  expect_identity(c);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);
}

TEST(RealtimeEngine, DropOldestRingOverflowIsCountedNotFatal) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropOldest);
  opts.queue_capacity = 4;  // ring defaults to 8 slots
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);
  std::uint64_t admitted = 0;
  for (net::SeqNo seq = 1; seq <= 12; ++seq) {
    if (engine.offer(fleet::Heartbeat{0, 0, seq, TimePoint(0.01 * seq)})) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 8u);  // the ring is the memory backstop
  ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.shed_overflow, 4u);
  time.advance(TimePoint(1.0));
  engine.drain_shard(0, TimePoint(1.0));
  c = engine.counters(0);
  EXPECT_EQ(c.shed_oldest, 4u);  // 8 popped, capacity 4 kept
  EXPECT_EQ(c.accepted, 4u);
  expect_identity(c);
}

TEST(RealtimeEngine, DegradeEtaThinsAboveWatermarkThenShedsAtFull) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDegradeEta);
  opts.degrade_watermark = 0.5;  // thinning starts at occupancy 4
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  // Sequences 1..4 fill to the watermark; above it odd sequences are
  // thinned (effective eta doubles); at full occupancy even sequences are
  // shed bounded-admit style.
  for (net::SeqNo seq = 1; seq <= 24; ++seq) {
    engine.offer(fleet::Heartbeat{2, 0, seq, TimePoint(0.01 * seq)});
  }
  ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.produced, 24u);
  EXPECT_GT(c.shed_degraded, 0u);  // thinned in the watermark band
  EXPECT_GT(c.shed_newest, 0u);    // rejected at full
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);

  time.advance(TimePoint(1.0));
  engine.drain_shard(0, TimePoint(1.0));
  expect_identity(engine.counters(0));
}

// ---------------------------------------------------------------------------
// Engine watchdog, warm restart, latched risk
// ---------------------------------------------------------------------------

TEST(RealtimeEngine, WatchdogRestartsStalledShardAndRiskSurvivesRecovery) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  opts.watchdog.stall_timeout = seconds(2.0);
  opts.watchdog.backoff_base = seconds(1.0);
  opts.watchdog.backoff_cap = seconds(4.0);
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  // Work arrives but nobody drains: after stall_timeout the watchdog
  // flags the (alive but stuck) consumer.
  ASSERT_TRUE(engine.offer(fleet::Heartbeat{0, 0, 1, TimePoint(0.1)}));
  EXPECT_EQ(engine.poll_watchdog(0, TimePoint(0.5), true),
            WatchdogAction::kNone);
  EXPECT_FALSE(engine.qos_at_risk());
  EXPECT_EQ(engine.poll_watchdog(0, TimePoint(3.0), true),
            WatchdogAction::kRestart);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kConsumerStall);

  engine.warm_restart_shard(0, TimePoint(3.0));
  EXPECT_EQ(engine.counters(0).restarts, 1u);

  // Recovery: the queue drains fine afterwards — but the latched reason
  // must survive (operators need "was it ever degraded").
  time.advance(TimePoint(4.0));
  EXPECT_EQ(engine.drain_shard(0, TimePoint(4.0)), 1u);
  expect_identity(engine.counters(0));
  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kConsumerStall);
}

TEST(RealtimeEngine, WarmRestartLosesNoEmittedTransitions) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  ASSERT_TRUE(engine.offer(fleet::Heartbeat{0, 0, 1, TimePoint(0.1)}));
  ASSERT_TRUE(engine.offer(fleet::Heartbeat{1, 0, 1, TimePoint(0.2)}));
  time.advance(TimePoint(0.5));
  engine.drain_shard(0, TimePoint(0.5));
  // The trust transitions are pending inside the monitor; a warm restart
  // must move them into the engine-side log, not drop them.
  engine.warm_restart_shard(0, TimePoint(0.6));

  const std::vector<fleet::Transition> out = engine.drain_transitions();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].at, TimePoint(0.1));
  EXPECT_EQ(out[0].process, 0u);
  EXPECT_EQ(out[0].to, Verdict::kTrust);
  EXPECT_EQ(out[1].process, 1u);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kWatchdogRestart);
}

TEST(RealtimeEngine, WarmRestartFiresFreshnessPointsAlreadyDue) {
  // A freshness point at or before the restart instant must come out at
  // exactly tau even when the dying monitor's wheel has not crossed its
  // tick: otherwise the stream would depend on the wheel resolution.  With
  // eta = 1 and alpha = 2, a heartbeat m_1 at 0.1 gives tau = EA_2 + alpha
  // = 0.1 - 1 + 2 + 2 = 3.1.
  const auto trusted_p0 = [](VirtualTimeSource& time, RealtimeEngine& engine) {
    ASSERT_TRUE(engine.offer(fleet::Heartbeat{0, 0, 1, TimePoint(0.1)}));
    time.advance(TimePoint(0.5));
    engine.drain_shard(0, TimePoint(0.5));
  };
  const auto expect_suspect_at_tau = [](RealtimeEngine& engine) {
    const std::vector<fleet::Transition> out = engine.drain_transitions();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].to, Verdict::kTrust);
    EXPECT_EQ(out[1].process, 0u);
    EXPECT_EQ(out[1].to, Verdict::kSuspect);
    EXPECT_DOUBLE_EQ(out[1].at.seconds(), 3.1);
  };

  {
    // tau inside the current tick: the default tick is eta / 128, and an
    // advance to 3.101 < 397 / 128 stops one tick short of tau's 397.
    VirtualTimeSource time;
    RealtimeEngine engine(small_engine(OverloadPolicy::kDropNewest), time);
    trusted_p0(time, engine);
    time.advance(TimePoint(3.101));
    engine.advance(TimePoint(3.101));
    engine.warm_restart_shard(0, TimePoint(3.101));
    expect_suspect_at_tau(engine);
  }
  {
    // Consumer stall: nothing advanced the wheel since the drain at 0.5.
    VirtualTimeSource time;
    RealtimeEngine engine(small_engine(OverloadPolicy::kDropNewest), time);
    trusted_p0(time, engine);
    time.advance(TimePoint(5.0));
    engine.warm_restart_shard(0, TimePoint(5.0));
    expect_suspect_at_tau(engine);
  }
}

TEST(RealtimeEngine, ShardOfPartitionsBalancedAndCountersSumAcrossShards) {
  RealtimeOptions opts;
  opts.processes = 10;
  opts.shards = 3;  // 4 + 3 + 3
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 4;
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);
  ASSERT_EQ(engine.shard_count(), 3u);
  EXPECT_EQ(engine.shard_of(0), 0u);
  EXPECT_EQ(engine.shard_of(3), 0u);
  EXPECT_EQ(engine.shard_of(4), 1u);
  EXPECT_EQ(engine.shard_of(6), 1u);
  EXPECT_EQ(engine.shard_of(7), 2u);
  EXPECT_EQ(engine.shard_of(9), 2u);

  for (fleet::ProcessIndex p = 0; p < 10; ++p) {
    ASSERT_TRUE(engine.offer(
        fleet::Heartbeat{p, 0, 1, TimePoint(0.1 + 0.001 * p)}));
  }
  time.advance(TimePoint(1.0));
  for (std::size_t s = 0; s < 3; ++s) engine.drain_shard(s, TimePoint(1.0));
  const ShardCounters total = engine.totals();
  EXPECT_EQ(total.produced, 10u);
  EXPECT_EQ(total.accepted, 10u);
  expect_identity(total);
  // Transitions come back in global process ids, in (time, process) order.
  const auto out = engine.drain_transitions();
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].process, static_cast<fleet::ProcessIndex>(i));
  }
}

// ---------------------------------------------------------------------------
// Epoch rebase (wall-clock timestamps must not reach the timing wheel raw)
// ---------------------------------------------------------------------------

TEST(RealtimeEngine, RebasesWallEpochTimesAndMapsTransitionsBack) {
  // A time source that starts at a wall-like epoch: the monitors must see
  // engine-local time, and transitions must come back in source time.
  constexpr double kEpoch = 1.7e9;
  VirtualTimeSource time{TimePoint(kEpoch)};
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  RealtimeEngine engine(opts, time);

  ASSERT_TRUE(engine.offer(fleet::Heartbeat{0, 0, 1, TimePoint(kEpoch + 0.5)}));
  time.advance(TimePoint(kEpoch + 1.0));
  EXPECT_EQ(engine.drain_shard(0, time.now()), 1u);
  engine.advance(time.now());
  const auto out = engine.drain_transitions();
  ASSERT_EQ(out.size(), 1u);
  // Output timestamps are in *source* time, not engine time.
  EXPECT_DOUBLE_EQ(out[0].at.seconds(), kEpoch + 0.5);
  EXPECT_EQ(out[0].to, Verdict::kTrust);
}

// ---------------------------------------------------------------------------
// Replay determinism
// ---------------------------------------------------------------------------

TEST(Replay, PayloadIsByteIdenticalAcrossKnobs) {
  const std::vector<ReplayScenario> scenarios = smoke_scenarios();
  ASSERT_FALSE(scenarios.empty());
  const ReplayScenario& sc = scenarios.front();

  const ReplayResult base = run_replay(sc, ReplayKnobs{1, 0, 64});
  EXPECT_FALSE(base.payload.empty());
  expect_identity(base.totals);

  const ReplayKnobs grid[] = {
      {2, 0, 64}, {3, 0, 1}, {1, 4096, 7}, {4, 1024, 128}};
  for (const ReplayKnobs& knobs : grid) {
    const ReplayResult r = run_replay(sc, knobs);
    EXPECT_EQ(r.payload, base.payload);
    EXPECT_EQ(r.crc, base.crc);
  }
}

TEST(Replay, SmokeScenarioOraclesHold) {
  std::ostringstream diag;
  EXPECT_TRUE(replay_smoke(diag)) << diag.str();
}

// ---------------------------------------------------------------------------
// Live mode (threaded; the TSan scenarios from ISSUE acceptance)
// ---------------------------------------------------------------------------

TEST(RealtimeLive, ProducersOutrunningStalledConsumerShedAndNeverBlock) {
  RealtimeOptions opts;
  opts.processes = 8;
  opts.shards = 2;
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 16;
  opts.policy = OverloadPolicy::kDropNewest;
  VirtualTimeSource time(TimePoint(5.0));
  RealtimeEngine engine(opts, time);

  engine.start(2, seconds(0.01), seconds(0.05));
  engine.stall_consumer(0, true);
  engine.stall_consumer(1, true);

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto proc = static_cast<fleet::ProcessIndex>((p + i) % 8);
        engine.offer_now(proc, 0, static_cast<net::SeqNo>(i + 1));
      }
    });
  }
  // The producers finish although nobody drains: offer() never blocks.
  for (std::thread& t : producers) t.join();

  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);

  // Un-stall, let the consumers catch up, then stop and settle.
  engine.stall_consumer(0, false);
  engine.stall_consumer(1, false);
  engine.stop();
  time.advance(TimePoint(6.0));
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    engine.drain_shard(s, time.now());
  }

  const ShardCounters total = engine.totals();
  EXPECT_EQ(total.produced,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  expect_identity(total);
  EXPECT_GT(total.shed_newest, 0u);
  // Recovery must not wash out the latched reason.
  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);
}

TEST(RealtimeLive, KilledConsumerIsRespawnedWithinBackoffBound) {
  RealtimeOptions opts;
  opts.processes = 4;
  opts.shards = 1;
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 64;
  opts.watchdog.stall_timeout = seconds(0.05);
  opts.watchdog.backoff_base = seconds(0.05);
  opts.watchdog.backoff_cap = seconds(0.2);
  MonotonicClock clock;
  RealtimeEngine engine(opts, clock);

  engine.start(1, seconds(0.002), seconds(0.01));
  engine.kill_consumer(0);
  // Keep work visible so the dead consumer counts as stalled.
  ASSERT_TRUE(engine.offer_now(0, 0, 1));

  // The watchdog must warm-restart and respawn within the backoff bound;
  // allow generous wall slack for CI, but the expected latency is
  // stall-detection + one backoff step (well under a second).
  const TimePoint deadline = clock.now() + seconds(10.0);
  while (engine.counters(0).restarts == 0 && clock.now() < deadline) {
    clock.sleep_for(seconds(0.005));
  }
  EXPECT_GE(engine.counters(0).restarts, 1u);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kWatchdogRestart);

  // The respawned consumer makes progress again: the queued heartbeat and
  // fresh ones get consumed.
  ASSERT_TRUE(engine.offer_now(1, 0, 1));
  while (engine.totals().consumed < 2 && clock.now() < deadline) {
    clock.sleep_for(seconds(0.005));
  }
  EXPECT_GE(engine.totals().consumed, 2u);

  engine.stop();
  expect_identity(engine.totals());
}

// ---------------------------------------------------------------------------
// Option validation
// ---------------------------------------------------------------------------

TEST(RealtimeOptions, ValidateRejectsMisuse) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  opts.shards = 8;  // more shards than processes
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.queue_capacity = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.ring_capacity = 4;  // < queue_capacity
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.degrade_watermark = 0.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.watchdog.backoff_cap = seconds(0.1);  // < base
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace chenfd::rt

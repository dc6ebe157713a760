// Tests for the fleet subsystem (DESIGN.md §13): the hierarchical timing
// wheel, the sharded FleetMonitor, and the determinism suite that pins the
// drained transition stream to be a pure function of the heartbeat stream —
// independent of shard count and wheel resolution.  The per-pair NfdE
// detector is the reference implementation the single-process parity test
// compares against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clock/clock.hpp"
#include "common/rng.hpp"
#include "core/nfd_e.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/fleet_monitor.hpp"
#include "fleet/timing_wheel.hpp"
#include "fleet/workload.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace chenfd::fleet {
namespace {

using Tick = TimingWheel::Tick;
using TimerId = TimingWheel::TimerId;

std::vector<std::pair<Tick, TimerId>> drain_wheel(TimingWheel& wheel,
                                                  Tick to) {
  std::vector<std::pair<Tick, TimerId>> fired;
  wheel.advance(to, [&fired](TimerId id, Tick deadline) {
    fired.emplace_back(deadline, id);
  });
  return fired;
}

// ---- timing wheel -------------------------------------------------------

TEST(TimingWheel, FiresInTickOrder) {
  TimingWheel wheel(8);
  wheel.schedule(0, 5);
  wheel.schedule(1, 3);
  wheel.schedule(2, 9);
  const auto fired = drain_wheel(wheel, 20);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<Tick, TimerId>{3, 1}));
  EXPECT_EQ(fired[1], (std::pair<Tick, TimerId>{5, 0}));
  EXPECT_EQ(fired[2], (std::pair<Tick, TimerId>{9, 2}));
  EXPECT_EQ(wheel.pending_count(), 0u);
}

TEST(TimingWheel, CancelPreventsFiring) {
  TimingWheel wheel(4);
  wheel.schedule(0, 5);
  wheel.schedule(1, 6);
  EXPECT_TRUE(wheel.cancel(0));
  EXPECT_FALSE(wheel.cancel(0));  // already cancelled
  EXPECT_FALSE(wheel.cancel(2));  // never scheduled
  const auto fired = drain_wheel(wheel, 10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].second, 1u);
}

TEST(TimingWheel, PendingAndDeadlineAccessors) {
  TimingWheel wheel(4);
  EXPECT_FALSE(wheel.pending(2));
  wheel.schedule(2, 77);
  EXPECT_TRUE(wheel.pending(2));
  EXPECT_EQ(wheel.deadline(2), 77u);
  EXPECT_EQ(wheel.pending_count(), 1u);
  EXPECT_EQ(wheel.capacity(), 4u);
}

TEST(TimingWheel, MultiLevelCascadesFireAtExactTicks) {
  // One deadline per wheel level: 100 (level 1), 5000 (level 2), 300000
  // (level 3), plus one just past the first slot (level 0 after cascades).
  TimingWheel wheel(4);
  wheel.schedule(0, 100);
  wheel.schedule(1, 5'000);
  wheel.schedule(2, 300'000);
  wheel.schedule(3, 63);
  const auto fired = drain_wheel(wheel, 300'000);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<Tick, TimerId>{63, 3}));
  EXPECT_EQ(fired[1], (std::pair<Tick, TimerId>{100, 0}));
  EXPECT_EQ(fired[2], (std::pair<Tick, TimerId>{5'000, 1}));
  EXPECT_EQ(fired[3], (std::pair<Tick, TimerId>{300'000, 2}));
}

TEST(TimingWheel, ExpiredTimerMayRescheduleFromTheCallback) {
  TimingWheel wheel(1);
  wheel.schedule(0, 2);
  std::vector<Tick> fired;
  wheel.advance(10, [&](TimerId id, Tick deadline) {
    fired.push_back(deadline);
    if (deadline < 8) wheel.schedule(id, deadline + 2);
  });
  EXPECT_EQ(fired, (std::vector<Tick>{2, 4, 6, 8}));
}

TEST(TimingWheel, TopLevelDigitWrapDoesNotMisfile) {
  // The clamp case: a deadline across the 64^4 tick boundary XORs digits
  // above the top level even though the delta is tiny.  The entry must
  // neither index out of range nor fire early/late.
  TimingWheel wheel(2);
  const Tick boundary = Tick{1} << 24;  // 64^4
  drain_wheel(wheel, boundary - 3);     // now = boundary - 3
  wheel.schedule(0, boundary + 1);      // crosses the boundary, delta = 4
  wheel.schedule(1, boundary - 1);      // same rotation, delta = 2
  const auto fired = drain_wheel(wheel, boundary + 5);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<Tick, TimerId>{boundary - 1, 1}));
  EXPECT_EQ(fired[1], (std::pair<Tick, TimerId>{boundary + 1, 0}));
}

TEST(TimingWheel, ClearDropsEverythingWithoutFiring) {
  TimingWheel wheel(3);
  drain_wheel(wheel, 10);
  wheel.schedule(0, 15);
  wheel.schedule(1, 2'000);
  wheel.clear();
  EXPECT_EQ(wheel.pending_count(), 0u);
  EXPECT_EQ(wheel.now(), 10u);  // time does not rewind
  EXPECT_TRUE(drain_wheel(wheel, 3'000).empty());
}

TEST(TimingWheel, EmptyWheelJumpsAndLaterTimersFireExactly) {
  // A rebuilt wheel starts at tick 0; with nothing pending, catching it up
  // to the present must not walk the ticks in between (10^12 would take
  // hours) and must leave it exactly where a walk would have.
  TimingWheel wheel(3);
  const Tick far = 1'000'000'000'000;
  EXPECT_TRUE(drain_wheel(wheel, far).empty());
  EXPECT_EQ(wheel.now(), far);
  EXPECT_TRUE(drain_wheel(wheel, far - 5).empty());  // never rewinds
  EXPECT_EQ(wheel.now(), far);
  wheel.schedule(0, far + 70'000);  // level 2 relative to the new now
  wheel.schedule(1, far + 1);
  wheel.schedule(2, far + 100);
  auto fired = drain_wheel(wheel, far + 100'000);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<Tick, TimerId>{far + 1, 1}));
  EXPECT_EQ(fired[1], (std::pair<Tick, TimerId>{far + 100, 2}));
  EXPECT_EQ(fired[2], (std::pair<Tick, TimerId>{far + 70'000, 0}));
  // Emptied by firing, the wheel jumps again.
  EXPECT_TRUE(drain_wheel(wheel, 2 * far).empty());
  EXPECT_EQ(wheel.now(), 2 * far);
}

TEST(TimingWheel, RejectsContractViolations) {
  TimingWheel wheel(2);
  drain_wheel(wheel, 10);
  wheel.schedule(0, 20);
  EXPECT_THROW(wheel.schedule(0, 25), std::invalid_argument);  // pending
  EXPECT_THROW(wheel.schedule(1, 10), std::invalid_argument);  // not future
  EXPECT_THROW(wheel.schedule(1, 5), std::invalid_argument);   // in the past
  EXPECT_THROW(wheel.schedule(1, 10 + TimingWheel::kMaxDelta),
               std::invalid_argument);                         // horizon
  EXPECT_THROW(wheel.schedule(2, 20), std::invalid_argument);  // id range
  EXPECT_THROW((void)wheel.pending(7), std::invalid_argument);
  EXPECT_THROW((void)wheel.deadline(1), std::invalid_argument);
}

TEST(TimingWheel, RandomizedCrossCheckAgainstEventQueue) {
  // The wheel must fire exactly the same (tick, id) multiset as the
  // reference heap, in tick order.  Intra-tick order is implementation-
  // defined for both (wheel: LIFO slot chains; queue: FIFO), so firings
  // are compared grouped per tick.
  constexpr std::size_t kTimers = 192;
  TimingWheel wheel(kTimers);
  sim::EventQueue queue;
  std::map<TimerId, sim::EventId> queue_ids;
  std::map<Tick, std::vector<TimerId>> queue_fired;
  Rng rng(20260808);

  const auto random_deadline = [&](Tick now) {
    return now + 1 + rng() % 200'000;
  };
  for (TimerId id = 0; id < kTimers; ++id) {
    const Tick tick = random_deadline(0);
    wheel.schedule(id, tick);
    queue_ids[id] = queue.schedule(
        TimePoint(static_cast<double>(tick)),
        [&queue_fired, id, tick] { queue_fired[tick].push_back(id); });
  }

  Tick now = 0;
  for (int round = 0; round < 50; ++round) {
    // Mutate ~a third of the timers: cancel some, reschedule others.
    for (TimerId id = 0; id < kTimers; ++id) {
      const std::uint64_t dice = rng() % 6;
      if (dice == 0 && wheel.pending(id)) {
        ASSERT_TRUE(wheel.cancel(id));
        ASSERT_TRUE(queue.cancel(queue_ids[id]));
      } else if (dice == 1) {
        if (wheel.pending(id)) {
          wheel.cancel(id);
          queue.cancel(queue_ids[id]);
        }
        const Tick tick = random_deadline(now);
        wheel.schedule(id, tick);
        queue_ids[id] = queue.schedule(
            TimePoint(static_cast<double>(tick)),
            [&queue_fired, id, tick] { queue_fired[tick].push_back(id); });
      }
    }
    now += 1 + rng() % 9'000;
    std::map<Tick, std::vector<TimerId>> wheel_fired;
    wheel.advance(now, [&wheel_fired](TimerId id, Tick deadline) {
      wheel_fired[deadline].push_back(id);
    });
    queue_fired.clear();
    while (auto next = queue.next_time()) {
      if (next->seconds() > static_cast<double>(now)) break;
      auto ev = queue.pop();
      ASSERT_TRUE(ev.has_value());
      ev->second();
    }
    for (auto& [tick, ids] : wheel_fired) std::sort(ids.begin(), ids.end());
    for (auto& [tick, ids] : queue_fired) std::sort(ids.begin(), ids.end());
    ASSERT_EQ(wheel_fired, queue_fired) << "diverged in round " << round;
  }
  EXPECT_EQ(wheel.pending_count(), queue.pending());
}

// ---- fleet monitor ------------------------------------------------------

core::NfdEParams params_w8() {
  return core::NfdEParams{seconds(1.0), seconds(0.5), 8};
}

FleetOptions fleet_options(std::size_t processes, std::size_t shards,
                           core::NfdEParams params = params_w8()) {
  FleetOptions fo;
  fo.processes = processes;
  fo.shards = shards;
  fo.params = params;
  return fo;
}

Heartbeat hb(ProcessIndex p, net::SeqNo seq, double at,
             std::uint32_t incarnation = 0) {
  return Heartbeat{p, incarnation, seq, TimePoint(at)};
}

/// Reference NfdE run: delivers (seq, arrival) pairs through the simulator
/// and returns the transition log.
std::vector<chenfd::Transition> nfd_e_reference(
    const core::NfdEParams& params,
    const std::vector<std::pair<net::SeqNo, double>>& arrivals,
    double horizon) {
  sim::Simulator sim;
  clk::SynchronizedClock clock;
  core::NfdE detector(sim, clock, params);
  std::vector<chenfd::Transition> log;
  detector.add_listener(
      [&log](const chenfd::Transition& t) { log.push_back(t); });
  detector.activate();
  for (const auto& [seq, at] : arrivals) {
    net::Message m;
    m.seq = seq;
    m.sent_real = TimePoint(static_cast<double>(seq));
    m.sender_timestamp = m.sent_real;
    sim.at(TimePoint(at), [&detector, m, at] {
      detector.on_heartbeat(m, TimePoint(at));
    });
  }
  sim.run_until(TimePoint(horizon));
  return log;
}

TEST(FleetMonitor, SingleProcessMatchesNfdEReference) {
  // The engine is NFD-E in struct-of-arrays clothing: on one process its
  // transition stream must match the per-pair detector timestamp-for-
  // timestamp, including the mid-run suspicion from the lost heartbeat.
  const std::vector<std::pair<net::SeqNo, double>> arrivals = {
      {1, 1.20}, {2, 2.25}, {3, 3.15}, /* seq 4 lost */ {5, 5.22},
      {6, 6.18}};
  const double horizon = 30.0;
  const auto reference = nfd_e_reference(params_w8(), arrivals, horizon);

  FleetMonitor monitor(fleet_options(1, 1));
  std::vector<Heartbeat> batch;
  for (const auto& [seq, at] : arrivals) batch.push_back(hb(0, seq, at));
  monitor.ingest(batch);
  monitor.close(TimePoint(horizon));
  const auto stream = monitor.drain_transitions();

  ASSERT_EQ(stream.size(), reference.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].process, 0u);
    EXPECT_EQ(stream[i].to, reference[i].to) << "transition " << i;
    EXPECT_DOUBLE_EQ(stream[i].at.seconds(), reference[i].at.seconds())
        << "transition " << i;
  }
}

TEST(FleetMonitor, AdvanceGranularityDoesNotQuantizeTimestamps) {
  // Rule 1 of the determinism contract: the coarse wheel decides *when the
  // engine notices*, never the emitted timestamp.  Drive the expiry with
  // deliberately coarse advance() steps and compare against close().
  FleetOptions coarse = fleet_options(1, 1);
  coarse.wheel_resolution = seconds(0.7);  // nothing divides nicely
  FleetMonitor monitor(coarse);
  monitor.ingest(std::vector<Heartbeat>{hb(0, 1, 1.2), hb(0, 2, 2.2)});
  for (double t = 3.0; t < 12.0; t += 1.3) monitor.advance(TimePoint(t));
  monitor.close(TimePoint(30.0));
  const auto stream = monitor.drain_transitions();
  // Trust at 1.2; suspect at EA_3 + alpha = 3.2 + 0.5 exactly.
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].to, Verdict::kTrust);
  EXPECT_DOUBLE_EQ(stream[0].at.seconds(), 1.2);
  EXPECT_EQ(stream[1].to, Verdict::kSuspect);
  EXPECT_DOUBLE_EQ(stream[1].at.seconds(), 3.7);
}

TEST(FleetMonitor, CatchUpFiresOverdueSuspicionBeforeTheHeartbeat) {
  // Rule 2: a heartbeat arriving after its process's freshness point must
  // see the suspicion emitted first (at the exact freshness point), then
  // the re-trust at the arrival.  The arrival 3.72 sits *inside* the wheel
  // tick containing the 3.7 deadline (resolution pinned to 0.125, so
  // ingest only advances the wheel to tick 29 < deadline tick 30): only
  // the per-process catch-up check can emit the suspicion here.
  FleetOptions fo = fleet_options(1, 1);
  fo.wheel_resolution = seconds(0.125);
  FleetMonitor monitor(fo);
  monitor.ingest(std::vector<Heartbeat>{hb(0, 1, 1.2), hb(0, 2, 2.2)});
  // Freshness point after m_2: EA_3 + alpha = 3.7.  Deliver m_3 late.
  monitor.ingest(std::vector<Heartbeat>{hb(0, 3, 3.72)});
  monitor.close(TimePoint(30.0));
  const auto stream = monitor.drain_transitions();
  ASSERT_EQ(stream.size(), 4u);
  EXPECT_EQ(stream[0].to, Verdict::kTrust);
  EXPECT_EQ(stream[1].to, Verdict::kSuspect);
  EXPECT_DOUBLE_EQ(stream[1].at.seconds(), 3.7);
  EXPECT_EQ(stream[2].to, Verdict::kTrust);
  EXPECT_DOUBLE_EQ(stream[2].at.seconds(), 3.72);
  EXPECT_EQ(stream[3].to, Verdict::kSuspect);  // end-of-stream expiry
}

TEST(FleetMonitor, LateHeartbeatPastItsOwnFreshnessPointStaysSuspect) {
  // NFD-E semantics (mirrored from NfdU::on_heartbeat): a heartbeat so
  // late that the freshness point it computes for the *next* message has
  // already passed does not re-trust.  m_3 at 6.0 yields EA_4 + alpha
  // ~= 5.63 < 6.0, so the process stays suspect.
  FleetMonitor monitor(fleet_options(1, 1));
  monitor.ingest(std::vector<Heartbeat>{hb(0, 1, 1.2), hb(0, 2, 2.2)});
  monitor.ingest(std::vector<Heartbeat>{hb(0, 3, 6.0)});
  monitor.close(TimePoint(30.0));
  const auto stream = monitor.drain_transitions();
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].to, Verdict::kTrust);
  EXPECT_EQ(stream[1].to, Verdict::kSuspect);
  EXPECT_DOUBLE_EQ(stream[1].at.seconds(), 3.7);
  EXPECT_EQ(monitor.verdict(0), Verdict::kSuspect);
}

TEST(FleetMonitor, IncarnationFilterDropsStaleAndRebasesOnBump) {
  FleetMonitor monitor(fleet_options(2, 1));
  monitor.ingest(std::vector<Heartbeat>{
      hb(0, 1, 1.2, 0), hb(1, 1, 1.3, 0), hb(0, 2, 2.2, 0)});
  EXPECT_EQ(monitor.incarnation(0), 0u);
  EXPECT_EQ(monitor.window_count(0), 2u);

  // A crashed-and-recovered process comes back with incarnation 1 and its
  // sequence numbering restarted: the engine rebases its epoch instead of
  // treating seq 1 as a duplicate.
  monitor.ingest(std::vector<Heartbeat>{hb(0, 1, 8.0, 1)});
  EXPECT_EQ(monitor.incarnation(0), 1u);
  EXPECT_EQ(monitor.window_count(0), 1u);  // old window discarded
  EXPECT_EQ(monitor.verdict(0), Verdict::kTrust);

  // Anything still carrying the old incarnation is dropped on the floor.
  monitor.ingest(std::vector<Heartbeat>{hb(0, 7, 8.5, 0)});
  EXPECT_EQ(monitor.dropped_stale(), 1u);
  EXPECT_EQ(monitor.window_count(0), 1u);
  EXPECT_EQ(monitor.heartbeats(), 5u);
}

TEST(FleetMonitor, DuplicateSequenceNumbersAreDropped) {
  FleetMonitor monitor(fleet_options(1, 1));
  monitor.ingest(std::vector<Heartbeat>{
      hb(0, 1, 1.2), hb(0, 2, 2.2), hb(0, 2, 2.4), hb(0, 1, 2.5)});
  EXPECT_EQ(monitor.dropped_duplicate(), 2u);
  EXPECT_EQ(monitor.window_count(0), 2u);
}

TEST(FleetMonitor, IngestRejectsContractViolations) {
  FleetMonitor monitor(fleet_options(2, 1));
  EXPECT_THROW(monitor.ingest(std::vector<Heartbeat>{hb(2, 1, 1.0)}),
               std::invalid_argument);  // process out of range
  EXPECT_THROW(monitor.ingest(std::vector<Heartbeat>{hb(0, 0, 1.0)}),
               std::invalid_argument);  // sequence numbers start at 1
  monitor.ingest(std::vector<Heartbeat>{hb(0, 1, 2.0)});
  EXPECT_THROW(
      monitor.ingest(std::vector<Heartbeat>{hb(1, 1, 1.0)}),
      std::invalid_argument);  // arrival precedes the high-water mark
}

TEST(FleetMonitor, RejectsInvalidOptions) {
  EXPECT_THROW(FleetMonitor(fleet_options(0, 1)), std::invalid_argument);
  EXPECT_THROW(FleetMonitor(fleet_options(4, 0)), std::invalid_argument);
  EXPECT_THROW(FleetMonitor(fleet_options(4, 5)), std::invalid_argument);
  EXPECT_THROW(
      FleetMonitor(fleet_options(4, 2, core::NfdEParams{seconds(0.0),
                                                        seconds(0.5), 8})),
      std::invalid_argument);
}

TEST(FleetMonitor, BalancedPartitionNeverCreatesAnEmptyShard) {
  // 10 processes over 4 shards: 3/3/2/2, and every id maps to the shard
  // that owns its row.
  FleetMonitor monitor(fleet_options(10, 4));
  EXPECT_EQ(monitor.shard_count(), 4u);
  std::vector<Heartbeat> batch;
  for (ProcessIndex p = 0; p < 10; ++p) {
    batch.push_back(hb(p, 1, 1.0 + 0.01 * static_cast<double>(p)));
  }
  monitor.ingest(batch);
  for (ProcessIndex p = 0; p < 10; ++p) {
    EXPECT_EQ(monitor.verdict(p), Verdict::kTrust) << "process " << p;
  }
  EXPECT_EQ(monitor.heartbeats(), 10u);
}

TEST(FleetMonitor, MemoryStaysWithinBudget) {
  core::NfdEParams p = params_w8();
  p.window = 16;
  FleetMonitor monitor(fleet_options(10'000, 16, p));
  const double per_process =
      static_cast<double>(monitor.memory_bytes()) / 10'000.0;
  // ~70 fixed + 8 * window = ~200; leave headroom for vector rounding.
  EXPECT_LT(per_process, 400.0);
  EXPECT_GT(per_process, 8.0 * 16);  // the rings alone are 128
}

// ---- determinism suite --------------------------------------------------

WorkloadOptions small_workload() {
  WorkloadOptions w;
  w.processes = 500;
  w.seed = 99;
  w.slots = 12;
  w.loss_prob = 0.05;
  return w;
}

TEST(FleetDeterminism, WorkloadGenerationIsAPureFunction) {
  const auto a = generate_workload(small_workload());
  const auto b = generate_workload(small_workload());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].process, b[i].process);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
  }
}

TEST(FleetDeterminism, ShardCountsProduceByteIdenticalResults) {
  // The tentpole acceptance criterion: runs at shard counts {1, 4, 16}
  // must agree on the drained transition stream (CRC over the canonical
  // text form) and on the entire deterministic payload, byte for byte.
  std::optional<std::string> reference_json;
  std::optional<std::uint32_t> reference_crc;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    const FleetRunResult r = run_fleet(small_workload(), shards, params_w8());
    EXPECT_GT(r.transitions, 0u);
    std::ostringstream payload;
    write_fleet_json(payload, {r}, /*include_measurements=*/false,
                     /*fast_mode=*/false);
    if (!reference_json) {
      reference_json = payload.str();
      reference_crc = r.stream_crc32;
    } else {
      EXPECT_EQ(payload.str(), *reference_json) << "shards=" << shards;
      EXPECT_EQ(r.stream_crc32, *reference_crc) << "shards=" << shards;
    }
  }
}

TEST(FleetDeterminism, ShardCountsProduceIdenticalTransitionStreams) {
  // Stronger than the CRC: the full drained vectors compare equal.
  const auto workload = generate_workload(small_workload());
  const TimePoint horizon = workload_horizon(small_workload(), params_w8());
  std::optional<std::vector<Transition>> reference;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    FleetMonitor monitor(fleet_options(500, shards));
    monitor.ingest(workload);
    monitor.close(horizon);
    auto stream = monitor.drain_transitions();
    if (!reference) {
      reference = std::move(stream);
    } else {
      EXPECT_EQ(stream, *reference) << "shards=" << shards;
    }
  }
}

/// Feeds `workload` in slices of `step` seconds, calling advance() at the
/// end of each slice and `on_step(to, drained)` after it, then closes at
/// `horizon`.  Returns every drained transition, stable-sorted by (time,
/// process) like a single drain: a Suspect whose tick the wheel has not yet
/// crossed comes out one step later than transitions stamped after it.
template <class F>
std::vector<Transition> run_interleaved(FleetMonitor& monitor,
                                        const std::vector<Heartbeat>& workload,
                                        double step, TimePoint horizon,
                                        F&& on_step) {
  const std::span<const Heartbeat> all(workload);
  std::vector<Transition> stream;
  std::size_t next = 0;
  for (int k = 1; static_cast<double>(k) * step < horizon.seconds(); ++k) {
    const double to = static_cast<double>(k) * step;
    std::size_t end = next;
    while (end < all.size() && all[end].arrival.seconds() <= to) ++end;
    monitor.ingest(all.subspan(next, end - next));
    next = end;
    monitor.advance(TimePoint(to));
    const std::vector<Transition> drained = monitor.drain_transitions();
    on_step(to, drained);
    stream.insert(stream.end(), drained.begin(), drained.end());
  }
  monitor.ingest(all.subspan(next));
  monitor.close(horizon);
  const std::vector<Transition> rest = monitor.drain_transitions();
  stream.insert(stream.end(), rest.begin(), rest.end());
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Transition& a, const Transition& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.process < b.process;
                   });
  return stream;
}

TEST(FleetDeterminism, WheelResolutionDoesNotChangeTheStream) {
  // Resolution 0 is the default (eta / 128).  Each resolution runs once as
  // one batch and once with interleaved advance() steps that divide
  // neither eta nor the tick.
  const auto workload = generate_workload(small_workload());
  const TimePoint horizon = workload_horizon(small_workload(), params_w8());
  std::optional<std::vector<Transition>> reference;
  for (const double res : {0.0, 0.125, 0.05, 0.7}) {
    FleetOptions fo = fleet_options(500, 4);
    fo.wheel_resolution = seconds(res);
    FleetMonitor batch(fo);
    batch.ingest(workload);
    batch.close(horizon);
    auto stream = batch.drain_transitions();
    if (!reference) {
      reference = std::move(stream);
    } else {
      EXPECT_EQ(stream, *reference) << "resolution=" << res;
    }
    FleetMonitor stepped(fo);
    EXPECT_EQ(run_interleaved(stepped, workload, 0.37, horizon,
                              [](double, const std::vector<Transition>&) {}),
              *reference)
        << "interleaved, resolution=" << res;
  }
}

TEST(FleetDeterminism, DefaultTickBoundsWhenAdvanceEmitsASuspect) {
  // With the default tick eta / 128, a Suspect at tau comes out of the
  // first advance(to) with to >= tau + eta / 128 (or earlier), and never
  // out of one with to < tau.  eta = 1 makes the tick 2^-7, so the grid
  // arithmetic is exact and the bound holds without slack.
  const auto workload = generate_workload(small_workload());
  const TimePoint horizon = workload_horizon(small_workload(), params_w8());
  const double tick = params_w8().eta.seconds() / 128.0;
  FleetMonitor monitor(fleet_options(500, 4));
  double prev_to = 0.0;
  std::size_t checked = 0;
  run_interleaved(
      monitor, workload, 0.003, horizon,
      [&](double to, const std::vector<Transition>& drained) {
        for (const Transition& t : drained) {
          if (t.to != Verdict::kSuspect) continue;
          ++checked;
          EXPECT_LE(t.at.seconds(), to) << "process " << t.process;
          EXPECT_LT(prev_to, t.at.seconds() + tick) << "process " << t.process;
        }
        prev_to = to;
      });
  EXPECT_GT(checked, 100u);
}

// ---- fault-plan integration --------------------------------------------

TEST(FleetFaults, CrashSuspectsAndRecoveryRetrustsWithNewIncarnation) {
  WorkloadOptions w;
  w.processes = 4;
  w.seed = 7;
  w.slots = 20;
  w.loss_prob = 0.0;
  fault::FaultPlan plan;
  plan.crash_process(2, TimePoint(6.0)).recover_process(2, TimePoint(12.0));

  const auto workload = generate_workload(w, &plan);
  // Sends inside the outage are suppressed...
  for (const Heartbeat& h : workload) {
    if (h.process == 2) {
      const double sigma = h.arrival.seconds();
      EXPECT_FALSE(sigma > 6.0 && sigma < 12.0)
          << "heartbeat sent during downtime at " << sigma;
    }
  }

  FleetMonitor monitor(fleet_options(4, 2, params_w8()));
  monitor.ingest(workload);
  monitor.close(workload_horizon(w, params_w8()));
  const auto stream = monitor.drain_transitions();

  // ...so process 2 is suspected during the outage and re-trusted after
  // recovery, under its bumped incarnation.
  std::vector<Transition> p2;
  for (const Transition& t : stream) {
    if (t.process == 2) p2.push_back(t);
  }
  ASSERT_GE(p2.size(), 3u);
  EXPECT_EQ(p2[0].to, Verdict::kTrust);
  EXPECT_EQ(p2[1].to, Verdict::kSuspect);
  EXPECT_GT(p2[1].at.seconds(), 6.0);
  EXPECT_LT(p2[1].at.seconds(), 12.0);
  EXPECT_EQ(p2[2].to, Verdict::kTrust);
  EXPECT_GT(p2[2].at.seconds(), 12.0);
  EXPECT_EQ(monitor.incarnation(2), 1u);
  // The other processes never flapped: trust at start, suspect at stream
  // end, nothing in between.
  for (const ProcessIndex p : {0u, 1u, 3u}) {
    std::size_t count = 0;
    for (const Transition& t : stream) count += t.process == p ? 1 : 0;
    EXPECT_EQ(count, 2u) << "process " << p;
    EXPECT_EQ(monitor.incarnation(p), 0u);
  }
}

// ---- supervisor persistence --------------------------------------------

TEST(FleetPersist, ExportSummaryReflectsTheTable) {
  FleetMonitor monitor(fleet_options(10, 4));
  std::vector<Heartbeat> batch;
  for (ProcessIndex p = 0; p < 10; ++p) {
    batch.push_back(hb(p, 3, 1.0 + 0.01 * static_cast<double>(p), p == 0));
  }
  monitor.ingest(batch);
  const persist::FleetState state = monitor.export_summary();
  EXPECT_EQ(state.processes, 10u);
  ASSERT_EQ(state.shards.size(), 4u);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < state.shards.size(); ++i) {
    EXPECT_EQ(state.shards[i].shard, i);
    covered += state.shards[i].processes;
    EXPECT_EQ(state.shards[i].max_seq, 3u);
  }
  EXPECT_EQ(covered, 10u);
  EXPECT_EQ(state.shards[0].max_incarnation, 1u);  // process 0 bumped
  EXPECT_EQ(state.shards[3].max_incarnation, 0u);
}

TEST(FleetPersist, WarmRestoreResetsToAllSuspectSoftState) {
  FleetMonitor monitor(fleet_options(6, 2));
  std::vector<Heartbeat> batch;
  for (ProcessIndex p = 0; p < 6; ++p) {
    batch.push_back(hb(p, 1, 1.0 + 0.01 * static_cast<double>(p)));
  }
  monitor.ingest(batch);
  (void)monitor.drain_transitions();
  EXPECT_EQ(monitor.verdict(0), Verdict::kTrust);

  const persist::FleetState state = monitor.export_summary();
  monitor.restore_summary(state, /*warm=*/true);
  for (ProcessIndex p = 0; p < 6; ++p) {
    EXPECT_EQ(monitor.verdict(p), Verdict::kSuspect);
    EXPECT_EQ(monitor.window_count(p), 0u);
  }
  // Live processes re-trust on their first post-restore heartbeat.
  monitor.ingest(std::vector<Heartbeat>{hb(0, 2, 2.0)});
  EXPECT_EQ(monitor.verdict(0), Verdict::kTrust);
}

TEST(FleetPersist, WarmRestoreRejectsAMismatchedShape) {
  FleetMonitor monitor(fleet_options(6, 2));
  persist::FleetState wrong_processes = monitor.export_summary();
  wrong_processes.processes = 7;
  EXPECT_THROW(monitor.restore_summary(wrong_processes, true),
               std::invalid_argument);
  persist::FleetState wrong_shards = monitor.export_summary();
  wrong_shards.shards.pop_back();
  EXPECT_THROW(monitor.restore_summary(wrong_shards, true),
               std::invalid_argument);
  EXPECT_THROW(monitor.restore_summary(std::nullopt, true),
               std::invalid_argument);
}

TEST(FleetPersist, ColdRestoreNeedsNoState) {
  FleetMonitor monitor(fleet_options(3, 1));
  monitor.ingest(std::vector<Heartbeat>{hb(0, 1, 1.0)});
  monitor.restore_summary(std::nullopt, /*warm=*/false);
  EXPECT_EQ(monitor.verdict(0), Verdict::kSuspect);
  EXPECT_EQ(monitor.window_count(0), 0u);
}

// ---- report emitter -----------------------------------------------------

TEST(FleetReport, JsonSplitsPayloadFromMeasurements) {
  FleetRunResult r;
  r.processes = 500;
  r.heartbeats = 6000;
  r.ingested = 5990;
  r.dropped_stale = 4;
  r.dropped_pre_epoch = 3;
  r.dropped_duplicate = 3;
  r.transitions = 1100;
  r.suspects = 550;
  r.trusts = 550;
  r.stream_crc32 = 0x00c0ffee;
  r.shards = 4;
  r.heartbeats_per_sec = 1.5e6;
  r.bytes_per_process = 250.0;

  std::ostringstream payload;
  write_fleet_json(payload, {r}, /*include_measurements=*/false, false);
  EXPECT_NE(payload.str().find("\"stream_crc32\": \"00c0ffee\""),
            std::string::npos);
  EXPECT_EQ(payload.str().find("heartbeats_per_sec"), std::string::npos);
  EXPECT_EQ(payload.str().find("shards"), std::string::npos);

  std::ostringstream full;
  write_fleet_json(full, {r}, /*include_measurements=*/true, false);
  EXPECT_NE(full.str().find("heartbeats_per_sec"), std::string::npos);
  EXPECT_NE(full.str().find("\"shards\": 4"), std::string::npos);
  EXPECT_NE(full.str().find("\"fast_mode\": false"), std::string::npos);
}

// ---- global-id offset (realtime front-end partition) --------------------

TEST(FleetMonitor, FirstProcessOffsetKeepsGlobalIds) {
  // The realtime engine runs one single-shard monitor per partition slice;
  // first_process makes that monitor speak global process ids directly.
  FleetOptions fo = fleet_options(3, 1);
  fo.first_process = 100;
  FleetMonitor monitor(fo);

  monitor.ingest(std::vector<Heartbeat>{hb(100, 1, 1.0), hb(102, 1, 1.5)});
  EXPECT_EQ(monitor.verdict(100), Verdict::kTrust);
  EXPECT_EQ(monitor.verdict(101), Verdict::kSuspect);  // never heard from
  EXPECT_EQ(monitor.verdict(102), Verdict::kTrust);
  // Ids outside [first_process, first_process + processes) are rejected,
  // including the pre-offset range.
  EXPECT_THROW((void)monitor.verdict(99), std::invalid_argument);
  EXPECT_THROW((void)monitor.verdict(103), std::invalid_argument);
  EXPECT_THROW(monitor.ingest(std::vector<Heartbeat>{hb(0, 1, 2.0)}),
               std::invalid_argument);

  const auto stream = monitor.drain_transitions();
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].process, 100u);  // transitions carry global ids
  EXPECT_EQ(stream[1].process, 102u);

  // Overflow guard: first_process + processes must fit ProcessIndex.
  FleetOptions overflow = fleet_options(2, 1);
  overflow.first_process = 0xffffffffu;
  EXPECT_THROW(overflow.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace chenfd::fleet

// RealtimeEngine — the wall-clock ingestion front-end in front of
// fleet::FleetMonitor (DESIGN.md section 14).
//
// Topology: the fleet is block-partitioned into `shards` realtime shards
// (balanced like FleetMonitor's own partition).  Each shard owns a bounded
// lock-free MPSC queue (mpsc_queue.hpp), a single-shard FleetMonitor whose
// FleetOptions::first_process offset keeps transitions in global process
// ids, and a WatchdogPolicy.  Producers — transport callbacks, bench load
// generators, the replay harness — call offer() from any thread and NEVER
// block and NEVER take a lock: when a shard is overloaded the configured
// OverloadPolicy sheds (policies.hpp) and the shard's RiskLatch records
// that QoS was at risk.  Exactly one consumer at a time drains a given
// shard under its mutex; the per-shard mutex is a consumer/watchdog
// affair, invisible to producers.
//
// Counter identity, checked by tests after a quiescent final drain:
//
//   produced == accepted + shed_newest + shed_degraded + shed_oldest
//                         + shed_overflow
//
// where `accepted` counts heartbeats actually ingested into the monitor.
//
// The engine is *passive* plus an optional live mode: drain_shard(),
// advance(), poll_watchdog() and warm_restart_shard() are the replay
// harness's verbs (driven in deterministic virtual time); start()/stop()
// spin real consumer threads plus a watchdog thread over the same verbs
// for chenfd_rtd and the TSan tests.  Time only ever comes from the
// injected TimeSource.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fleet/fleet_monitor.hpp"
#include "fleet/types.hpp"
#include "persist/snapshot.hpp"
#include "service/realtime/mpsc_queue.hpp"
#include "service/realtime/policies.hpp"
#include "service/realtime/time_source.hpp"

namespace chenfd::rt {

struct RealtimeOptions {
  std::size_t processes = 0;
  std::size_t shards = 1;
  core::NfdEParams params;

  /// Logical admission bound per shard.  Part of the scenario: shedding
  /// decisions depend on it, so replay output may too (by design).
  std::size_t queue_capacity = 1024;
  /// Physical ring slots per shard; 0 derives 2 * queue_capacity.  NOT
  /// part of the scenario: replay output must be byte-identical across
  /// ring capacities (the replay determinism test varies it).
  std::size_t ring_capacity = 0;
  OverloadPolicy policy = OverloadPolicy::kDropNewest;
  /// degrade-eta starts thinning at occupancy >= watermark * capacity.
  double degrade_watermark = 0.75;
  /// Heartbeats ingested per monitor call while draining (batch size; not
  /// part of the scenario).
  std::size_t drain_chunk = 64;
  WatchdogConfig watchdog;

  void validate() const;
  [[nodiscard]] std::size_t effective_ring_capacity() const {
    return ring_capacity != 0 ? ring_capacity : 2 * queue_capacity;
  }
};

/// Per-shard (and, summed, per-engine) ingestion accounting.
struct ShardCounters {
  std::uint64_t produced = 0;       ///< offer() calls routed to this shard
  std::uint64_t accepted = 0;       ///< ingested into the FleetMonitor
  std::uint64_t shed_newest = 0;    ///< rejected at the producer (queue full)
  std::uint64_t shed_degraded = 0;  ///< thinned by degrade-eta
  std::uint64_t shed_oldest = 0;    ///< old backlog dropped at drain
  std::uint64_t shed_overflow = 0;  ///< physical ring full (memory backstop)
  std::uint64_t consumed = 0;       ///< popped off the queue
  std::uint64_t restarts = 0;       ///< watchdog warm restarts

  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_newest + shed_degraded + shed_oldest + shed_overflow;
  }
};

class RealtimeEngine {
 public:
  RealtimeEngine(RealtimeOptions opts, TimeSource& time);
  ~RealtimeEngine();

  RealtimeEngine(const RealtimeEngine&) = delete;
  RealtimeEngine& operator=(const RealtimeEngine&) = delete;

  // ---- producer path (any thread; never blocks, never locks) ------------

  /// Routes a pre-stamped heartbeat to its shard, applying the overload
  /// policy.  Returns false when the heartbeat was shed.
  bool offer(const fleet::Heartbeat& hb);

  /// Stamps arrival with the TimeSource and offers (live transport path).
  bool offer_now(fleet::ProcessIndex process, std::uint32_t incarnation,
                 net::SeqNo seq);

  // ---- consumer path (one drainer per shard at a time) ------------------

  /// Drains shard `shard`'s queue into its monitor: pops, monotonizes
  /// arrivals, applies consumer-side shedding (drop-oldest), ingests, and
  /// reports progress to the watchdog.  Returns the number ingested.
  std::size_t drain_shard(std::size_t shard, TimePoint now);

  /// Advances one shard's monitor (freshness expiries) to `to`.
  void advance_shard(std::size_t shard, TimePoint to);

  /// Advances every shard's monitor to `to`.
  void advance(TimePoint to);

  /// Exact end-of-run flush of every shard's monitor (FleetMonitor::close).
  void close(TimePoint horizon);

  /// Moves out all transitions emitted since the last call, merged across
  /// shards and stable-sorted by (time, process) — same total order as
  /// FleetMonitor::drain_transitions, so the stream is independent of how
  /// shards were drained or restarted in between.
  [[nodiscard]] std::vector<fleet::Transition> drain_transitions();

  // ---- watchdog ----------------------------------------------------------

  /// One watchdog tick for `shard`.  `consumer_alive` is false when the
  /// draining thread is known dead (live mode) or the scenario says the
  /// monitor is down (replay).  Latches kConsumerStall / kWatchdogRestart
  /// as appropriate.  kRestart means: call warm_restart_shard now.
  WatchdogAction poll_watchdog(std::size_t shard, TimePoint now,
                               bool consumer_alive);

  /// Warm restart of one shard's monitor: fires every freshness point up
  /// to `now` exactly (FleetMonitor::close), drains its pending transitions
  /// into the engine-side log (nothing already due is lost), exports
  /// its summary, rebuilds the monitor, and restores warm (all-suspect
  /// soft state; see FleetMonitor::restore_summary).  The shard's queue
  /// and counters survive — ingestion never stops.
  void warm_restart_shard(std::size_t shard, TimePoint now);

  // ---- live mode (chenfd_rtd, TSan tests) --------------------------------

  /// Spawns `consumers` consumer threads (shard s belongs to thread
  /// s % consumers) and one watchdog thread.  Threads pace themselves with
  /// TimeSource::sleep_for.
  void start(std::size_t consumers, Duration consumer_period,
             Duration watchdog_period);
  void stop();

  /// Test hook: while stalled, consumer thread `thread_index` stops
  /// draining its shards (it stays alive — models a stuck consumer).
  void stall_consumer(std::size_t thread_index, bool stalled);

  /// Test hook: consumer thread `thread_index` exits its loop (models a
  /// crashed consumer; the watchdog respawns it on the restart path).
  void kill_consumer(std::size_t thread_index);

  // ---- observability -----------------------------------------------------

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t processes() const { return opts_.processes; }
  [[nodiscard]] std::size_t shard_of(fleet::ProcessIndex id) const;
  [[nodiscard]] std::size_t pending(std::size_t shard) const;
  [[nodiscard]] ShardCounters counters(std::size_t shard) const;
  [[nodiscard]] ShardCounters totals() const;
  [[nodiscard]] RiskReason shard_risk(std::size_t shard) const;
  [[nodiscard]] RiskReason risk_reason() const { return risk_.reason(); }
  [[nodiscard]] bool qos_at_risk() const { return risk_.engaged(); }
  [[nodiscard]] Verdict verdict(fleet::ProcessIndex id) const;
  [[nodiscard]] std::size_t memory_bytes() const;

  // ---- supervisor persistence -------------------------------------------

  /// Per-shard summary in global shard ids (shape mirrors a single
  /// FleetMonitor with the same partition; snapshot-compatible).
  [[nodiscard]] persist::FleetState export_summary() const;
  void restore_summary(const std::optional<persist::FleetState>& state,
                       bool warm);

 private:
  struct Shard;

  /// Source instants are rebased to an engine-local epoch captured at
  /// construction before they reach the monitors: Eq. 6.3 running sums of
  /// wall-clock epoch seconds (~10^9) would keep only about microsecond
  /// precision.  VirtualTimeSource starts at zero, so the rebase is the
  /// identity for the replay harness — payloads are unaffected.
  /// Transitions are mapped back to source time on the way out.
  [[nodiscard]] TimePoint to_engine(TimePoint t) const {
    CHENFD_EXPECTS(t.seconds() >= base_s_,
                   "RealtimeEngine: time predates the engine epoch");
    return TimePoint(t.seconds() - base_s_);
  }

  void latch(Shard& shard, RiskReason reason);
  bool admit_bounded(Shard& shard, const fleet::Heartbeat& hb);
  std::size_t ingest_locked(Shard& shard, fleet::Heartbeat* batch,
                            std::size_t n);
  void consumer_loop(std::size_t thread_index);
  void watchdog_loop();
  void respawn_consumer(std::size_t thread_index);

  RealtimeOptions opts_;
  TimeSource& time_;
  double base_s_ = 0.0;           ///< engine epoch in source seconds
  std::size_t base_members_ = 0;  ///< processes / shards
  std::size_t big_shards_ = 0;    ///< shards holding base_members_ + 1
  std::vector<std::unique_ptr<Shard>> shards_;
  RiskLatch risk_;

  // Live mode.
  std::atomic<bool> running_{false};
  std::size_t consumer_count_ = 0;
  Duration consumer_period_ = Duration::zero();
  Duration watchdog_period_ = Duration::zero();
  std::mutex threads_mutex_;  ///< guards threads_ respawn bookkeeping
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<std::atomic<bool>>> thread_alive_;
  std::vector<std::unique_ptr<std::atomic<bool>>> thread_stalled_;
  std::vector<std::unique_ptr<std::atomic<bool>>> thread_killed_;
  std::thread watchdog_thread_;
};

}  // namespace chenfd::rt

// Standalone layer probes, run on a traced pass for every per-layer metric
// the workload does not measure from its own spans.  Each probe times calls
// into one layer's public functions in batches (4096 operations where the
// layer has a natural operation) and reports the median batch.

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/arena.hpp"
#include "core/fast_sim.hpp"
#include "core/sampler.hpp"
#include "fleet/fleet_monitor.hpp"
#include "fleet/timing_wheel.hpp"
#include "service/realtime/engine.hpp"
#include "service/realtime/mpsc_queue.hpp"
#include "workloads.hpp"

namespace chenfd::perf {

namespace {

constexpr std::size_t kBatch = 4096;

double ns_per(std::int64_t t0, std::size_t ops) {
  return static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
}

void sampler_probe(const ProbeSpec& spec, std::uint64_t seed, int batches,
                   std::vector<Row>& out) {
  const core::CompiledSampler sampler(*spec.delay);
  Rng rng(seed);
  std::vector<double> buf(kBatch);
  std::vector<double> per_draw;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    sampler.fill(rng, buf.data(), buf.size());
    per_draw.push_back(ns_per(t0, kBatch));
  }
  out.push_back({"core.sampler.fill_ns_per_draw", median(per_draw), "ns",
                 per_draw.size()});
}

void loss_probe(const ProbeSpec& spec, std::uint64_t seed, int batches,
                std::vector<Row>& out) {
  Rng rng(seed);
  core::LossSkipper skip(spec.loss, rng);
  std::vector<double> per_loss;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) skip.advance(rng);
    per_loss.push_back(ns_per(t0, kBatch));
  }
  if (skip.next_lost() == 0) std::abort();  // keeps the loop observable
  out.push_back({"core.loss_skipper.ns_per_loss", median(per_loss), "ns",
                 per_loss.size()});
}

void kernel_probe(const ProbeSpec& spec, std::uint64_t seed, bool smoke,
                  std::vector<Row>& out) {
  const core::CompiledSampler sampler(*spec.delay);
  MonotonicArena arena;
  core::StopCriteria stop;
  stop.target_s_transitions = std::size_t{1} << 30;
  stop.max_heartbeats = std::uint64_t{1} << (smoke ? 11 : 17);
  std::vector<double> ns[3];
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    for (std::size_t k = 0; k < 3; ++k) {
      Rng rng(draw(seed, rep, k, 31));
      arena.reset();
      const std::int64_t t0 = now_ns();
      const core::AccuracyResult r =
          k == 0   ? core::fast_nfd_s_accuracy(spec.nfd_s, spec.loss, sampler,
                                               rng, stop, &arena)
          : k == 1 ? core::fast_nfd_e_accuracy(spec.nfd_e, spec.loss, sampler,
                                               rng, stop, &arena)
                   : core::fast_sfd_accuracy(spec.sfd, spec.nfd_s.eta,
                                             spec.loss, sampler, rng, stop,
                                             &arena);
      ns[k].push_back(ns_per(t0, stop.max_heartbeats));
      if (r.heartbeats == 0) std::abort();  // keeps the run observable
    }
  }
  out.push_back({"core.fast_sim.nfd_s.ns_per_hb", median(ns[0]), "ns", 5});
  out.push_back({"core.fast_sim.nfd_e.ns_per_hb", median(ns[1]), "ns", 5});
  out.push_back({"core.fast_sim.sfd.ns_per_hb", median(ns[2]), "ns", 5});
}

/// A 10^4-process FleetMonitor fed 12 slots at 1% loss.
void fleet_probe(const ProbeSpec& spec, std::uint64_t seed, bool smoke,
                 std::vector<Row>& out) {
  const std::size_t processes = smoke ? 500 : 10'000;
  constexpr std::uint64_t kSlots = 12;
  std::vector<fleet::Heartbeat> stream;
  for (std::uint64_t s = 1; s <= kSlots; ++s) {
    for (std::size_t p = 0; p < processes; ++p) {
      if (unit(draw(seed, p, s, 41)) < spec.loss) continue;
      const double at = static_cast<double>(s - 1) +
                        0.1 * static_cast<double>(p) /
                            static_cast<double>(processes) +
                        0.05;
      stream.push_back(fleet::Heartbeat{static_cast<fleet::ProcessIndex>(p), 0,
                                        s, TimePoint(at)});
    }
  }
  fleet::FleetOptions fo;
  fo.processes = processes;
  fo.shards = 16;
  fo.params = core::NfdEParams{seconds(1.0), seconds(0.5), 16};
  std::vector<double> ctor_ms;
  std::vector<double> ingest_ns;
  std::vector<double> close_ms;
  std::vector<double> drain_ns;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t c0 = now_ns();
    fleet::FleetMonitor m(fo);
    ctor_ms.push_back(static_cast<double>(now_ns() - c0) * 1e-6);
    const std::int64_t i0 = now_ns();
    for (std::size_t i = 0; i < stream.size(); i += 8192) {
      m.ingest(std::span<const fleet::Heartbeat>(
          &stream[i], std::min<std::size_t>(8192, stream.size() - i)));
    }
    ingest_ns.push_back(ns_per(i0, stream.size()));
    const std::int64_t k0 = now_ns();
    m.close(TimePoint(static_cast<double>(kSlots) + 3.0));
    close_ms.push_back(static_cast<double>(now_ns() - k0) * 1e-6);
    const std::int64_t d0 = now_ns();
    const std::vector<fleet::Transition> ts = m.drain_transitions();
    drain_ns.push_back(ns_per(d0, std::max<std::size_t>(ts.size(), 1)));
  }
  out.push_back({"fleet.ctor_ms", median(ctor_ms), "ms", 5});
  out.push_back({"fleet.ingest_ns_per_hb", median(ingest_ns), "ns", 5});
  out.push_back({"fleet.close_ms", median(close_ms), "ms", 5});
  out.push_back({"fleet.drain_ns_per_transition", median(drain_ns), "ns", 5});
}

/// A standalone TimingWheel replaying fleet_1m's deadline pattern: eta = 8
/// ticks, each live timer re-armed every eta to fire 12 ticks (eta +
/// alpha) later; lost heartbeats skip a re-arm and 1% of the timers stop
/// for 3 eta every eta, so some deadlines fire.
void wheel_probe(const ProbeSpec& spec, std::uint64_t seed, bool smoke,
                 std::vector<Row>& out) {
  constexpr std::size_t kTimers = 8 * kBatch;
  constexpr fleet::TimingWheel::Tick kEtaTicks = 8;
  constexpr fleet::TimingWheel::Tick kTimeout = 12;
  const fleet::TimingWheel::Tick ticks = smoke ? 64 : 1024;
  fleet::TimingWheel wheel(kTimers);
  std::vector<fleet::TimingWheel::Tick> down_until(kTimers, 0);
  std::vector<double> schedule_ns;
  std::vector<double> cancel_ns;
  std::vector<double> advance_ns;
  std::vector<fleet::TimingWheel::TimerId> batch;
  std::uint64_t fired = 0;
  std::int64_t advance_eta_ns = 0;  // advance time summed over one eta
  for (fleet::TimingWheel::Tick t = 0; t < ticks; ++t) {
    if (t % kEtaTicks == 0) {
      for (std::size_t j = 0; j < kTimers / 100; ++j) {
        down_until[draw(seed, t, j, 51) % kTimers] = t + 3 * kEtaTicks;
      }
    }
    batch.clear();
    for (std::size_t id = t % kEtaTicks; id < kTimers; id += kEtaTicks) {
      if (down_until[id] > t) continue;
      if (unit(draw(seed, id, t, 52)) < spec.loss) continue;
      batch.push_back(static_cast<fleet::TimingWheel::TimerId>(id));
    }
    const std::int64_t c0 = now_ns();
    for (const auto id : batch) (void)wheel.cancel(id);
    cancel_ns.push_back(ns_per(c0, std::max<std::size_t>(batch.size(), 1)));
    const std::int64_t s0 = now_ns();
    for (const auto id : batch) wheel.schedule(id, wheel.now() + kTimeout);
    schedule_ns.push_back(ns_per(s0, std::max<std::size_t>(batch.size(), 1)));
    const std::int64_t a0 = now_ns();
    wheel.advance(wheel.now() + 1,
                  [&fired](fleet::TimingWheel::TimerId, fleet::TimingWheel::Tick) {
                    ++fired;
                  });
    advance_eta_ns += now_ns() - a0;
    if ((t + 1) % kEtaTicks == 0) {
      advance_ns.push_back(static_cast<double>(advance_eta_ns) /
                           static_cast<double>(kEtaTicks));
      advance_eta_ns = 0;
    }
  }
  out.push_back({"fleet.wheel.schedule_ns", median(schedule_ns), "ns", ticks});
  out.push_back({"fleet.wheel.cancel_ns", median(cancel_ns), "ns", ticks});
  out.push_back(
      {"fleet.wheel.advance_ns_per_tick", median(advance_ns), "ns", ticks});
  out.push_back({"fleet.wheel.fired", static_cast<double>(fired), "count"});
}

/// One producer thread and one consumer (this thread, pop_batch of 64).
void mpsc_probe(bool smoke, Report& report, std::vector<Row>& out) {
  const std::size_t items = (smoke ? 8 : 256) * kBatch;
  rt::MpscQueue<fleet::Heartbeat> queue(65536);
  std::vector<double> push_ns;
  std::thread producer([&queue, &push_ns, items] {
    for (std::size_t b = 0; b < items / kBatch; ++b) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kBatch; ++i) {
        const fleet::Heartbeat hb{0, 0, b * kBatch + i + 1, TimePoint(0.0)};
        while (!queue.try_push(hb)) std::this_thread::yield();
      }
      push_ns.push_back(ns_per(t0, kBatch));
    }
  });
  std::vector<double> pop_ns;
  fleet::Heartbeat buf[64];
  std::size_t popped = 0;
  std::uint64_t expect = 1;
  bool fifo = true;
  while (popped < items) {
    const std::int64_t t0 = now_ns();
    std::size_t got = 0;
    while (got < kBatch) {
      const std::size_t n =
          queue.pop_batch(buf, std::min<std::size_t>(64, kBatch - got));
      for (std::size_t i = 0; i < n; ++i) fifo = fifo && buf[i].seq == expect++;
      got += n;
    }
    pop_ns.push_back(ns_per(t0, got));
    popped += got;
  }
  producer.join();
  report.check("probe.mpsc_fifo", fifo,
               "consumer saw the producer's items in push order");
  out.push_back({"rt.mpsc.push_ns", median(push_ns), "ns", push_ns.size()});
  out.push_back({"rt.mpsc.pop_ns_per_item", median(pop_ns), "ns", pop_ns.size()});
}

/// A passive RealtimeEngine (no start(); virtual time) driven round by
/// round: offers timed in groups of 8, then drain_shard, advance_shard and
/// drain_transitions per round.
void engine_probe(const ProbeSpec& spec, std::uint64_t seed, bool smoke,
                  std::vector<Row>& out) {
  const std::size_t processes = smoke ? 500 : 10'000;
  const std::uint64_t rounds = smoke ? 8 : 40;
  constexpr std::size_t kShards = 4;
  constexpr double kEta = 0.1;
  rt::VirtualTimeSource time;
  rt::RealtimeOptions o;
  o.processes = processes;
  o.shards = kShards;
  o.params = core::NfdEParams{seconds(kEta), seconds(0.15), 16};
  o.queue_capacity = 65536;
  rt::RealtimeEngine engine(o, time);
  std::vector<double> offer_ns;
  std::vector<double> drain_ns;
  std::vector<double> advance_us;
  std::vector<double> transitions_us;
  std::vector<fleet::Heartbeat> round;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    round.clear();
    for (std::size_t p = 0; p < processes; ++p) {
      if (unit(draw(seed, p, r, 61)) < spec.loss) continue;
      round.push_back(fleet::Heartbeat{
          static_cast<fleet::ProcessIndex>(p), 0, r + 1,
          TimePoint((static_cast<double>(r) +
                     static_cast<double>(p) / static_cast<double>(processes)) *
                    kEta)});
    }
    for (std::size_t i = 0; i + 8 <= round.size(); i += 8) {
      const std::int64_t t0 = now_ns();
      for (std::size_t j = i; j < i + 8; ++j) (void)engine.offer(round[j]);
      offer_ns.push_back(static_cast<double>(now_ns() - t0) / 8.0);
    }
    for (std::size_t j = round.size() - round.size() % 8; j < round.size(); ++j) {
      (void)engine.offer(round[j]);
    }
    const TimePoint now(static_cast<double>(r + 1) * kEta);
    time.advance(now);
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::int64_t d0 = now_ns();
      const std::size_t n = engine.drain_shard(s, now);
      drain_ns.push_back(ns_per(d0, std::max<std::size_t>(n, 1)));
    }
    const std::int64_t a0 = now_ns();
    for (std::size_t s = 0; s < kShards; ++s) engine.advance_shard(s, now);
    advance_us.push_back(ns_per(a0, kShards) * 1e-3);
    const std::int64_t q0 = now_ns();
    (void)engine.drain_transitions();
    transitions_us.push_back(static_cast<double>(now_ns() - q0) * 1e-3);
  }
  out.push_back({"rt.offer_ns_p50", quantile(offer_ns, 0.5), "ns", offer_ns.size()});
  out.push_back({"rt.offer_ns_p99", quantile(offer_ns, 0.99), "ns", offer_ns.size()});
  out.push_back({"rt.drain_shard_ns_per_hb", median(drain_ns), "ns", drain_ns.size()});
  out.push_back({"rt.advance_shard_us", median(advance_us), "us", advance_us.size()});
  out.push_back({"rt.drain_transitions_us", median(transitions_us), "us",
                 transitions_us.size()});

  persist_rows(engine, out);
}

}  // namespace

std::vector<Row> run_probes(const ProbeSpec& spec, const Options& opts,
                            const std::vector<Row>& have, Report& report) {
  std::vector<Row> all;
  const int batches = opts.smoke ? 16 : 256;
  sampler_probe(spec, draw(opts.seed, 0, 0, 70), batches, all);
  loss_probe(spec, draw(opts.seed, 0, 0, 71), batches, all);
  kernel_probe(spec, opts.seed, opts.smoke, all);
  fleet_probe(spec, opts.seed, opts.smoke, all);
  wheel_probe(spec, opts.seed, opts.smoke, all);
  mpsc_probe(opts.smoke, report, all);
  engine_probe(spec, opts.seed, opts.smoke, all);
  std::vector<Row> out;
  for (Row& r : all) {
    const bool measured = std::any_of(have.begin(), have.end(), [&r](const Row& h) {
      return h.name == r.name;
    });
    if (!measured) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace chenfd::perf

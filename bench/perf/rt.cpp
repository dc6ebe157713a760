// rt_steady and rt_heavy: the live RealtimeEngine
// (src/service/realtime/) driven by an open-loop heartbeat generator on the
// benchmark's main thread.
//
// Traffic: every process heartbeats once per eta = 100 ms, processes
// spread evenly over the period in a seeded order; 1% of heartbeats are
// lost; at the start of every period 0.1% of the processes crash for 3
// eta and come back with incarnation + 1.  A heartbeat's arrival stamp is
// the instant it was due, so a late generator shows up as delay.  The
// generator polls drain_transitions() every 0.25 ms; a transition is
// observed when that call returns.
//
//   detection delay = observed - at of a Suspect (at is the exact
//                     freshness point tau, Theorem 5.1's reference point)
//   trust delay     = observed - at of a Trust (at is the arrival stamp)
//
// rt_steady: 10^5 processes (1 M hb/s), 4 shards, one consumer thread.
// rt_heavy: 2 * 10^5 processes (2 M hb/s), 4 shards, two consumer
// threads: the same traffic at twice the rate, below the knee.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "dist/exponential.hpp"
#include "service/realtime/engine.hpp"
#include "workloads.hpp"

namespace chenfd::perf {

namespace {

/// TimeSource on steady_clock, in seconds since construction: within a
/// run, doubles near 10 s resolve ~2e-15 s.
class BenchClock final : public rt::TimeSource {
 public:
  BenchClock() : origin_ns_(now_ns()) {}
  [[nodiscard]] TimePoint now() const override {
    return TimePoint(static_cast<double>(now_ns() - origin_ns_) * 1e-9);
  }
  void sleep_for(Duration d) const override {
    if (d <= Duration::zero()) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(d.seconds()));
  }
  [[nodiscard]] TimePoint local(TimePoint real) const override { return real; }
  [[nodiscard]] TimePoint real(TimePoint local_time) const override {
    return local_time;
  }

 private:
  std::int64_t origin_ns_;
};

constexpr double kEta = 0.1;
constexpr double kAlpha = 0.15;
constexpr std::size_t kWindow = 16;
constexpr double kLoss = 0.01;
constexpr std::uint64_t kDownRounds = 3;
constexpr std::size_t kShards = 4;
constexpr std::size_t kQueueCapacity = 65536;
constexpr double kPollPeriod = 0.25e-3;
constexpr int kOfferSampleEvery = 64;

enum Purpose : std::uint64_t { kLost = 11, kCrashPick = 12, kOrder = 13 };

struct LoadShape {
  std::size_t processes = 100'000;
  std::size_t consumers = 1;
  double warm_s = 1.0;
  double measure_s = 8.0;
};

rt::RealtimeOptions engine_options(std::size_t processes) {
  rt::RealtimeOptions o;
  o.processes = processes;
  o.shards = kShards;
  o.params = core::NfdEParams{seconds(kEta), seconds(kAlpha), kWindow};
  o.queue_capacity = kQueueCapacity;
  o.policy = rt::OverloadPolicy::kDropNewest;
  return o;
}

struct CrashRecord {
  fleet::ProcessIndex process = 0;
  bool in_window = false;
  double recovery_arrival = -1.0;
};

/// Generates the seeded heartbeat schedule: round r, position i is process
/// order(i), due at t0 + (r + i / P) * eta with sequence number r + 1.
class Generator {
 public:
  Generator(std::size_t processes, std::uint64_t seed)
      : p_(processes),
        seed_(seed),
        incarnation_(processes, 0),
        down_until_(processes, 0),
        eligible_(processes, 0),
        open_(processes, -1) {
    // order(i) = (a * i + b) mod P with gcd(a, P) = 1: a seeded
    // permutation, so consecutive sends spread over every shard.
    a_ = 1 + draw(seed, 0, 0, kOrder) % (p_ - 1 == 0 ? 1 : p_ - 1);
    while (std::gcd(a_, static_cast<std::uint64_t>(p_)) != 1) ++a_;
    b_ = draw(seed, 1, 0, kOrder) % p_;
  }

  [[nodiscard]] std::size_t processes() const { return p_; }
  [[nodiscard]] fleet::ProcessIndex order(std::size_t i) const {
    return static_cast<fleet::ProcessIndex>((a_ * i + b_) % p_);
  }

  /// Crashes about `count` up processes at the start of round `r`.
  void crash_round(std::uint64_t r, std::size_t count, bool in_window) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t p = draw(seed_, r, j, kCrashPick) % p_;
      if (down_until_[p] != 0 || open_[p] >= 0 || r < eligible_[p]) continue;
      down_until_[p] = r + kDownRounds;
      eligible_[p] = r + kDownRounds + 2;
      open_[p] = static_cast<std::int64_t>(crashes_.size());
      crashes_.push_back(
          CrashRecord{static_cast<fleet::ProcessIndex>(p), in_window, -1.0});
    }
  }

  /// The heartbeat of process `p` in round `r`, due at `due`; false when p
  /// is down or the heartbeat is lost.
  bool make(fleet::ProcessIndex p, std::uint64_t r, double due,
            fleet::Heartbeat& hb) {
    if (down_until_[p] != 0) {
      if (r < down_until_[p]) return false;
      ++incarnation_[p];  // recovered: a new incarnation, lost or not
      down_until_[p] = 0;
    }
    const std::uint64_t seq = r + 1;
    if (unit(draw(seed_, p, seq, kLost)) < kLoss) return false;
    if (open_[p] >= 0) {
      crashes_[static_cast<std::size_t>(open_[p])].recovery_arrival = due;
      open_[p] = -1;
    }
    hb = fleet::Heartbeat{p, incarnation_[p], seq, TimePoint(due)};
    return true;
  }

  [[nodiscard]] const std::vector<CrashRecord>& crashes() const {
    return crashes_;
  }

 private:
  std::size_t p_;
  std::uint64_t seed_;
  std::uint64_t a_ = 1;
  std::uint64_t b_ = 0;
  std::vector<std::uint32_t> incarnation_;
  std::vector<std::uint64_t> down_until_;  ///< 0: up
  std::vector<std::uint64_t> eligible_;    ///< first round it may crash again
  std::vector<std::int64_t> open_;         ///< crash awaiting recovery, or -1
  std::vector<CrashRecord> crashes_;
};

struct LiveResult {
  double window_s = 0.0;
  std::uint64_t window_accepted = 0;
  std::vector<double> detect_ms;
  std::vector<double> trust_ms;
  std::vector<double> offer_ns;
  std::vector<double> lateness_us;
  std::vector<double> poll_us;
  std::vector<double> backlog;
  std::uint64_t polls = 0;
  std::uint64_t polled_transitions = 0;
  rt::ShardCounters totals;
  bool identity = false;
  std::size_t crashes_checked = 0;
  std::size_t crashes_bad = 0;
  std::uint64_t mistakes = 0;  ///< Suspects of processes that did not crash
  double peak_mb = 0.0;         ///< peak_rss_mb, read after the final drain
  std::vector<Row> persist;    ///< persist.* rows (traced runs)

  [[nodiscard]] bool crashes_ok() const {
    return crashes_bad == 0 && crashes_checked > 0;
  }
};

/// One live run: construct and start the engine, generate warm-up,
/// measured and tail rounds, stop, drain, check.
LiveResult run_live(const LoadShape& shape, std::uint64_t seed,
                    Trace& trace) {
  BenchClock clock;
  LiveResult res;
  rt::RealtimeEngine engine(engine_options(shape.processes), clock);
  Generator gen(shape.processes, seed);
  const std::size_t crash_count = std::max<std::size_t>(1, shape.processes / 1000);

  const auto warm_rounds =
      static_cast<std::uint64_t>(std::ceil(shape.warm_s / kEta));
  const auto window_rounds =
      static_cast<std::uint64_t>(std::ceil(shape.measure_s / kEta));
  const std::uint64_t tail_rounds =
      kDownRounds + 2 + static_cast<std::uint64_t>(std::ceil(kAlpha / kEta));
  const std::uint64_t end_round = warm_rounds + window_rounds + tail_rounds;
  // The large sample vectors are sized up front: growing them mid-run
  // would move the peak resident set with the moment they happen to grow.
  const std::size_t max_offers =
      shape.processes * end_round / kOfferSampleEvery + 1;
  const auto max_polls = static_cast<std::size_t>(
      static_cast<double>(end_round) * kEta / kPollPeriod + 2.0);
  res.offer_ns.reserve(max_offers);
  res.lateness_us.reserve(max_offers);
  res.poll_us.reserve(max_polls);
  res.backlog.reserve(max_polls);

  engine.start(shape.consumers, seconds(1e-3), seconds(0.05));
  const double t0 = clock.now().seconds() + 0.005;
  const double win_begin = t0 + static_cast<double>(warm_rounds) * kEta;
  const double win_end =
      win_begin + static_cast<double>(window_rounds) * kEta;
  const double p_inv = 1.0 / static_cast<double>(shape.processes);

  std::vector<fleet::Transition> all;
  all.reserve(shape.processes * 2);
  std::uint64_t round = 0;
  std::size_t pos = 0;
  std::uint64_t emitted = 0;
  bool window_open = false;
  std::uint64_t accepted_at_begin = 0;
  double next_poll = t0;

  const auto poll = [&](double now) {
    std::vector<fleet::Transition> ts;
    {
      const ScopedSpan span(trace, "rt.drain_transitions");
      const std::int64_t q0 = now_ns();
      ts = engine.drain_transitions();
      res.poll_us.push_back(static_cast<double>(now_ns() - q0) * 1e-3);
    }
    const double observed = clock.now().seconds();
    ++res.polls;
    res.polled_transitions += ts.size();
    for (const fleet::Transition& t : ts) {
      const double at = t.at.seconds();
      if (at >= win_begin && at < win_end) {
        const double ms = (observed - at) * 1e3;
        (t.to == Verdict::kSuspect ? res.detect_ms : res.trust_ms).push_back(ms);
      }
    }
    all.insert(all.end(), ts.begin(), ts.end());
    if (now >= win_begin && now < win_end) {
      std::size_t pending = 0;
      for (std::size_t s = 0; s < kShards; ++s) pending += engine.pending(s);
      res.backlog.push_back(static_cast<double>(pending));
    }
    next_poll = std::max(next_poll + kPollPeriod, now);
  };

  while (round < end_round) {
    const double now = clock.now().seconds();
    if (!window_open && now >= win_begin) {
      window_open = true;
      accepted_at_begin = engine.totals().accepted;
    }
    if (window_open && res.window_s == 0.0 && now >= win_end) {
      res.window_accepted = engine.totals().accepted - accepted_at_begin;
      res.window_s = now - win_begin;
    }
    // Emit every heartbeat that is due.
    for (;;) {
      const double due =
          t0 + (static_cast<double>(round) + static_cast<double>(pos) * p_inv) *
                   kEta;
      if (due > now || round >= end_round) break;
      if (pos == 0 && round >= warm_rounds &&
          round < warm_rounds + window_rounds) {
        gen.crash_round(round, crash_count, true);
      }
      fleet::Heartbeat hb;
      if (gen.make(gen.order(pos), round, due, hb)) {
        if (++emitted % kOfferSampleEvery == 0) {
          res.lateness_us.push_back((clock.now().seconds() - due) * 1e6);
          const ScopedSpan span(
              trace, "rt.offer",
              (std::uint64_t{hb.process} << 32) | (hb.seq & 0xFFFFFFFFu));
          const std::int64_t s0 = now_ns();
          (void)engine.offer(hb);
          res.offer_ns.push_back(static_cast<double>(now_ns() - s0));
        } else {
          (void)engine.offer(hb);
        }
      }
      if (++pos == shape.processes) {
        pos = 0;
        ++round;
      }
    }
    if (now >= next_poll) poll(now);
  }

  engine.stop();
  const TimePoint end = clock.now();
  for (std::size_t s = 0; s < kShards; ++s) (void)engine.drain_shard(s, end);
  engine.advance(end);
  {
    std::vector<fleet::Transition> ts = engine.drain_transitions();
    all.insert(all.end(), ts.begin(), ts.end());
  }
  res.peak_mb = peak_rss_mb();
  res.totals = engine.totals();
  res.identity =
      res.totals.produced == res.totals.accepted + res.totals.shed_total();

  // Crash oracle: the last transition before the first post-recovery
  // arrival is a Suspect, and the first one at or after it is a Trust.
  std::stable_sort(all.begin(), all.end(),
                   [](const fleet::Transition& a, const fleet::Transition& b) {
                     return a.process < b.process;
                   });
  std::vector<std::uint8_t> crashed(shape.processes, 0);
  for (const CrashRecord& c : gen.crashes()) crashed[c.process] = 1;
  for (const fleet::Transition& t : all) {
    if (t.to == Verdict::kSuspect && crashed[t.process] == 0 &&
        t.at.seconds() >= win_begin && t.at.seconds() < win_end) {
      ++res.mistakes;
    }
  }
  for (const CrashRecord& c : gen.crashes()) {
    if (!c.in_window || c.recovery_arrival < 0.0) continue;
    ++res.crashes_checked;
    const auto lo = std::lower_bound(
        all.begin(), all.end(), c.process,
        [](const fleet::Transition& t, fleet::ProcessIndex p) {
          return t.process < p;
        });
    const fleet::Transition* before = nullptr;
    const fleet::Transition* after = nullptr;
    for (auto it = lo; it != all.end() && it->process == c.process; ++it) {
      if (it->at.seconds() < c.recovery_arrival) {
        before = &*it;
      } else if (after == nullptr) {
        after = &*it;
      }
    }
    // No transition before the recovery means p was never trusted: it
    // stayed suspected from the start, which is still a Suspect.
    if ((before != nullptr && before->to != Verdict::kSuspect) ||
        after == nullptr || after->to != Verdict::kTrust) {
      ++res.crashes_bad;
    }
  }

  if (trace.enabled()) persist_rows(engine, res.persist);
  return res;
}

/// Harness cost per heartbeat: the generator's schedule, loss and crash
/// logic with the engine replaced by a sink.
double generator_ns_per_hb(std::size_t processes, std::uint64_t seed) {
  Generator gen(processes, seed);
  std::uint64_t sink = 0;
  const std::uint64_t rounds = std::max<std::uint64_t>(
      1, 2'000'000 / std::max<std::size_t>(processes, 1));
  const std::int64_t g0 = now_ns();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    gen.crash_round(r, processes / 1000, false);
    for (std::size_t i = 0; i < processes; ++i) {
      fleet::Heartbeat hb;
      const double due = (static_cast<double>(r) +
                          static_cast<double>(i) /
                              static_cast<double>(processes)) *
                         kEta;
      if (gen.make(gen.order(i), r, due, hb)) sink += hb.seq;
    }
  }
  const double ns = static_cast<double>(now_ns() - g0);
  if (sink == 0) return 0.0;  // keeps the loop observable
  return ns / static_cast<double>(rounds * processes);
}

void check_live(Report& report, const std::string& prefix,
                const LiveResult& r) {
  std::ostringstream id;
  id << "produced " << r.totals.produced << " = accepted "
     << r.totals.accepted << " + shed " << r.totals.shed_total();
  report.check(prefix + ".counter_identity", r.identity, id.str());
  std::ostringstream cr;
  cr << r.crashes_checked << " crashes checked, " << r.crashes_bad
     << " without Suspect then Trust";
  report.check(prefix + ".crash_suspect_then_trust", r.crashes_ok(), cr.str());
}

class RtWorkload final : public Workload {
 public:
  RtWorkload(const Options& opts, bool heavy)
      : opts_(opts),
        name_(heavy ? "rt_heavy" : "rt_steady"),
        processes_((heavy ? 2 : 1) * (opts.smoke ? 2'000 : 100'000)) {
    // Generator + watchdog + consumers stay within nproc.
    const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
    consumers_ = heavy && nproc >= 4 ? 2 : 1;
  }

  void prepare() override {}

  PassOut pass(double budget_s, Trace& trace, Report& report) override {
    LoadShape shape;
    shape.processes = processes_;
    shape.consumers = consumers_;
    shape.warm_s = opts_.smoke ? 0.2 : std::min(1.0, 0.15 * budget_s);
    shape.measure_s = std::max(0.3, budget_s - shape.warm_s - 0.8);
    const std::vector<double> setup_s = time_setups();
    const LiveResult r = run_live(shape, opts_.seed, trace);
    check_live(report, name_, r);
    report.check(name_ + ".no_shed", r.totals.shed_total() == 0,
                 std::to_string(r.totals.shed_total()) + " heartbeats shed");
    report.count_ops(r.totals.produced, r.totals.shed_total());

    PassOut out;
    const auto nd = static_cast<std::uint64_t>(r.detect_ms.size());
    const auto nt = static_cast<std::uint64_t>(r.trust_ms.size());
    out.e2e.push_back({"hb_per_s",
                       static_cast<double>(r.window_accepted) / r.window_s,
                       "hb/s"});
    out.e2e.push_back({"delay_p50_ms", quantile(r.detect_ms, 0.5), "ms", nd});
    out.e2e.push_back({"delay_p90_ms", quantile(r.detect_ms, 0.9), "ms", nd});
    out.e2e.push_back({"delay_p99_ms", quantile(r.detect_ms, 0.99), "ms", nd});
    out.e2e.push_back({"setup_s", median(setup_s), "s",
                       static_cast<std::uint64_t>(setup_s.size())});
    out.e2e.push_back({"peak_rss_mb", r.peak_mb, "MB"});
    out.e2e.push_back(
        {"trust_delay_p50_ms", quantile(r.trust_ms, 0.5), "ms", nt});
    out.e2e.push_back(
        {"trust_delay_p99_ms", quantile(r.trust_ms, 0.99), "ms", nt});
    out.e2e.push_back({"fail_frac",
                       static_cast<double>(r.totals.shed_total()) /
                           static_cast<double>(r.totals.produced),
                       "ratio"});
    if (trace.enabled()) live_layers(out, r);
    return out;
  }

  [[nodiscard]] ProbeSpec probe_spec() const override {
    ProbeSpec spec;
    spec.delay = std::make_unique<dist::Exponential>(0.02);
    spec.loss = kLoss;
    return spec;
  }

 private:
  /// Set-up: construct the engine (queues, per-shard monitors) and start
  /// its consumer and watchdog threads.  The first few are not timed: the
  /// consumer threads' allocations interleave with the engine's, and the
  /// heap takes a few engines to settle into a layout that later ones
  /// reuse without page faults.  stop() is not timed: it waits for the
  /// watchdog's current sleep of up to 50 ms to end.
  [[nodiscard]] std::vector<double> time_setups() const {
    constexpr int kUntimed = 4;
    constexpr int kTimed = 15;
    std::vector<double> out;
    out.reserve(kTimed);  // no allocation here while engine threads run
    BenchClock clock;
    for (int i = 0; i < kUntimed + kTimed; ++i) {
      const std::int64_t t0 = now_ns();
      rt::RealtimeEngine engine(engine_options(processes_), clock);
      engine.start(consumers_, seconds(1e-3), seconds(0.05));
      const double elapsed_s = seconds_since(t0);
      if (i >= kUntimed) out.push_back(elapsed_s);
      engine.stop();
    }
    return out;
  }

  void live_layers(PassOut& out, const LiveResult& r) const {
    const auto n_off = static_cast<std::uint64_t>(r.offer_ns.size());
    out.layer.push_back({"rt.offer_ns_p50", quantile(r.offer_ns, 0.5), "ns", n_off});
    out.layer.push_back({"rt.offer_ns_p99", quantile(r.offer_ns, 0.99), "ns", n_off});
    out.layer.push_back({"rt.drain_transitions_us", median(r.poll_us), "us",
                         r.polls});
    out.layer.push_back({"rt.transitions_per_poll",
                         static_cast<double>(r.polled_transitions) /
                             static_cast<double>(std::max<std::uint64_t>(r.polls, 1)),
                         "count", r.polls});
    const auto n_b = static_cast<std::uint64_t>(r.backlog.size());
    out.layer.push_back({"rt.backlog_p99", quantile(r.backlog, 0.99), "count", n_b});
    out.layer.push_back({"rt.backlog_max",
                         r.backlog.empty() ? 0.0
                                           : *std::max_element(r.backlog.begin(),
                                                               r.backlog.end()),
                         "count", n_b});
    out.layer.push_back({"rt.shed_newest",
                         static_cast<double>(r.totals.shed_newest), "count"});
    out.layer.push_back(
        {"rt.restarts", static_cast<double>(r.totals.restarts), "count"});
    out.layer.push_back({"rt.mistakes", static_cast<double>(r.mistakes), "count"});
    out.layer.push_back({"gen.lateness_p99_us", quantile(r.lateness_us, 0.99),
                         "us", static_cast<std::uint64_t>(r.lateness_us.size())});
    out.layer.push_back({"gen.self_ns_per_hb",
                         generator_ns_per_hb(processes_, opts_.seed), "ns"});
    out.layer.insert(out.layer.end(), r.persist.begin(), r.persist.end());
  }

  Options opts_;
  std::string name_;
  std::size_t processes_;
  std::size_t consumers_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_rt(const Options& opts, bool heavy) {
  return std::make_unique<RtWorkload>(opts, heavy);
}

}  // namespace chenfd::perf

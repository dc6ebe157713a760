// Realtime front-end throughput and overload study (EXPERIMENTS.md E19).
//
// Two halves:
//
//   1. Wall-clock ingestion: the live RealtimeEngine (MonotonicClock, real
//      consumer threads) hammered by multi-threaded producers, per shard
//      count.  Reports sustained ingested heartbeats/sec, the raw offered
//      rate, and the p99 producer-side offer() latency (sampled every 64th
//      call).  This half is machine-dependent by nature — CI's perf gate
//      checks the JSON's *shape* and internal consistency, not absolute
//      rates.
//
//   2. Deterministic 2x overload: a virtual-time replay of one shard fed
//      exactly twice what its consumer drains per tick, so drop-newest must
//      shed ~half of every interval's arrivals, latch qos_at_risk with
//      reason "overload", and keep the counter identity.  Byte-determinism
//      is re-checked here across two knob settings; the payload CRC lands
//      in the JSON so a CI log diff can spot a drifting replay instantly.
//
// Writes BENCH_rt.json for tools/perf_gate.py --check-rt.  Honors
// CHENFD_BENCH_FAST=1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/realtime/engine.hpp"
#include "service/realtime/monotonic_clock.hpp"
#include "service/realtime/replay.hpp"

namespace {

using namespace chenfd;

struct ConfigResult {
  std::size_t shards = 0;
  std::uint64_t produced = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  bool identity = false;
  double offered_hb_per_sec = 0.0;
  double sustained_hb_per_sec = 0.0;
  double p99_ingest_latency_us = 0.0;
};

ConfigResult run_config(std::size_t shards, std::uint64_t rounds_per_producer) {
  rt::MonotonicClock wall;

  rt::RealtimeOptions opts;
  opts.processes = 64 * shards;
  opts.shards = shards;
  opts.params.eta = seconds(0.01);
  opts.params.alpha = seconds(0.02);
  opts.queue_capacity = 4096;
  opts.policy = rt::OverloadPolicy::kDropNewest;
  opts.validate();

  // Oversubscribed threads would measure the scheduler, not the engine.
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  rt::RealtimeEngine engine(opts, wall);
  engine.start(std::min<std::size_t>({shards, 4, nproc}), seconds(0.0005),
               seconds(0.05));

  const std::size_t producer_count = std::min<std::size_t>(4, nproc);
  std::vector<std::vector<double>> latencies_us(producer_count);
  std::vector<std::thread> producers;
  producers.reserve(producer_count);

  // detlint: allow(R1) measuring wall-clock throughput is this bench's job
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < producer_count; ++t) {
    producers.emplace_back([&, t] {
      const std::size_t lo = opts.processes * t / producer_count;
      const std::size_t hi = opts.processes * (t + 1) / producer_count;
      std::vector<double>& lat = latencies_us[t];
      lat.reserve(rounds_per_producer * (hi - lo) / 64 + 1);
      std::uint64_t calls = 0;
      for (std::uint64_t round = 1; round <= rounds_per_producer; ++round) {
        for (std::size_t p = lo; p < hi; ++p) {
          if (++calls % 64 == 0) {
            // detlint: allow(R1) p99 offer latency is this bench's metric
            const auto s0 = std::chrono::steady_clock::now();
            (void)engine.offer_now(static_cast<fleet::ProcessIndex>(p), 0,
                                   round);
            // detlint: allow(R1) p99 offer latency is this bench's metric
            const auto s1 = std::chrono::steady_clock::now();
            lat.push_back(
                std::chrono::duration<double, std::micro>(s1 - s0).count());
          } else {
            (void)engine.offer_now(static_cast<fleet::ProcessIndex>(p), 0,
                                   round);
          }
        }
      }
    });
  }
  for (std::thread& th : producers) th.join();
  // detlint: allow(R1) measuring wall-clock throughput is this bench's job
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  // The sustained rate counts what was ingested by t1; the final drain
  // below happens after the clock stopped.
  const std::uint64_t accepted_at_t1 = engine.totals().accepted;

  engine.stop();
  const TimePoint end = wall.now();
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    (void)engine.drain_shard(s, end);
  }

  std::vector<double> all;
  for (const auto& v : latencies_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const double p99 =
      all.empty() ? 0.0 : all[static_cast<std::size_t>(
                              static_cast<double>(all.size() - 1) * 0.99)];

  const rt::ShardCounters totals = engine.totals();
  ConfigResult r;
  r.shards = shards;
  r.produced = totals.produced;
  r.accepted = totals.accepted;
  r.shed = totals.shed_total();
  r.identity = totals.produced == totals.accepted + totals.shed_total();
  r.offered_hb_per_sec = static_cast<double>(totals.produced) / elapsed_s;
  r.sustained_hb_per_sec = static_cast<double>(accepted_at_t1) / elapsed_s;
  r.p99_ingest_latency_us = p99;
  return r;
}

/// One shard fed 2x what its consumer drains per tick: 32 processes at
/// 4 hb/s each = 128 per 1s consumer interval against queue capacity 64.
rt::ReplayScenario overload_2x_scenario() {
  rt::ReplayScenario s;
  s.name = "bench-overload-2x";
  s.engine.processes = 32;
  s.engine.shards = 1;
  s.engine.params.eta = seconds(0.25);
  s.engine.params.alpha = seconds(0.5);
  s.engine.queue_capacity = 64;
  s.engine.policy = rt::OverloadPolicy::kDropNewest;
  s.send_interval = seconds(0.25);
  s.horizon = TimePoint(50.0);
  s.consumer_period = seconds(1.0);
  s.watchdog_period = seconds(5.0);
  s.expect_reason = rt::RiskReason::kOverload;
  s.expect_shed = true;
  return s;
}

}  // namespace

int main() {
  const bool fast = bench::fast_mode();
  const std::uint64_t rounds = fast ? 100 : 1500;
  const std::vector<std::size_t> shard_counts = fast ? std::vector<std::size_t>{1, 4}
                                                     : std::vector<std::size_t>{1, 4, 8};

  bench::print_header(
      "Realtime ingestion throughput",
      "Live engine, MonotonicClock, min(4, nproc) producer threads, "
      "drop-newest, queue capacity 4096/shard;\np99 offer latency sampled "
      "every 64th call.  Overload half: deterministic 2x replay.");

  std::vector<ConfigResult> configs;
  for (const std::size_t s : shard_counts) {
    configs.push_back(run_config(s, rounds));
  }

  bench::Table table({"shards", "offered/s", "sustained/s", "shed frac",
                      "p99 offer us", "identity"});
  for (const auto& c : configs) {
    table.add_row({std::to_string(c.shards),
                   bench::Table::sci(c.offered_hb_per_sec),
                   bench::Table::sci(c.sustained_hb_per_sec),
                   bench::Table::num(static_cast<double>(c.shed) /
                                     static_cast<double>(c.produced)),
                   bench::Table::num(c.p99_ingest_latency_us),
                   c.identity ? "ok" : "VIOLATED"});
  }
  table.print();

  // Deterministic overload half.  Two knob settings must agree byte-for-
  // byte; the scenario's arithmetic pins shed_fraction near 0.5.
  const rt::ReplayScenario scenario = overload_2x_scenario();
  const rt::ReplayResult a = rt::run_replay(scenario, {1, 0, 64});
  const rt::ReplayResult b = rt::run_replay(scenario, {1, 256, 7});
  if (a.payload != b.payload) {
    std::cerr << "FAIL: overload replay is knob-dependent\n";
    return 1;
  }
  const double shed_fraction = static_cast<double>(a.totals.shed_total()) /
                               static_cast<double>(a.totals.produced);
  const bool overload_identity =
      a.totals.produced == a.totals.accepted + a.totals.shed_total();
  std::ostringstream crc_hex;
  crc_hex << std::hex << std::setw(8) << std::setfill('0') << a.crc;

  std::cout << "\n2x overload replay: produced " << a.totals.produced
            << ", shed " << a.totals.shed_total() << " (fraction "
            << shed_fraction << "), risk " << rt::name(a.reason) << ", crc "
            << crc_hex.str() << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"rt\",\n"
       << "  \"fast_mode\": " << (fast ? "true" : "false") << ",\n"
       << "  \"configs\": [\n";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& c = configs[i];
    json << "    {\"shards\": " << c.shards << ", \"produced\": " << c.produced
         << ", \"accepted\": " << c.accepted << ", \"shed\": " << c.shed
         << ", \"identity\": " << (c.identity ? "true" : "false")
         << ", \"offered_hb_per_sec\": " << c.offered_hb_per_sec
         << ", \"sustained_hb_per_sec\": " << c.sustained_hb_per_sec
         << ", \"p99_ingest_latency_us\": " << c.p99_ingest_latency_us << "}"
         << (i + 1 < configs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"overload\": {\n"
       << "    \"policy\": \"" << rt::name(scenario.engine.policy) << "\",\n"
       << "    \"produced\": " << a.totals.produced << ",\n"
       << "    \"accepted\": " << a.totals.accepted << ",\n"
       << "    \"shed\": " << a.totals.shed_total() << ",\n"
       << "    \"identity\": " << (overload_identity ? "true" : "false")
       << ",\n"
       << "    \"shed_fraction\": " << shed_fraction << ",\n"
       << "    \"qos_at_risk\": " << (a.qos_at_risk ? "true" : "false")
       << ",\n"
       << "    \"risk_reason\": \"" << rt::name(a.reason) << "\",\n"
       << "    \"replay_crc\": \"" << crc_hex.str() << "\"\n"
       << "  }\n}\n";
  std::ofstream("BENCH_rt.json") << json.str();
  std::cout << "\nWrote BENCH_rt.json\n";

  bool ok = overload_identity && a.qos_at_risk &&
            a.reason == rt::RiskReason::kOverload && shed_fraction > 0.25 &&
            shed_fraction < 0.75;
  for (const auto& c : configs) ok = ok && c.identity;
  if (!ok) std::cerr << "FAIL: internal consistency check\n";
  return ok ? 0 : 1;
}

// chenfd_bench — the repository benchmark (bench/perf/README.md).
//
//   chenfd_bench --workload <name> --seed <n> [--seconds <s>]
//                [--trace <file>] [--smoke]
//
// Prints every metric as `name value unit`, writes BENCH_perf.json to the
// working directory, and exits 1 when an output check fails (2 on a usage
// error).  With --trace the run measures half its time untraced and half
// traced, prints the tracing overhead per end-to-end metric and the spans'
// self times, adds the per-layer rows and writes the spans to <file> as
// Chrome trace-event JSON.  --smoke runs every workload at about 1% size
// with every check on and asserts no timing.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "workloads.hpp"

namespace chenfd::perf {

namespace {

/// The metrics every run reports (BENCHMARK.json lists the same names).
const std::vector<std::string> kE2eMetrics = {
    "hb_per_s", "delay_p50_ms", "delay_p90_ms", "setup_s", "peak_rss_mb"};
const std::vector<std::string> kLayerMetrics = {
    "core.sampler.fill_ns_per_draw",
    "core.loss_skipper.ns_per_loss",
    "core.fast_sim.nfd_s.ns_per_hb",
    "core.fast_sim.nfd_e.ns_per_hb",
    "core.fast_sim.sfd.ns_per_hb",
    "fleet.ctor_ms",
    "fleet.ingest_ns_per_hb",
    "fleet.close_ms",
    "fleet.drain_ns_per_transition",
    "fleet.wheel.schedule_ns",
    "fleet.wheel.cancel_ns",
    "fleet.wheel.advance_ns_per_tick",
    "fleet.wheel.fired",
    "rt.offer_ns_p50",
    "rt.offer_ns_p99",
    "rt.mpsc.push_ns",
    "rt.mpsc.pop_ns_per_item",
    "rt.drain_shard_ns_per_hb",
    "rt.advance_shard_us",
    "rt.drain_transitions_us",
    "persist.export_summary_ms",
    "persist.encode_ms",
    "persist.snapshot_bytes",
    "gen.self_ns_per_hb",
};

bool has_row(const std::vector<Row>& rows, const std::string& name) {
  return std::any_of(rows.begin(), rows.end(),
                     [&name](const Row& r) { return r.name == name; });
}

bool has_all(const std::vector<Row>& rows,
             const std::vector<std::string>& names, std::string& missing) {
  for (const std::string& n : names) {
    if (!has_row(rows, n)) missing += " " + n;
  }
  return missing.empty();
}

/// Runs one workload; returns whether every output check passed.
bool run_one(const Options& opts, bool traced, const std::string& trace_path,
             bool write_report) {
  std::cout << "== " << opts.workload << " seed " << opts.seed << "\n";
  Report report;
  std::unique_ptr<Workload> w = make_workload(opts.workload, opts);
  w->prepare();

  Trace off(false);
  const PassOut untraced =
      w->pass(traced ? opts.seconds / 2.0 : opts.seconds, off, report);
  for (const Row& r : untraced.e2e) report.e2e(r.name, r.value, r.unit, r.samples);

  std::vector<Row> layers;
  Trace trace(traced);
  if (traced) {
    PassOut t = w->pass(opts.seconds / 2.0, trace, report);
    for (const Row& r : t.e2e) {
      for (const Row& u : untraced.e2e) {
        if (u.name != r.name) continue;
        std::cout << "traced " << r.name << " " << r.value << " " << r.unit
                  << " overhead " << r.value - u.value << " " << r.unit << " ("
                  << (u.value != 0.0 ? 100.0 * (r.value - u.value) / u.value
                                     : 0.0)
                  << "%)\n";
      }
    }
    for (const Trace::SelfTime& s : trace.self_times()) {
      std::cout << "span " << s.name << " count " << s.count << " total_ms "
                << s.total_ms << " self_ms " << s.self_ms << "\n";
    }
    layers = std::move(t.layer);
    std::vector<Row> probed = run_probes(w->probe_spec(), opts, layers, report);
    layers.insert(layers.end(), probed.begin(), probed.end());
    for (const Row& r : layers) report.layer(r.name, r.value, r.unit, r.samples);
    if (!trace_path.empty()) {
      trace.write_chrome(trace_path);
      std::cout << "wrote " << trace.size() << " spans to " << trace_path
                << "\n";
    }
  }
  std::string missing;
  bool complete = has_all(report.e2e_rows(), kE2eMetrics, missing);
  if (traced) complete = has_all(layers, kLayerMetrics, missing) && complete;
  report.check(opts.workload + ".metrics_complete", complete,
               missing.empty() ? "every listed metric reported"
                               : "missing:" + missing);
  if (write_report) {
    report.write_json("BENCH_perf.json", opts.workload, opts.seed,
                      opts.seconds, traced);
    std::cout << "wrote BENCH_perf.json\n";
  }
  return report.correct();
}

int usage(const std::string& why) {
  std::cerr << "chenfd_bench: " << why << "\n"
            << "usage: chenfd_bench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace <file>] [--smoke]\nworkloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim_fig12", "sim_lossy", "fleet_1m", "rt_steady", "rt_heavy"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opts) {
  if (name == "sim_fig12") return make_sim(opts, false);
  if (name == "sim_lossy") return make_sim(opts, true);
  if (name == "fleet_1m") return make_fleet(opts);
  if (name == "rt_steady") return make_rt(opts, false);
  if (name == "rt_heavy") return make_rt(opts, true);
  return nullptr;
}

int run_cli(int argc, char** argv) {
#if defined(__GLIBC__)
  // Fixed allocator layout.  One malloc arena for all threads: a consumer
  // thread that opened its own moved the rt peak_rss_mb by 8 MB.  Every
  // block comes from that heap and freed memory is never returned to the
  // system, so once a workload has warmed up, its timed phases and repeated
  // set-ups reuse resident pages.  The first touch of a fresh page costs a
  // page fault whose price is the host's: on a shared 4-vCPU KVM guest it
  // moved the 10^6-process constructor between 18 and 80 ms from one
  // minute to the next.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  Options opts;
  std::string trace_path;
  bool traced = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      opts.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage("--seed takes an integer");
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      opts.seconds = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(opts.seconds > 0.0) ||
          opts.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
      traced = true;
    } else {
      return usage("unknown or incomplete argument '" + arg + "'");
    }
  }

  if (opts.smoke) {
    bool ok = true;
    for (const std::string& name : workload_names()) {
      Options o = opts;
      o.workload = name;
      o.seconds = 0.5;
      ok = run_one(o, /*traced=*/true, "", /*write_report=*/false) && ok;
    }
    std::cout << (ok ? "smoke: every check passed\n" : "smoke: FAILED\n");
    return ok ? 0 : 1;
  }
  if (make_workload(opts.workload, opts) == nullptr) {
    return usage("unknown workload '" + opts.workload + "'");
  }
  if (!have_seed) return usage("--seed is required");
  return run_one(opts, traced, trace_path, /*write_report=*/true) ? 0 : 1;
}

}  // namespace chenfd::perf

int main(int argc, char** argv) { return chenfd::perf::run_cli(argc, argv); }

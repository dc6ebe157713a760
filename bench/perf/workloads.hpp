// The benchmark's workloads and layer probes.
//
// A workload generates its inputs from the seed in prepare() (untimed),
// then measures in one or more passes.  The engines receive only the
// generated inputs.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dist/distribution.hpp"
#include "harness.hpp"
#include "persist/snapshot.hpp"

namespace chenfd::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Smoke mode: inputs at about 1% size, every output check on.
  bool smoke = false;
};

/// What one measurement pass produced.  `e2e` holds the end-to-end
/// metrics (hb_per_s, the delay percentiles, setup_s, the median of
/// set-ups timed across the pass, and peak_rss_mb, plus workload-specific
/// rows); `layer` holds the per-layer metrics the pass measured itself
/// (filled only on a traced pass).
struct PassOut {
  std::vector<Row> e2e;
  std::vector<Row> layer;
};

/// What the layer probes run on: the workload's own delay model, loss
/// probability and detector settings where it has them, else the Fig. 12
/// point (eta = 1, p_L = 0.01, Exponential(0.02)).
struct ProbeSpec {
  std::unique_ptr<dist::DelayDistribution> delay;
  double loss = 0.01;
  core::NfdSParams nfd_s{seconds(1.0), seconds(2.0)};
  core::NfdEParams nfd_e{seconds(1.0), seconds(2.0), 32};
  core::SfdParams sfd{seconds(1.84), seconds(0.16)};
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the seeded inputs.
  virtual void prepare() = 0;
  /// One measurement pass of about `budget_s` seconds.  Output checks go
  /// to `report`.
  virtual PassOut pass(double budget_s, Trace& trace, Report& report) = 0;
  [[nodiscard]] virtual ProbeSpec probe_spec() const = 0;
};

/// The workload called `name`, or nullptr.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Options& opts);
[[nodiscard]] const std::vector<std::string>& workload_names();

std::unique_ptr<Workload> make_sim(const Options& opts, bool lossy);
std::unique_ptr<Workload> make_fleet(const Options& opts);
std::unique_ptr<Workload> make_rt(const Options& opts, bool heavy);

/// The supervisor's persistence path on `engine` (a fleet::FleetMonitor or
/// an rt::RealtimeEngine): export its summary and encode a snapshot that
/// carries it, timed five times; appends the persist.* rows.
template <class Engine>
void persist_rows(const Engine& engine, std::vector<Row>& out) {
  constexpr int kReps = 5;
  std::vector<double> export_ms;
  std::vector<double> encode_ms;
  std::size_t bytes = 0;
  for (int i = 0; i < kReps; ++i) {
    persist::MonitorSnapshot snap;
    const std::int64_t e0 = now_ns();
    snap.fleet = engine.export_summary();
    export_ms.push_back(static_cast<double>(now_ns() - e0) * 1e-6);
    snap.has_fleet = true;
    const std::int64_t w0 = now_ns();
    bytes = persist::to_string(snap).size();
    encode_ms.push_back(static_cast<double>(now_ns() - w0) * 1e-6);
  }
  out.push_back({"persist.export_summary_ms", median(export_ms), "ms", kReps});
  out.push_back({"persist.encode_ms", median(encode_ms), "ms", kReps});
  out.push_back({"persist.snapshot_bytes", static_cast<double>(bytes), "B"});
}

/// Runs the standalone layer probes on `spec` and returns one row per
/// per-layer metric not already in `have`.  Probe output checks go to
/// `report`.
[[nodiscard]] std::vector<Row> run_probes(const ProbeSpec& spec,
                                          const Options& opts,
                                          const std::vector<Row>& have,
                                          Report& report);

}  // namespace chenfd::perf

// sim_fig12 and sim_lossy: the batched fast-sim kernels (core/fast_sim.hpp)
// on one operating point each, single-threaded.
//
// A request is one "round": one accuracy run of each detector (NFD-S,
// NFD-E, SFD) with a fixed heartbeat count, the unit of work behind one
// point of the paper's Fig. 12.  The rounds are swept five times with the
// same seeds and a round's latency is its fastest sweep: other load on the
// host only ever adds time, so the minimum of identical repetitions
// estimates the program's own cost.  hb_per_s is the round's heartbeats
// over the median round; the delay percentiles are round latencies.

#include <array>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/arena.hpp"
#include "core/analysis.hpp"
#include "core/fast_sim.hpp"
#include "core/sampler.hpp"
#include "dist/exponential.hpp"
#include "dist/lognormal.hpp"
#include "workloads.hpp"

namespace chenfd::perf {

namespace {

enum Kernel : std::size_t { kNfdS = 0, kNfdE = 1, kSfd = 2, kKernels = 3 };
constexpr const char* kKernelName[kKernels] = {"nfd_s", "nfd_e", "sfd"};
constexpr const char* kKernelSpan[kKernels] = {
    "core.fast_sim.nfd_s", "core.fast_sim.nfd_e", "core.fast_sim.sfd"};

struct Point {
  core::NfdSParams nfd_s;
  core::NfdEParams nfd_e;
  core::SfdParams sfd;
  Duration eta;
  double loss;
  std::uint64_t heartbeats[kKernels];  ///< per accuracy run
};

/// Fig. 12: eta = 1, p_L = 0.01, Exponential(0.02); about 99% of NFD-S
/// intervals are skipped by the skip-scan and delays take the ziggurat.
Point fig12_point() {
  return Point{core::NfdSParams{seconds(1.0), seconds(2.0)},
               core::NfdEParams{seconds(1.0), seconds(2.0), 32},
               core::SfdParams{seconds(1.84), seconds(0.16)},
               seconds(1.0),
               0.01,
               {std::uint64_t{1} << 17, std::uint64_t{1} << 15,
                std::uint64_t{1} << 15}};
}

/// A WAN-like link: LogNormal delays (table sampler, mean 0.02) and
/// p_L = 0.05, with tight detectors, so NFD-S takes the windowed scan and
/// the loss skipper fires every ~20 heartbeats.
Point lossy_point() {
  return Point{core::NfdSParams{seconds(1.0), seconds(0.1)},
               core::NfdEParams{seconds(1.0), seconds(0.1), 32},
               core::SfdParams{seconds(1.1), seconds(0.16)},
               seconds(1.0),
               0.05,
               {std::uint64_t{1} << 16, std::uint64_t{1} << 15,
                std::uint64_t{1} << 15}};
}

std::unique_ptr<dist::DelayDistribution> point_delay(bool lossy) {
  if (lossy) {
    return std::make_unique<dist::LogNormal>(std::log(0.02) - 0.5, 1.0);
  }
  return std::make_unique<dist::Exponential>(0.02);
}

/// The bits of a run's outcome (NaN-safe: compares representations).
using Fingerprint = std::array<std::uint64_t, 6>;

Fingerprint fingerprint(const core::AccuracyResult& r) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {r.heartbeats,          r.s_transitions,
          bits(r.trust_seconds), bits(r.observed_seconds),
          bits(r.e_tmr()),       bits(r.e_tm())};
}

template <std::size_t N>
double fastest(const std::vector<double> (&sweeps)[N], std::size_t i) {
  double best = sweeps[0][i];
  for (const auto& sweep : sweeps) best = std::min(best, sweep[i]);
  return best;
}

class SimWorkload final : public Workload {
 public:
  SimWorkload(const Options& opts, bool lossy)
      : opts_(opts),
        lossy_(lossy),
        point_(lossy ? lossy_point() : fig12_point()),
        delay_(point_delay(lossy)) {
    if (opts_.smoke) {
      for (std::uint64_t& k : point_.heartbeats) k /= 64;
    }
  }

  void prepare() override {
    arena_ = std::make_unique<MonotonicArena>();
    sampler_ = std::make_unique<core::CompiledSampler>(*delay_);
  }

  PassOut pass(double budget_s, Trace& trace, Report& report) override {
    // Warm-up round (it also warms the arena), replayed bit for bit by
    // measured round 0.  The engine's memory is all in place after it; the
    // peak is read here because the timing bookkeeping below grows with
    // the number of rounds, i.e. with the host's speed.
    core::AccuracyResult warm[kKernels];
    for (std::size_t k = 0; k < kKernels; ++k) {
      Rng rng(call_seed(0, k));
      warm[k] = run_kernel(k, *sampler_, rng, stop(k), *arena_);
    }
    const double peak_mb = peak_rss_mb();

    // Sweeps over the same rounds: the first runs for its share of the
    // budget and fixes the round count, the others replay it.  A round's
    // latency is its fastest sweep.
    constexpr int kSweeps = 5;
    std::vector<Fingerprint> first;  // sweep 0, per (round, kernel)
    std::vector<double> sweep_ms[kSweeps];
    std::vector<double> sweep_call_s[kKernels][kSweeps];
    std::vector<double> setup_s;
    std::uint64_t s_transitions[kKernels] = {};
    double observed_s = 0.0;
    bool reproduced = true;
    bool replayed = true;
    std::uint64_t round_hb = 0;
    for (const std::uint64_t k : point_.heartbeats) round_hb += k;

    const std::int64_t start = now_ns();
    std::uint64_t rounds = 0;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::uint64_t r = 0;; ++r) {
        if (sweep == 0 ? r >= 3 && seconds_since(start) >= budget_s / kSweeps
                       : r >= rounds) {
          break;
        }
        const ScopedSpan round_span(trace, "sim.round", r);
        // Every 16th round starts from a freshly compiled sampler;
        // compiling plus the round is one set-up sample (time to the first
        // result), so the samples spread over the whole run.
        const std::int64_t r0 = now_ns();
        if (r % 16 == 0) {
          sampler_ = std::make_unique<core::CompiledSampler>(*delay_);
        }
        const double compile_s = seconds_since(r0);
        for (std::size_t k = 0; k < kKernels; ++k) {
          Rng rng(call_seed(r, k));
          const std::int64_t c0 = now_ns();
          core::AccuracyResult res;
          {
            const ScopedSpan span(trace, kKernelSpan[k], r);
            res = run_kernel(k, *sampler_, rng, stop(k), *arena_);
          }
          sweep_call_s[k][sweep].push_back(seconds_since(c0));
          if (sweep == 0) {
            first.push_back(fingerprint(res));
            if (r == 0 && fingerprint(res) != fingerprint(warm[k])) {
              reproduced = false;
            }
            s_transitions[k] += res.s_transitions;
            if (k == kNfdS) observed_s += res.observed_seconds;
          } else if (fingerprint(res) != first[r * kKernels + k]) {
            replayed = false;
          }
        }
        const double round_s = seconds_since(r0) - compile_s;
        sweep_ms[sweep].push_back(round_s * 1e3);
        if (r % 16 == 0) setup_s.push_back(compile_s + round_s);
      }
      if (sweep == 0) rounds = sweep_ms[0].size();
    }
    const double wall_s = seconds_since(start);

    std::vector<double> round_ms(rounds);
    std::vector<double> call_s[kKernels];
    for (std::uint64_t r = 0; r < rounds; ++r) {
      round_ms[r] = fastest(sweep_ms, r);
      for (std::size_t k = 0; k < kKernels; ++k) {
        call_s[k].push_back(fastest(sweep_call_s[k], r));
      }
    }

    const std::string name = lossy_ ? "sim_lossy" : "sim_fig12";
    report.check(name + ".warmup_reproduced", reproduced,
                 "warm-up round equals measured round 0 bit for bit");
    report.check(name + ".replay_identical", replayed,
                 "every replayed run equals its first sweep bit for bit");
    check_mistake_rate(report, s_transitions[kNfdS], observed_s);
    report.count_ops(kSweeps * rounds * round_hb, 0);

    PassOut out;
    const double round_med_s = median(round_ms) * 1e-3;
    out.e2e.push_back({"hb_per_s", static_cast<double>(round_hb) / round_med_s,
                       "hb/s", rounds});
    out.e2e.push_back({"delay_p50_ms", quantile(round_ms, 0.5), "ms", rounds});
    out.e2e.push_back({"delay_p90_ms", quantile(round_ms, 0.9), "ms", rounds});
    out.e2e.push_back({"delay_p99_ms", quantile(round_ms, 0.99), "ms", rounds});
    out.e2e.push_back({"setup_s", median(setup_s), "s",
                       static_cast<std::uint64_t>(setup_s.size())});
    out.e2e.push_back({"peak_rss_mb", peak_mb, "MB"});
    for (std::size_t k = 0; k < kKernels; ++k) {
      out.e2e.push_back({std::string(kKernelName[k]) + "_hb_per_s",
                         static_cast<double>(point_.heartbeats[k]) /
                             median(call_s[k]),
                         "hb/s", rounds});
    }
    if (trace.enabled()) {
      double kernel_ms = 0.0;
      for (std::size_t k = 0; k < kKernels; ++k) {
        const Trace::SelfTime t = trace.totals(kKernelSpan[k]);
        kernel_ms += t.total_ms;
        out.layer.push_back({std::string(kKernelSpan[k]) + ".ns_per_hb",
                             median(call_s[k]) * 1e9 /
                                 static_cast<double>(point_.heartbeats[k]),
                             "ns", rounds});
        out.layer.push_back({std::string(kKernelSpan[k]) + ".s_transitions",
                             static_cast<double>(s_transitions[k]), "count"});
      }
      out.layer.push_back(
          {"gen.self_ns_per_hb",
           (wall_s * 1e3 - kernel_ms) * 1e6 /
               static_cast<double>(kSweeps * rounds * round_hb),
           "ns", rounds});
    }
    return out;
  }

  [[nodiscard]] ProbeSpec probe_spec() const override {
    ProbeSpec spec;
    spec.delay = point_delay(lossy_);
    spec.loss = point_.loss;
    spec.nfd_s = point_.nfd_s;
    spec.nfd_e = point_.nfd_e;
    spec.sfd = point_.sfd;
    return spec;
  }

 private:
  /// One accuracy run of kernel k: a fixed heartbeat count, whatever the
  /// number of mistakes.
  [[nodiscard]] core::StopCriteria stop(std::size_t k) const {
    core::StopCriteria s;
    s.target_s_transitions = std::size_t{1} << 30;
    s.max_heartbeats = point_.heartbeats[k];
    return s;
  }

  [[nodiscard]] std::uint64_t call_seed(std::uint64_t round,
                                        std::size_t kernel) const {
    return draw(opts_.seed, round, kernel, lossy_ ? 2 : 1);
  }

  core::AccuracyResult run_kernel(std::size_t k,
                                  const core::CompiledSampler& sampler,
                                  Rng& rng, const core::StopCriteria& stop,
                                  MonotonicArena& arena) const {
    arena.reset();  // kernels bump-allocate; recycle the previous run's blocks
    switch (k) {
      case kNfdS:
        return core::fast_nfd_s_accuracy(point_.nfd_s, point_.loss, sampler,
                                         rng, stop, &arena);
      case kNfdE:
        return core::fast_nfd_e_accuracy(point_.nfd_e, point_.loss, sampler,
                                         rng, stop, &arena);
      default:
        return core::fast_sfd_accuracy(point_.sfd, point_.eta, point_.loss,
                                       sampler, rng, stop, &arena);
    }
  }

  /// Theorem 5: NFD-S makes S-transitions at rate p_s / eta.  The count is
  /// compared with that rate within 5 Poisson standard errors.
  void check_mistake_rate(Report& report, std::uint64_t count,
                          double observed_s) const {
    const core::NfdSAnalysis analysis(point_.nfd_s, point_.loss, *delay_);
    const double expected = analysis.p_s() / point_.eta.seconds() * observed_s;
    const double se = std::sqrt(std::max(expected, 1.0));
    const double measured = static_cast<double>(count);
    std::ostringstream detail;
    detail << "S-transitions " << count << " vs p_s/eta * T = " << expected
           << " (5 SE = " << 5.0 * se << ")";
    report.check(std::string(lossy_ ? "sim_lossy" : "sim_fig12") +
                     ".nfd_s_mistake_rate",
                 std::abs(measured - expected) <= 5.0 * se, detail.str());
  }

  Options opts_;
  bool lossy_;
  Point point_;
  std::unique_ptr<dist::DelayDistribution> delay_;
  std::unique_ptr<core::CompiledSampler> sampler_;
  std::unique_ptr<MonotonicArena> arena_;
};

}  // namespace

std::unique_ptr<Workload> make_sim(const Options& opts, bool lossy) {
  return std::make_unique<SimWorkload>(opts, lossy);
}

}  // namespace chenfd::perf

// Plain-data vocabulary of the fleet monitoring engine (DESIGN.md §13).
//
// The per-pair detectors in src/core/ are objects wired to a simulator; at
// 10^5–10^6 monitored processes the fleet engine instead works on dense
// indices and POD records, so everything here is trivially copyable and
// free of behavior.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/check.hpp"
#include "common/time.hpp"
#include "common/verdict.hpp"
#include "core/params.hpp"
#include "net/message.hpp"

namespace chenfd::fleet {

/// Dense index of a monitored process in [0, FleetOptions::processes).
using ProcessIndex = std::uint32_t;

/// One received heartbeat, already timestamped by the monitor.  Sequence
/// numbers start at 1 and continue across crash/recovery; the incarnation
/// bumps on each recovery (crash-recovery model, DESIGN.md §12).
struct Heartbeat {
  ProcessIndex process = 0;
  std::uint32_t incarnation = 0;
  net::SeqNo seq = 0;
  TimePoint arrival;  ///< receipt time at the monitor (real time)
};

/// A suspicion-level change of one monitored process.  `at` is the exact
/// (unquantized) instant: heartbeat arrival for trust, the Eq. 6.3
/// freshness point for suspicion.
struct Transition {
  TimePoint at;
  ProcessIndex process = 0;
  Verdict to = Verdict::kSuspect;

  friend constexpr bool operator==(const Transition&,
                                   const Transition&) = default;
};

struct FleetOptions {
  std::size_t processes = 0;
  std::size_t shards = 1;
  core::NfdEParams params;
  /// Tick size of the freshness-expiry timing wheel; zero means eta / 128.
  /// Granularity affects only *when* an expiry is noticed by advance(), not
  /// the emitted timestamps — those are the stored exact freshness points.
  /// The fine default is free: a deadline eta + alpha ahead lands at wheel
  /// level 1, and the next heartbeat nearly always cancels it before its
  /// slot cascades.
  Duration wheel_resolution = Duration(0.0);
  /// Global index of this engine's first process: heartbeat ids live in
  /// [first_process, first_process + processes) and transitions carry the
  /// same global ids.  Lets a front-end (service/realtime) run one
  /// FleetMonitor per partition of a larger fleet without renumbering.
  ProcessIndex first_process = 0;

  void validate() const {
    CHENFD_EXPECTS(processes >= 1, "FleetOptions: processes must be >= 1");
    CHENFD_EXPECTS(shards >= 1, "FleetOptions: shards must be >= 1");
    CHENFD_EXPECTS(shards <= processes,
                   "FleetOptions: more shards than processes");
    params.validate();
    CHENFD_EXPECTS(wheel_resolution >= Duration::zero(),
                   "FleetOptions: wheel resolution must be >= 0");
    CHENFD_EXPECTS(processes <= std::numeric_limits<ProcessIndex>::max() -
                                    first_process,
                   "FleetOptions: first_process + processes overflows "
                   "ProcessIndex");
  }

  [[nodiscard]] Duration resolution() const {
    return wheel_resolution > Duration::zero()
               ? wheel_resolution
               : Duration(params.eta.seconds() / 128.0);
  }
};

}  // namespace chenfd::fleet

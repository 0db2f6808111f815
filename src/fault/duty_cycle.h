// Duty-cycled lossy links: the radio-style fault class of low-power mesh
// networks (Contiki-era radio duty cycling), where a link is only awake for
// a fixed fraction of each period and, while awake, still loses packets in
// correlated bursts.
//
// A LinkDutyCycle composes two orthogonal behaviors on one duplex link:
//   * a strict periodic up/down square wave — awake for the first
//     on_fraction of every period, asleep for the rest — expanded into a
//     deterministic edge schedule shared by both engines, and
//   * optional Gilbert–Elliott correlated loss applied while awake
//     (fault/gilbert.h), so even the "up" phase is hostile.
//
// Like flaps, duty cycles are silent: neither endpoint gets a physical-
// layer notification, so only the hello protocol can track the outages —
// which is exactly why the scenario parser requires `hello` when a
// dutycycle directive is present.
#pragma once

#include <string>
#include <vector>

#include "fault/gilbert.h"
#include "util/time.h"

namespace mdr::fault {

/// Periodic radio-style duty cycling of one duplex link: from `start`, each
/// `period` begins awake for `on_fraction * period` seconds, then asleep
/// for the rest. Only whole cycles ending at or before `stop` run, so the
/// link always ends awake. `loss` (when `lossy`) is Gilbert–Elliott
/// correlated loss applied to the link's packets while awake.
struct LinkDutyCycle {
  std::string a, b;
  Duration period = 2.0;
  double on_fraction = 0.5;  ///< fraction of each period awake, in (0, 1)
  Time start = 0;
  Time stop = kTimeInfinity;
  GilbertParams loss{};
  bool lossy = false;
};

/// One up/down transition of a duty-cycled link.
struct DutyEdge {
  Time at = 0;
  bool down = false;  ///< true: falls asleep; false: wakes up
};

/// Expands a duty cycle into its transition schedule over [0, sim_end]:
/// whole cycles only, chronological, each cycle contributing a sleep edge
/// at t + on_fraction * period and a wake edge at t + period. The engine's
/// pause plan (sim/network_sim.cc) turns each edge into one coordinator
/// pause.
std::vector<DutyEdge> duty_cycle_edges(const LinkDutyCycle& duty,
                                       Time sim_end);

}  // namespace mdr::fault

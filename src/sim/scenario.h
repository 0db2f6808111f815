// Scenario files: declarative experiment descriptions.
//
// A scenario is a plain-text file describing a topology (or naming a
// built-in one), a set of flows, the routing scheme and its knobs, and any
// scheduled link events — everything run_simulation() needs. The `mdrsim`
// command-line tool runs scenarios directly; tests and downstream code can
// use the parser programmatically.
//
// Format (one directive per line; '#' starts a comment):
//
//   topology cairn [scale=<x>]      # built-in: cairn | net1 (+ paper flows)
//   topology random n=<n> [p=<p>] [flows=<k>] [rate=<bps>] [seed=<n>]
//   topology waxman n=<n> [alpha=<a>] [beta=<b>] [min_prop=<s>]
//            [flows=<k>] [rate=<bps>] [seed=<n>]   # generated + random flows
//   node <name>                     # or build your own topology
//   link <a> <b> [capacity=<bps>] [prop=<s>]      # duplex
//   flow <src> <dst> rate=<bps>
//   mode mp | sp | opt
//   tl <s>        ts <s>
//   duration <s>  warmup <s>  traffic_start <s>
//   seed <n>
//   estimator utilization | mm1 | observable | ipa
//   bursty on=<s> off=<s>                  # exponential on/off sources
//   pareto [alpha=<a>] [on=<s>] [off=<s>]  # self-similar on/off sources
//   loss <p>                               # per-packet link loss in [0,1)
//   hello [interval=<s>] [dead=<s>]
//   lfi_check <s>
//   ah_damping <x>
//   wrr
//   queue_limit <bits>                     # data-queue bound per link
//   control_queue_limit <bits>             # control-ingress budget per link
//   pace [min=<s>] [max=<s>]               # LSU origination hold-down
//   damping [penalty=<p>] [suppress=<p>] [reuse=<p>] [half_life=<s>] [max=<p>]
//   fail <t> <a> <b> [silent]
//   restore <t> <a> <b> [silent]
//   crash <t> <node>                       # router loses ALL state (silent)
//   recover <t> <node>                     # reboot + full re-handshake
//   flap <a> <b> [period=<s>] [duty=<x>] [start=<t>] [stop=<t>]
//   gilbert <a> <b> [p_good=<p>] [p_bad=<p>] [loss_bad=<p>] [loss_good=<p>]
//   dutycycle <a> <b> [period=<s>] [on=<x>] [start=<t>] [stop=<t>]
//             [p_good=<p>] [p_bad=<p>] [loss_bad=<p>] [loss_good=<p>]
//                                          # radio duty cycle; loss keys add
//                                          # a Gilbert-Elliott awake channel
//   corrupt <p>     duplicate <p>     reorder <p>   # control-plane chaos
//   adversarial [w=<s>] [eps=<x>] [peak=<x>] [sync=<0|1>]
//                                          # (w, eps)-bounded burst injector
//   diurnal period=<s> [amp=<x>] [phase=<s>]  # sinusoidal rate modulation
//   flashcrowd <dst> [start=<t>] [ramp=<s>] [hold=<s>] [peak=<x>]
//                                          # hotspot episode on flows to dst
//   stability <s> [window=<s>] [slope=<x>] [delay_factor=<x>] [persist=<n>]
//                                          # blow-up verdict monitor
//   monitor <s> [drop_budget=<n>]          # invariant sweeps + watchdog
//   sample <s>                             # telemetry time-series period
//   checkpoint interval=<s> path=<file>    # periodic crash-safe snapshots
//                                          # (docs/CHECKPOINT.md)
//   trace                                  # retain the full protocol trace
//   flightrec [capacity=<n>]               # bounded per-node event rings
//   prof [deep=0|1]                        # wall-clock profiler +
//                                          # convergence spans (any shards);
//                                          # deep=1 times per-event sections
//                                          # (higher overhead, obs/prof.h)
//   engine shards=<n> [ring=<cap>] [lookahead=<s>]  # shard count (default 1)
//
// `engine shards=N` spreads the network over N shards (same-seed output is
// byte-identical for any N >= 1). trace/flightrec need shards=1, and no
// zero-delay link may join two shards (both enforced at parse time,
// sim::validate_engine).
//
// crash/flap/dutycycle faults are silent by construction: a scenario using
// them must also enable `hello` (enforced at parse time); `damping` filters
// hello adjacency events and requires `hello` too. A lossy dutycycle and a
// `gilbert` directive on the same link conflict (one chain per direction)
// and are rejected. See docs/FAULTS.md and docs/WORKLOADS.md.
//
// Unknown directives, unknown option keys and malformed values are errors
// (fail fast, with the source name and offending line number).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment_spec.h"

namespace mdr::sim {

struct Scenario {
  /// Everything run_experiment() needs: topology, flows and config.
  ExperimentSpec spec;
  /// "mp", "sp" or "opt". For "opt" the runner must solve Gallager first
  /// and install the result (spec.config.mode is kStatic, static_phi unset).
  std::string mode = "mp";
};

/// Parses a scenario; on failure returns nullopt and describes the problem
/// (with a line number) in *error. A non-empty `source_name` (typically the
/// file path) prefixes every diagnostic so multi-file drivers can attribute
/// errors.
std::optional<Scenario> parse_scenario(std::istream& in, std::string* error,
                                       const std::string& source_name = "");

/// Loads a scenario file from disk.
std::optional<Scenario> load_scenario(const std::string& path,
                                      std::string* error);

/// Runs a scenario end to end, solving OPT first when mode == "opt".
SimResult run_scenario(const Scenario& scenario);

}  // namespace mdr::sim

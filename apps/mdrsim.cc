// mdrsim — run a routing experiment from a scenario file.
//
// Usage:
//   mdrsim <scenario-file> [--mode mp|sp|opt] [--seed N]
//          [--seeds N] [--jobs M] [--shards S] [--json PATH] [--quiet]
//          [--validate] [--sweep lo:hi:steps | --sweep auto]
//
// --validate parses the scenario (applying --mode/--seed/--shards
// overrides), prints a one-screen summary and exits without simulating —
// a dry-run for editors and CI. --sweep replaces the normal run with a
// load sweep (runner/load_sweep.h): flow rates are scaled across the given
// multiplier grid, the blow-up point is bisected, and one JSON object per
// probe plus a final summary object stream to stdout.
//
// By default runs the scenario once and prints per-flow delays, drop and
// control-plane counters, and, if the scenario enables them, the LFI check
// summary and the delay time series (one row per `sample` window). With
// --seeds N > 1 the experiment is replicated N times under seeds derived
// from the base seed and fanned across --jobs worker threads (results are
// identical for any --jobs value); per-flow delays are reported as mean /
// stddev / 95% CI across the replications. --json writes the batch (aggregates plus per-run rows) in
// the schema documented in docs/RUNNER.md.
//
// Crash safety (docs/CHECKPOINT.md): --checkpoint-interval S with
// --checkpoint-path P (or the scenario's `checkpoint` directive) snapshots
// the complete simulation state every S sim-seconds; --resume-from P picks
// an interrupted run back up with byte-identical final output. Single runs
// also catch SIGINT/SIGTERM, write a final checkpoint at the next safe
// boundary, flush partial telemetry and exit 128+signal. Batches (--seeds
// N > 1) are fault tolerant instead: a job that throws is retried
// (--retries) at the same seed, overruns are cancelled (--job-timeout), and
// --result-dir DIR skips jobs whose marker files exist so an interrupted
// batch re-run completes only the missing seeds.
//
// Telemetry (docs/OBSERVABILITY.md): --metrics-out streams the per-run
// time-series samples plus per-run and merged metric registries (JSONL, or
// tidy CSV when the path ends in .csv); --trace streams the structured
// protocol event trace and any flight-recorder dumps (JSONL);
// --sample-interval S sets the sampling period (also the scenario `sample`
// directive; --metrics-out alone defaults it to 1s). All off by default —
// a default run is bit-identical to one built without telemetry.
//
// Profiling (docs/OBSERVABILITY.md "Profiling & convergence tracing"):
// --prof-out F (or the scenario `prof` directive) enables the wall-clock
// profiler and the convergence span tracer; --prof-out additionally writes
// the combined Chrome trace-event JSON (Perfetto-loadable) to F and is
// single-run only. With prof enabled, a per-subsystem self/total table and
// convergence statistics print to stderr and a "prof" block lands in
// --json. --prof-deep (or `prof deep=1`) also times the per-event hot
// sections instead of just counting them — per-event attribution at a
// self-reported overhead of tens of percent on hosts with slow clocks.
// Default output stays byte-identical with prof off; an events-per-second
// host-rate line always prints to stderr (stderr is not part of the
// deterministic contract).
// See src/sim/scenario.h for the file format, and examples/scenarios/ for
// ready-made inputs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ckpt/ckpt.h"
#include "obs/sampler.h"
#include "obs/spans.h"
#include "runner/experiment_runner.h"
#include "runner/load_sweep.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace {

// SIGINT/SIGTERM request a graceful stop: the flag is polled at the
// simulation's safe boundaries (the engine's window barriers), where a
// final checkpoint is written if checkpointing is configured and partial
// telemetry is flushed before exiting 128+signal.
// Lock-free stores only — this runs in signal context.
std::atomic<bool> g_stop{false};
std::atomic<int> g_signal{0};

void on_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  g_stop.store(true, std::memory_order_relaxed);
}

void usage() {
  std::fputs(
      "usage: mdrsim <scenario-file> [--mode mp|sp|opt] [--seed N]\n"
      "              [--seeds N] [--jobs M] [--shards S] [--json PATH]\n"
      "              [--quiet]\n"
      "              [--metrics-out PATH] [--trace PATH]\n"
      "              [--prof-out PATH] [--prof-deep] [--sample-interval S]\n"
      "              [--checkpoint-interval S] [--checkpoint-path PATH]\n"
      "              [--resume-from PATH]\n"
      "              [--retries N] [--job-timeout S] [--result-dir DIR]\n"
      "              [--validate] [--sweep lo:hi:steps | --sweep auto]\n",
      stderr);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void print_single_run(const mdr::sim::SimResult& result, bool quiet) {
  std::printf("%-24s %10s %12s %12s\n", "flow", "delivered", "mean (ms)",
              "p95 (ms)");
  for (const auto& f : result.flows) {
    std::printf("%-24s %10llu %12.3f %12.3f\n",
                (f.src + "->" + f.dst).c_str(),
                static_cast<unsigned long long>(f.delivered),
                f.mean_delay_s * 1e3, f.p95_delay_s * 1e3);
  }
  std::printf("network average delay: %.3f ms over %llu packets\n",
              result.avg_delay_s * 1e3,
              static_cast<unsigned long long>(result.delivered));
  std::printf("drops: no-route %llu, ttl %llu, queue/link %llu, dead %llu\n",
              static_cast<unsigned long long>(result.dropped_no_route),
              static_cast<unsigned long long>(result.dropped_ttl),
              static_cast<unsigned long long>(result.dropped_queue),
              static_cast<unsigned long long>(result.dropped_dead));
  std::printf("control plane: %llu messages, %.1f kB",
              static_cast<unsigned long long>(result.control_messages),
              result.control_bits / 8e3);
  if (result.control_garbage > 0) {
    std::printf(", %llu corrupted rejected",
                static_cast<unsigned long long>(result.control_garbage));
  }
  std::printf("\n");
  if (!result.node_control.empty()) {
    std::printf(
        "LSUs: %llu originated, %llu retransmitted, %llu paced away, "
        "%llu acks",
        static_cast<unsigned long long>(result.lsus_originated),
        static_cast<unsigned long long>(result.lsus_retransmitted),
        static_cast<unsigned long long>(result.lsus_suppressed),
        static_cast<unsigned long long>(result.acks_sent));
    if (result.damped_withdrawals > 0) {
      std::printf(", %llu damped withdrawals",
                  static_cast<unsigned long long>(result.damped_withdrawals));
    }
    if (result.control_dropped > 0) {
      std::printf(
          "; control drops %llu (queue %llu, wire %llu, flush %llu, "
          "down %llu)",
          static_cast<unsigned long long>(result.control_dropped),
          static_cast<unsigned long long>(result.control_dropped_queue),
          static_cast<unsigned long long>(result.control_dropped_wire),
          static_cast<unsigned long long>(result.control_dropped_flush),
          static_cast<unsigned long long>(result.control_dropped_down));
    }
    std::printf("\n");
  }
  if (result.lfi_checks > 0) {
    std::printf("LFI checks: %llu, violations: %llu\n",
                static_cast<unsigned long long>(result.lfi_checks),
                static_cast<unsigned long long>(result.lfi_violations));
  }
  if (result.stability.has_value()) {
    const auto& st = *result.stability;
    std::printf(
        "stability: verdict %s  margin %.3f  peak slope %.0f bps "
        "(threshold %.0f)\n",
        st.unstable ? "UNSTABLE" : "stable", st.margin,
        st.max_queue_slope_bps, st.slope_threshold_bps);
    if (st.unstable) {
      std::printf("  blow-up declared at t=%.2f\n", st.t_unstable);
    }
  }
  if (result.monitor.has_value()) {
    const auto& m = *result.monitor;
    std::printf(
        "monitor: %llu checks, %llu forwarding loops, %llu blackholes, "
        "%llu accounting leaks\n",
        static_cast<unsigned long long>(m.checks),
        static_cast<unsigned long long>(m.forwarding_loops),
        static_cast<unsigned long long>(m.blackholes),
        static_cast<unsigned long long>(m.accounting_leaks));
    if (m.control_drop_alerts > 0 || m.starved_adjacencies > 0) {
      std::printf("  watchdog: %llu control-drop alerts, %llu starved adjacencies\n",
                  static_cast<unsigned long long>(m.control_drop_alerts),
                  static_cast<unsigned long long>(m.starved_adjacencies));
    }
    if (m.t_last_anomaly >= 0) {
      std::printf("  last anomaly (loop/blackhole) at t=%.2f\n",
                  m.t_last_anomaly);
    }
    for (const auto& inc : m.incidents) {
      if (inc.t_reconverged >= 0) {
        std::printf(
            "  incident %-10s crash t=%.2f  recovered t=%.2f  reconverged "
            "t=%.2f (%.2fs, %llu packets lost)\n",
            inc.name.c_str(), inc.t_crash, inc.t_recovered, inc.t_reconverged,
            inc.time_to_reconverge(),
            static_cast<unsigned long long>(inc.packets_lost));
      } else {
        std::printf("  incident %-10s crash t=%.2f  NOT RECONVERGED\n",
                    inc.name.c_str(), inc.t_crash);
      }
    }
  }
  if (!quiet && result.telemetry.has_value() &&
      !result.telemetry->flows.empty()) {
    std::puts("\ntime series (window end, delivered, mean delay ms, drops):");
    for (const auto& w : mdr::obs::network_windows(result.telemetry->flows)) {
      std::printf("  %8.1f %8llu %10.3f %6llu\n", w.t,
                  static_cast<unsigned long long>(w.delivered),
                  w.mean_delay_s() * 1e3,
                  static_cast<unsigned long long>(w.dropped));
    }
  }
}

void print_batch(const mdr::runner::BatchResult& batch) {
  std::printf("%-24s %14s %12s %12s\n", "flow", "mean (ms)", "stddev (ms)",
              "95% CI (±ms)");
  for (const auto& f : batch.flows) {
    std::printf("%-24s %14.3f %12.3f %12.3f\n", (f.src + "->" + f.dst).c_str(),
                f.mean_delay_s * 1e3, f.stddev_delay_s * 1e3,
                f.ci95_delay_s * 1e3);
  }
  std::printf(
      "network average delay: %.3f ms (stddev %.3f, 95%% CI ±%.3f) over %zu "
      "replications\n",
      batch.avg_delay_s.mean() * 1e3, batch.avg_delay_s.stddev() * 1e3,
      mdr::ci95_halfwidth(batch.avg_delay_s) * 1e3, batch.runs.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string mode_override;
  std::string seed_override;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string prof_out_path;
  bool prof_deep = false;
  double sample_interval = -1;  // < 0: keep the scenario's setting
  double checkpoint_interval = -1;  // < 0: keep the scenario's setting
  std::string checkpoint_path;
  std::string resume_path;
  long retries = 1;
  double job_timeout = 0;
  std::string result_dir;
  long seeds = 1;
  long jobs = 1;
  long shards = -1;  // < 0: keep the scenario's engine setting
  bool quiet = false;
  bool validate = false;
  std::string sweep_arg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode" && i + 1 < argc) {
      mode_override = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed_override = argv[++i];
    } else if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = std::strtol(argv[++i], nullptr, 10);
      if (shards < 1) {
        std::fputs("mdrsim: --shards must be at least 1\n", stderr);
        return 2;
      }
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--prof-out" && i + 1 < argc) {
      prof_out_path = argv[++i];
    } else if (arg == "--prof-deep") {
      prof_deep = true;
    } else if (arg == "--sample-interval" && i + 1 < argc) {
      sample_interval = std::strtod(argv[++i], nullptr);
      if (sample_interval <= 0) {
        std::fputs("mdrsim: --sample-interval must be positive\n", stderr);
        return 2;
      }
    } else if (arg == "--checkpoint-interval" && i + 1 < argc) {
      checkpoint_interval = std::strtod(argv[++i], nullptr);
      if (checkpoint_interval <= 0) {
        std::fputs("mdrsim: --checkpoint-interval must be positive\n", stderr);
        return 2;
      }
    } else if (arg == "--checkpoint-path" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--resume-from" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (arg == "--retries" && i + 1 < argc) {
      retries = std::strtol(argv[++i], nullptr, 10);
      if (retries < 1) {
        std::fputs("mdrsim: --retries must be at least 1\n", stderr);
        return 2;
      }
    } else if (arg == "--job-timeout" && i + 1 < argc) {
      job_timeout = std::strtod(argv[++i], nullptr);
      if (job_timeout <= 0) {
        std::fputs("mdrsim: --job-timeout must be positive\n", stderr);
        return 2;
      }
    } else if (arg == "--result-dir" && i + 1 < argc) {
      result_dir = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--sweep" && i + 1 < argc) {
      sweep_arg = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (path.empty() || seeds < 1 || jobs < 1) {
    usage();
    return 2;
  }

  std::string error;
  auto scenario = mdr::sim::load_scenario(path, &error);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "mdrsim: %s\n", error.c_str());
    return 1;
  }
  if (!mode_override.empty()) {
    if (mode_override != "mp" && mode_override != "sp" &&
        mode_override != "opt") {
      std::fprintf(stderr, "mdrsim: bad --mode %s\n", mode_override.c_str());
      return 2;
    }
    scenario->mode = mode_override;
  }
  if (!seed_override.empty()) {
    scenario->spec.config.seed = static_cast<std::uint64_t>(
        std::strtoull(seed_override.c_str(), nullptr, 10));
  }
  auto& config = scenario->spec.config;
  if (sample_interval > 0) config.sample_interval = sample_interval;
  if (!metrics_path.empty() && config.sample_interval <= 0) {
    config.sample_interval = 1.0;  // sensible default when asked for metrics
  }
  if (!trace_path.empty()) config.trace = true;
  if (prof_deep) {
    config.prof = true;
    config.prof_deep = true;
  }
  if (!prof_out_path.empty()) {
    config.prof = true;
    if (seeds > 1 || !sweep_arg.empty()) {
      std::fputs(
          "mdrsim: --prof-out writes one trace for one simulation; use "
          "--seeds 1 and no --sweep (batches still merge a prof block into "
          "--json via the scenario `prof` directive)\n",
          stderr);
      return 2;
    }
  }
  if (checkpoint_interval > 0) config.checkpoint_interval = checkpoint_interval;
  if (!checkpoint_path.empty()) config.checkpoint_path = checkpoint_path;
  if (!resume_path.empty()) config.resume_from = resume_path;
  if (config.checkpoint_interval > 0 && config.checkpoint_path.empty()) {
    std::fputs(
        "mdrsim: checkpointing needs a snapshot path (--checkpoint-path or "
        "the scenario's `checkpoint path=`)\n",
        stderr);
    return 2;
  }
  if ((config.checkpoint_interval > 0 || !config.resume_from.empty()) &&
      (seeds > 1 || !sweep_arg.empty())) {
    std::fputs(
        "mdrsim: checkpoint/resume snapshots a single simulation; use "
        "--seeds 1 and no --sweep (batch-level resume is --result-dir)\n",
        stderr);
    return 2;
  }
  if (shards >= 1) scenario->spec.engine.shards = static_cast<int>(shards);
  try {
    mdr::sim::validate_engine(scenario->spec.topo, config,
                              scenario->spec.engine);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "mdrsim: %s\n", e.what());
    return 2;
  }
  // The engine runs `shards` threads per simulation; sharing the thread
  // budget with the replication fan-out would oversubscribe the host, so
  // the runner's job count shrinks to compensate.
  if (jobs > 1) {
    const long effective = std::max(1L, jobs / scenario->spec.engine.shards);
    if (effective != jobs) {
      std::fprintf(stderr,
                   "mdrsim: note: %ld shards per run, shrinking --jobs %ld "
                   "-> %ld to keep ~%ld threads\n",
                   static_cast<long>(scenario->spec.engine.shards), jobs,
                   effective, jobs);
      jobs = effective;
    }
  }

  if (validate) {
    const auto& spec = scenario->spec;
    std::printf("%s: OK\n", path.c_str());
    std::printf("  topology: %zu nodes, %zu links\n", spec.topo.num_nodes(),
                spec.topo.num_links());
    std::printf("  flows: %zu  mode=%s  seed=%llu  duration=%.1fs\n",
                spec.flows.size(), scenario->mode.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.duration);
    const char* model =
        config.traffic.model == mdr::sim::TrafficModel::kPoisson ? "poisson"
        : config.traffic.model == mdr::sim::TrafficModel::kOnOff ? "bursty"
        : config.traffic.model == mdr::sim::TrafficModel::kParetoOnOff
            ? "pareto"
            : "adversarial";
    std::printf("  traffic: %s", model);
    if (config.traffic.diurnal_period_s > 0) {
      std::printf(", diurnal period=%.1fs amp=%.2f",
                  config.traffic.diurnal_period_s,
                  config.traffic.diurnal_amplitude);
    }
    if (!config.traffic.flash_crowds.empty()) {
      std::printf(", %zu flash crowd(s)", config.traffic.flash_crowds.size());
    }
    std::printf("\n");
    const auto& faults = config.faults;
    std::printf(
        "  faults: %zu toggles, %zu crashes, %zu recoveries, %zu flaps, "
        "%zu gilbert, %zu dutycycles\n",
        config.link_toggles.size(), faults.crashes.size(),
        faults.recoveries.size(), faults.flaps.size(), faults.gilbert.size(),
        faults.duty_cycles.size());
    std::printf("  hello: %s  monitor: %s  stability: %s",
                config.use_hello ? "on" : "off",
                config.monitor_interval > 0 ? "on" : "off",
                config.stability.interval > 0 ? "on" : "off");
    std::printf("  engine: %d shard(s)\n", scenario->spec.engine.shards);
    return 0;
  }

  if (!sweep_arg.empty()) {
    mdr::runner::SweepOptions options;
    if (sweep_arg != "auto") {
      double lo = 0, hi = 0;
      long steps = 0;
      char colon1 = 0, colon2 = 0;
      std::istringstream in(sweep_arg);
      in >> lo >> colon1 >> hi >> colon2 >> steps;
      if (!in || colon1 != ':' || colon2 != ':' || lo <= 0 || hi < lo ||
          steps < 1) {
        std::fputs("mdrsim: --sweep wants lo:hi:steps (lo > 0, hi >= lo, "
                   "steps >= 1) or 'auto'\n",
                   stderr);
        return 2;
      }
      options.lo = lo;
      options.hi = hi;
      options.steps = static_cast<int>(steps);
    }
    const auto sweep = mdr::runner::run_load_sweep(scenario->spec,
                                                   scenario->mode, options,
                                                   &std::cout);
    std::printf(
        "{\"kind\":\"sweep_summary\",\"mode\":\"%s\",\"stable_high\":%.17g,"
        "\"unstable_low\":%.17g,\"critical\":%.17g,\"monotone\":%s,"
        "\"probes\":%zu}\n",
        scenario->mode.c_str(), sweep.stable_high, sweep.unstable_low,
        sweep.critical, sweep.monotone ? "true" : "false",
        sweep.points.size());
    return sweep.monotone ? 0 : 1;
  }

  mdr::runner::BatchResult batch;
  const auto exec_start = std::chrono::steady_clock::now();
  if (seeds == 1) {
    // Single runs execute inline (same derived seed and aggregation as a
    // batch of one, so the output is unchanged) with SIGINT/SIGTERM wired
    // to the simulation's cooperative stop flag: on a signal the sim writes
    // a final checkpoint (when configured), hands back partial telemetry,
    // and mdrsim exits 128+signal.
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    batch.mode = scenario->mode;
    batch.base_seed = scenario->spec.config.seed;
    batch.jobs = static_cast<int>(jobs);
    mdr::sim::ExperimentSpec spec = scenario->spec;
    spec.config.seed = mdr::runner::derive_seed(batch.base_seed, 0);
    spec.config.interrupt = &g_stop;
    try {
      batch.runs.push_back(mdr::sim::run_experiment(spec, scenario->mode));
    } catch (const mdr::sim::SimInterrupted& interrupted) {
      const int sig = g_signal.load(std::memory_order_relaxed);
      std::fprintf(stderr, "mdrsim: interrupted by signal %d at a safe boundary%s\n",
                   sig,
                   spec.config.checkpoint_path.empty()
                       ? ""
                       : ("; checkpoint written to " +
                          spec.config.checkpoint_path)
                             .c_str());
      // Flush whatever telemetry the partial run accumulated so an
      // interrupted experiment still leaves analyzable output behind.
      if (interrupted.telemetry.has_value() && !metrics_path.empty()) {
        const auto names = mdr::sim::telemetry_names(scenario->spec.topo,
                                                     scenario->spec.flows);
        std::ofstream out(metrics_path);
        if (out) {
          if (ends_with(metrics_path, ".csv")) {
            mdr::obs::write_samples_csv(out, *interrupted.telemetry, names,
                                        /*run=*/0, /*header=*/true);
          } else {
            mdr::obs::write_samples_jsonl(out, *interrupted.telemetry, names,
                                          /*run=*/0);
            mdr::obs::write_metrics_jsonl(out, interrupted.telemetry->metrics,
                                          "0");
          }
        }
      }
      if (interrupted.telemetry.has_value() && !trace_path.empty()) {
        const auto names = mdr::sim::telemetry_names(scenario->spec.topo,
                                                     scenario->spec.flows);
        std::ofstream out(trace_path);
        if (out) {
          mdr::obs::write_trace_jsonl(out, *interrupted.telemetry, names,
                                      /*run=*/0);
        }
      }
      return 128 + (sig > 0 ? sig : SIGINT);
    } catch (const mdr::ckpt::Error& e) {
      // A missing, corrupt or mismatched snapshot is an I/O error, not a
      // crash: name the problem and exit 1 like any other unreadable input.
      std::fprintf(stderr, "mdrsim: checkpoint error: %s\n", e.what());
      return 1;
    }
    mdr::runner::JobOutcome outcome{"ok", 1, ""};
    outcome.wall_clock_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - exec_start)
                               .count();
    outcome.peak_rss_bytes = mdr::runner::peak_rss_bytes();
    batch.outcomes.push_back(std::move(outcome));
    batch.flows = mdr::runner::aggregate_flows(batch.runs);
    batch.avg_delay_s.add(batch.runs.front().avg_delay_s);
    if (batch.runs.front().telemetry.has_value()) {
      batch.metrics.merge(batch.runs.front().telemetry->metrics);
    }
    batch.prof = batch.runs.front().prof;
    batch.convergence = batch.runs.front().convergence;
  } else {
    mdr::runner::Options options;
    options.jobs = static_cast<int>(jobs);
    options.base_seed = scenario->spec.config.seed;
    options.max_attempts = static_cast<int>(retries);
    options.job_timeout_s = job_timeout;
    options.result_dir = result_dir;
    mdr::runner::ExperimentRunner runner(options);
    batch = runner.run_replicated(scenario->spec, scenario->mode,
                                  static_cast<int>(seeds));
  }

  std::printf("scenario: %s  mode=%s  base_seed=%llu  seeds=%ld  jobs=%ld\n",
              path.c_str(), scenario->mode.c_str(),
              static_cast<unsigned long long>(scenario->spec.config.seed),
              seeds, jobs);
  if (batch.runs.size() == 1) {
    print_single_run(batch.runs.front(), quiet);
  } else {
    print_batch(batch);
  }

  // Host-side throughput, on every engine. stderr only: stdout stays
  // byte-identical run to run while host timings never are.
  {
    const double exec_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - exec_start)
                              .count();
    unsigned long long total_events = 0;
    for (const auto& r : batch.runs) total_events += r.events_processed;
    std::fprintf(stderr,
                 "mdrsim: %llu events in %.3f s host, %.3g events/s\n",
                 total_events, exec_s,
                 exec_s > 0 ? static_cast<double>(total_events) / exec_s : 0.0);
  }
  if (batch.prof.has_value()) {
    std::fputs(batch.prof->summary_table().c_str(), stderr);
  }
  if (batch.convergence.has_value()) {
    const auto& conv = *batch.convergence;
    std::fprintf(stderr,
                 "[prof] convergence: %zu spans (records %llu, dropped "
                 "%llu), time-to-converge mean %.4fs p95 %.4fs max %.4fs; "
                 "amplification mean %.1f routers / %.1f recomputes, max "
                 "%.0f routers\n",
                 conv.spans.size(),
                 static_cast<unsigned long long>(conv.records),
                 static_cast<unsigned long long>(conv.dropped),
                 conv.mean_convergence_s, conv.p95_convergence_s,
                 conv.max_convergence_s, conv.mean_routers_touched,
                 conv.mean_recomputes, conv.max_routers_touched);
  }

  // Per-job failures never abort the batch; they surface here (and in the
  // JSON rows) and flip the exit code so CI notices.
  bool any_failed = false;
  for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
    const auto& oc = batch.outcomes[i];
    if (oc.status == "failed") {
      any_failed = true;
      std::fprintf(stderr, "mdrsim: job %zu failed after %d attempt(s): %s\n",
                   i, oc.attempts, oc.error.c_str());
    } else if (oc.status == "cached") {
      std::fprintf(stderr, "mdrsim: job %zu skipped (result marker in %s)\n",
                   i, result_dir.c_str());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "mdrsim: cannot write %s\n", json_path.c_str());
      return 1;
    }
    mdr::runner::write_results_json(out, batch, path);
  }

  if (!prof_out_path.empty()) {
    if (!batch.prof.has_value()) {
      // A failed single run leaves no report; surface that instead of
      // writing an empty trace.
      std::fprintf(stderr, "mdrsim: no profile collected, skipping %s\n",
                   prof_out_path.c_str());
    } else {
      std::ofstream out(prof_out_path);
      if (!out) {
        std::fprintf(stderr, "mdrsim: cannot write %s\n",
                     prof_out_path.c_str());
        return 1;
      }
      mdr::obs::write_trace_json(out, *batch.prof,
                                 batch.convergence.has_value()
                                     ? *batch.convergence
                                     : mdr::obs::ConvergenceReport{});
      std::fprintf(stderr, "mdrsim: trace-event JSON written to %s\n",
                   prof_out_path.c_str());
    }
  }

  if (!metrics_path.empty() || !trace_path.empty()) {
    const auto names =
        mdr::sim::telemetry_names(scenario->spec.topo, scenario->spec.flows);
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::fprintf(stderr, "mdrsim: cannot write %s\n",
                     metrics_path.c_str());
        return 1;
      }
      const bool csv = ends_with(metrics_path, ".csv");
      for (std::size_t i = 0; i < batch.runs.size(); ++i) {
        if (!batch.runs[i].telemetry.has_value()) continue;
        const auto& telemetry = *batch.runs[i].telemetry;
        const int run = static_cast<int>(i);
        if (csv) {
          mdr::obs::write_samples_csv(out, telemetry, names, run,
                                      /*header=*/i == 0);
        } else {
          mdr::obs::write_samples_jsonl(out, telemetry, names, run);
          mdr::obs::write_metrics_jsonl(out, telemetry.metrics,
                                        std::to_string(run));
        }
      }
      if (!csv) mdr::obs::write_metrics_jsonl(out, batch.metrics, "merged");
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "mdrsim: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      for (std::size_t i = 0; i < batch.runs.size(); ++i) {
        if (!batch.runs[i].telemetry.has_value()) continue;
        mdr::obs::write_trace_jsonl(out, *batch.runs[i].telemetry, names,
                                    static_cast<int>(i));
      }
    }
  }
  return any_failed ? 1 : 0;
}

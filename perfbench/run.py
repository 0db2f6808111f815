#!/usr/bin/env python3
"""Repository benchmark: the MPDA + IH/AH packet simulator, end to end and
layer by layer.

    python3 perfbench/run.py --workload cairn_paper --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. It builds perfbench_worker (perfbench/
CMakeLists.txt, Release, into .bench_build/), then starts one worker process
per measured run, so every host-time figure and the peak RSS belong to a
single untraced workload. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; progress goes to stderr.

--trace 0 reports the end-to-end metrics: medians over the runs that fit in
--seconds, set-up time as the median of the set-ups a separate process times
before each run, so that they sample the same stretch of host time as the
runs (on a shared VM, host speed can drift by 1.7x over tens of seconds).
--trace 1 reports the per-layer metrics: one more run with the deep profiler
on, beside untraced runs for trace.overhead_ratio; the benchmark's own spans
and the profiler report go to .bench_build/traces/.

Operations are the data packets a workload injects (whole-run ledger). A
run that crashes or fails a check counts all of its operations as failed and
makes "correct" false. Packets the simulated network drops are not failures
of the program: they are its modelled outcome, reported as loss_share, and
fixed for a given seed.

--tiny shrinks every workload for the benchmark's own tests
(perfbench/test_perfbench.py).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD, "perfbench_worker")
# Every measured process must end within this many seconds of the build.
DEADLINE_S = 170

# Default seed per workload and how many set-ups one set-up process times
# before each measured run (about a tenth of a second of set-up per batch).
WORKLOADS = {
    "cairn_paper": {"seed": 7, "setup_reps": 100},
    "waxman_startup": {"seed": 11, "setup_reps": 5},
    "waxman_churn": {"seed": 11, "setup_reps": 50},
    "waxman_sharded": {"seed": 11, "setup_reps": 50},
}

END_TO_END = [
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_delay_ms", "sim_ms"),
    ("sim_p99_delay_ms", "sim_ms"),
    ("loss_share", "ratio"),
    ("control_mbit", "sim_Mbit"),
]

PER_LAYER = [
    ("setup.generate_s", "s"),
    ("setup.fault_plan_s", "s"),
    ("setup.build_s", "s"),
    ("mem.build_rss_mb", "MB"),
    ("sim.events", "count"),
    ("sim.dispatch.self_s", "s"),
    ("sim.link.hops", "count"),
    ("sim.link.self_s", "s"),
    ("mpda.lsu_decode.count", "count"),
    ("mpda.table_update.count", "count"),
    ("mpda.table_update.self_s", "s"),
    ("mpda.recompute.self_s", "s"),
    ("mpda.flood.count", "count"),
    ("mpda.flood.self_s", "s"),
    ("control.lsus_originated", "count"),
    ("control.lsus_retransmitted", "count"),
    ("control.acks", "count"),
    ("alloc.ih.count", "count"),
    ("alloc.ah.count", "count"),
    ("alloc.self_s", "s"),
    ("engine.windows", "count"),
    ("engine.busy_s", "s"),
    ("engine.stall_s", "s"),
    ("engine.handoff_s", "s"),
    ("engine.imbalance", "ratio"),
    ("sim.report.self_s", "s"),
    ("packets.injected", "count"),
    ("packets.delivered", "count"),
    ("trace.overhead_ratio", "ratio"),
]

# Worker outputs fixed for a given seed: equal in every run of a workload,
# traced or not.
DETERMINISTIC = [
    "events", "injected", "delivered", "delivered_measured", "sim_delay_ms",
    "sim_p99_delay_ms", "loss_share", "control_mbit", "lsus_originated",
    "lsus_retransmitted", "acks", "lfi_checks", "lfi_violations",
    "monitor_checks", "forwarding_loops", "accounting_leaks",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the worker; False if either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_worker",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
        except OSError as e:
            log(f"perfbench: {e}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return os.access(WORKER, os.X_OK)


def worker(args, mode, reps=1):
    """Runs one worker process; returns its JSON output, or None on failure."""
    workload = args.workload
    cmd = [WORKER, workload, "--seed", str(args.seed), "--data", HERE,
           "--mode", mode, "--reps", str(reps)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(1.0, args.deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} {mode} run timed out")
        return None
    if done.stderr:
        sys.stderr.write(done.stderr[-2000:])
    if done.returncode != 0:
        log(f"perfbench: {workload} {mode} run exited {done.returncode}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} {mode} run printed no result")
        return None


def check(workload, out):
    """Correctness checks on one run's outputs; returns the failures."""
    errors = []
    injected, delivered = out["injected"], out["delivered"]
    if out["events"] <= 0 or injected <= 0:
        errors.append("no events or no packets injected")
    if not out["delivered_measured"] <= delivered <= injected:
        errors.append("ledger out of order: measured <= delivered <= injected")
    if not 0 <= out["loss_share"] <= 1:
        errors.append(f"loss_share {out['loss_share']} outside [0, 1]")
    if injected > 0 and out["loss_share"] != 1.0 - delivered / injected:
        errors.append("loss_share != 1 - delivered/injected")
    if not out["sim_delay_ms"] > 0:
        errors.append("no measured delay")
    if workload == "cairn_paper":
        if out["lfi_checks"] == 0 or out["lfi_violations"] != 0:
            errors.append(f"LFI: {out['lfi_violations']} violations in "
                          f"{out['lfi_checks']} checks")
    if workload == "waxman_churn":
        if (out.get("monitor_checks", 0) == 0 or out["forwarding_loops"] != 0
                or out["accounting_leaks"] != 0):
            errors.append(f"monitor: {out.get('forwarding_loops')} loops, "
                          f"{out.get('accounting_leaks')} leaks in "
                          f"{out.get('monitor_checks')} sweeps")
    return errors


def digest(out):
    return {k: out.get(k) for k in DETERMINISTIC}


class Ledger:
    """Operations attempted and failed over every run of one invocation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference = None  # the first successful run's digest

    def add(self, out):
        if out is None:
            # The run never reported its ledger: charge it the packets an
            # identical run injects (one, if none has reported yet).
            injected = self.reference["injected"] if self.reference else 1
            self.attempted += injected
            self.failed += injected
            self.correct = False
            return
        errors = check(self.workload, out)
        if self.reference is None:
            self.reference = digest(out)
        elif digest(out) != self.reference:
            errors.append("deterministic outputs differ between runs: "
                          f"{digest(out)} vs {self.reference}")
        self.attempted += out["injected"]
        if errors:
            for e in errors:
                log(f"perfbench: CHECK FAILED ({self.workload}): {e}")
            self.failed += out["injected"]
            self.correct = False


def timed_runs(args, ledger, seconds, min_runs):
    """Untraced runs, one process each, until `seconds` have passed, each
    after a batch of set-ups timed in a process of its own. Returns the runs
    and the median of every set-up phase over all batches."""
    reps = 3 if args.tiny else WORKLOADS[args.workload]["setup_reps"]
    runs = []
    setups = {}
    start = time.monotonic()
    while len(runs) < min_runs or time.monotonic() - start < seconds:
        batch = worker(args, "setup", reps)
        out = worker(args, "run") if batch is not None else None
        ledger.add(out)
        if out is None:
            break  # the ledger has charged the failure; stop measuring
        for phase, times in batch.items():
            if isinstance(times, list):
                setups.setdefault(phase, []).extend(times)
        runs.append(out)
        log(f"  run {len(runs)}: wall {out['wall_s']:.4f} s, "
            f"cpu {out['cpu_s']:.4f} s, rss {out['peak_rss_mb']:.1f} MB")
    return runs, {k: statistics.median(v) for k, v in setups.items()}


def end_to_end(args, ledger):
    runs, setup = timed_runs(args, ledger, args.seconds, min_runs=3)
    if not runs:
        return None
    med = lambda key: statistics.median(r[key] for r in runs)
    ref = runs[0]
    return {
        "wall_s": med("wall_s"),
        "events_per_s": statistics.median(r["events"] / r["wall_s"]
                                          for r in runs),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": setup["setup_s"],
        "sim_delay_ms": ref["sim_delay_ms"],
        "sim_p99_delay_ms": ref["sim_p99_delay_ms"],
        "loss_share": ref["loss_share"],
        "control_mbit": ref["control_mbit"],
    }


def per_layer(args, ledger):
    untraced, setup = timed_runs(args, ledger, args.seconds / 2, min_runs=1)
    traced = worker(args, "traced")
    ledger.add(traced)
    if not untraced or traced is None:
        return None
    metrics = {
        "setup.generate_s": setup["setup.generate_s"],
        "setup.fault_plan_s": setup["setup.fault_plan_s"],
        "setup.build_s": setup["setup.build_s"],
        "mem.build_rss_mb": statistics.median(r["build_rss_mb"]
                                              for r in untraced),
        "sim.events": traced["events"],
        "control.lsus_originated": traced["lsus_originated"],
        "control.lsus_retransmitted": traced["lsus_retransmitted"],
        "control.acks": traced["acks"],
        "packets.injected": traced["injected"],
        "packets.delivered": traced["delivered"],
        "trace.overhead_ratio": traced["wall_s"] / statistics.median(
            r["wall_s"] for r in untraced),
    }
    for name, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = traced[name]
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    path = os.path.join(BUILD, "traces",
                        f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": traced["spans"],
                   "prof_report": traced["prof_report"],
                   "metrics": metrics}, f, indent=1)
    log(f"  trace written to {os.path.relpath(path, ROOT)}")
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload (for the benchmark's own tests)")
    args = p.parse_args()
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["seed"]

    if not build():
        sys.exit(2)
    args.deadline = time.monotonic() + DEADLINE_S
    log(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}")
    ledger = Ledger(args.workload)
    values = (per_layer if args.trace else end_to_end)(args, ledger)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units:
        value = values[name] if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
        log(f"  {name:<28} {value:.6g} {unit}")
    print(json.dumps({"correct": ledger.correct and values is not None,
                      "attempted": max(1, ledger.attempted),
                      "failed": ledger.failed if ledger.attempted else 1,
                      "metrics": metrics}))
    sys.exit(0 if ledger.correct and values is not None else 1)


if __name__ == "__main__":
    main()

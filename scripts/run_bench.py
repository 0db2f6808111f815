#!/usr/bin/env python3
"""Run a perf baseline and validate its JSON output.

Usage:
    run_bench.py [--bench event_core|control_plane] [--smoke]
                 [--build-dir DIR] [--out FILE] [--compare BASE.json]
    run_bench.py --validate-only FILE [--compare BASE.json]

Drives build/bench/perf_event_core or build/bench/perf_control_plane
(building the target first if a build tree is configured), validates the
emitted JSON against the schema documented in docs/BENCHMARKS.md, and
writes the result to --out (default: BENCH_<bench>.json at the repo
root). --validate-only dispatches on the file's own "bench" field.

--compare BASE.json prints, for every number the result shares with a
committed baseline, the baseline value, the new one and their ratio, plus
each engine series' per-shard scaling (wall at 1 shard over wall at S)
before and after. It is informational: it never changes the exit code.

The control_plane series additionally measures the profiler-attributed
control-plane busy-time share on the 1000-router Waxman scenario (mdrsim
--prof-deep; share = table_update+recompute self time over engine busy
time) and folds it into the JSON — the number the incremental table
maintenance is accountable to. Skipped in --smoke (CI minutes are real);
the committed full-mode baseline must carry it.

Validation is STRUCTURAL, plus the one invariant that is deterministic on
any machine: the typed packet path must be allocation-free
(micro.typed_link_hop.allocs_per_event < 1e-3 — the small tolerance covers
rare timer-wheel slot high-water growth, which is amortized, not
per-event). There are deliberately NO timing assertions: wall-clock
numbers on shared CI runners are noise, and a perf gate that flakes
teaches people to ignore it. Timing regressions are caught by comparing
the committed BENCH_event_core.json across PRs, by a human.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Every micro series carries the same five fields.
SERIES_FIELDS = {
    "events": int,
    "wall_seconds": float,
    "ns_per_event": float,
    "events_per_sec": (int, float),
    "allocs_per_event": float,
}

MACRO_FIELDS = {
    "scenario": str,
    "sim_seconds": (int, float),
    "wall_seconds": float,
    "events": int,
    "events_per_sec": (int, float),
    "delivered": int,
    "peak_rss_bytes": int,
}

# One point of the engine shard-scaling series.
ENGINE_POINT_FIELDS = {
    "shards": int,
    "wall_seconds": float,
    "events": int,
    "events_per_sec": (int, float),
    "delivered": int,
}

SCALE_FIELDS = {
    "scenario": str,
    "nodes": int,
    "shards": int,
    "sim_seconds": (int, float),
    "wall_seconds": float,
    "events": int,
    "events_per_sec": (int, float),
    "delivered": int,
}

# Informational checkpoint save/restore cost on the CAIRN macro scenario
# (docs/CHECKPOINT.md "Cost"). Optional in the schema — older baselines
# predate it — and deliberately carries NO timing gate.
CKPT_FIELDS = {
    "scenario": str,
    "interval_s": (int, float),
    "snapshots": int,
    "last_bytes": int,
    "save_ms_mean": float,
    "load_ms": float,
}

# One "[ckpt] save path=... bytes=... ms=... t=..." / "[ckpt] load ..."
# cost line on mdrsim's stderr (never in telemetry, which must stay
# byte-identical with checkpointing on or off).
CKPT_LINE = re.compile(
    r"\[ckpt\] (save|load) path=\S+(?: bytes=(\d+))? ms=([0-9.]+) t=")

# The shard counts every baseline must sweep, in order.
ENGINE_SERIES_SHARDS = [1, 2, 4, 8]

# The typed hop path must not allocate per event. The bound is not 0.0
# exactly: the timer wheel's slot vectors occasionally grow to a new
# high-water mark (a few allocations per million events, amortized to
# zero); anything near the legacy core's ~0.57 allocs/event is a real
# regression and fails loudly here.
MAX_TYPED_ALLOCS_PER_EVENT = 1e-3


def fail(msg):
    print(f"run_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(f"{name} is not a number: {value!r}")
    if not math.isfinite(value):
        fail(f"{name} is not finite: {value!r}")
    if value < 0:
        fail(f"{name} is negative: {value!r}")


def check_fields(obj, fields, prefix):
    if not isinstance(obj, dict):
        fail(f"{prefix} is not an object")
    for key, kind in fields.items():
        if key not in obj:
            fail(f"{prefix}.{key} is missing")
        value = obj[key]
        if kind is str:
            if not isinstance(value, str):
                fail(f"{prefix}.{key} is not a string: {value!r}")
        else:
            check_number(value, f"{prefix}.{key}")
    extra = set(obj) - set(fields)
    if extra:
        fail(f"{prefix} has unknown fields: {sorted(extra)}")


def validate(doc):
    """Dispatches on the document's own bench field."""
    if not isinstance(doc, dict):
        fail("top level is not an object")
    bench = doc.get("bench")
    if bench == "event_core":
        validate_event_core(doc)
    elif bench == "control_plane":
        validate_control_plane(doc)
    else:
        fail(f"unknown bench: {bench!r}")


def validate_event_core(doc):
    if doc.get("version") != 2:
        fail(f"version != 2: {doc.get('version')!r}")
    if not isinstance(doc.get("smoke"), bool):
        fail("smoke is not a bool")
    check_number(doc.get("host_cpus"), "host_cpus")
    if doc["host_cpus"] < 1:
        fail(f"host_cpus < 1: {doc['host_cpus']}")

    micro = doc.get("micro")
    if not isinstance(micro, dict):
        fail("micro is missing or not an object")
    for series in ("legacy_fn_heap", "typed_link_hop", "timer_wheel"):
        check_fields(micro.get(series), SERIES_FIELDS, f"micro.{series}")
        if micro[series]["events"] == 0:
            fail(f"micro.{series}.events == 0")
    check_number(micro.get("speedup_vs_legacy"), "micro.speedup_vs_legacy")

    check_fields(doc.get("macro"), MACRO_FIELDS, "macro")
    if doc["macro"]["delivered"] == 0:
        fail("macro.delivered == 0 (simulation carried no traffic)")

    # Engine shard-scaling series: structural only — NO timing or speedup
    # gates (a 1-CPU container legitimately shows slowdown; host_cpus is
    # the published context). What IS asserted: the sweep covers the
    # canonical shard counts, every point carried traffic, and all points
    # processed the same simulation (byte-identity across shard
    # counts is pinned by tests/parallel_engine_test.cc; here the cheap
    # proxy is identical delivered counts for every point).
    engine = doc.get("engine")
    if not isinstance(engine, dict):
        fail("engine is missing or not an object")
    if not isinstance(engine.get("scenario"), str):
        fail("engine.scenario is not a string")
    check_number(engine.get("sim_seconds"), "engine.sim_seconds")
    check_number(engine.get("speedup_4_shards_vs_1"),
                 "engine.speedup_4_shards_vs_1")
    series = engine.get("series")
    if not isinstance(series, list):
        fail("engine.series is not a list")
    if [p.get("shards") for p in series] != ENGINE_SERIES_SHARDS:
        fail(f"engine.series shard counts != {ENGINE_SERIES_SHARDS}")
    for point in series:
        check_fields(point, ENGINE_POINT_FIELDS,
                     f"engine.series[shards={point.get('shards')}]")
        if point["delivered"] == 0:
            fail(f"engine.series[shards={point['shards']}].delivered == 0")
    delivered = {p["delivered"] for p in series}
    if len(delivered) != 1:
        fail(f"engine points disagree on delivered packets: "
             f"{sorted(delivered)} — shard-count determinism is broken")

    check_fields(doc.get("scale"), SCALE_FIELDS, "scale")
    if doc["scale"]["delivered"] == 0:
        fail("scale.delivered == 0 (simulation carried no traffic)")
    if not doc["smoke"] and doc["scale"]["nodes"] < 1000:
        fail(f"scale.nodes = {doc['scale']['nodes']} — the committed "
             f"full-mode baseline must carry the 1000-router point")

    typed_allocs = micro["typed_link_hop"]["allocs_per_event"]
    if typed_allocs >= MAX_TYPED_ALLOCS_PER_EVENT:
        fail(
            f"typed_link_hop.allocs_per_event = {typed_allocs} — the typed "
            f"packet path must be allocation-free (< "
            f"{MAX_TYPED_ALLOCS_PER_EVENT})"
        )

    ckpt = doc.get("ckpt")
    if ckpt is not None:
        check_fields(ckpt, CKPT_FIELDS, "ckpt")
        if ckpt["snapshots"] < 1:
            fail("ckpt.snapshots < 1 (no save line was captured)")
        if ckpt["last_bytes"] == 0:
            fail("ckpt.last_bytes == 0 (empty snapshot)")

    legacy_allocs = micro["legacy_fn_heap"]["allocs_per_event"]
    if legacy_allocs <= typed_allocs:
        fail(
            f"legacy allocs/event ({legacy_allocs}) <= typed "
            f"({typed_allocs}) — the legacy series lost its per-delivery "
            f"closure allocation; the comparison is no longer meaningful"
        )


# Schema for the control_plane bench (BENCH_control_plane.json).
CP_SERIES_FIELDS = {
    "events": int,
    "wall_seconds": float,
    "ns_per_event": float,
    "events_per_sec": (int, float),
}

CP_STARTUP_FIELDS = {
    "scenario": str,
    "nodes": int,
    "shards": int,
    "sim_seconds": (int, float),
    "wall_seconds": float,
    "events": int,
    "events_per_sec": (int, float),
    "delivered": int,
}

# Profiler-attributed control-plane share, measured by this script from
# mdrsim --prof-deep on the waxman_scale scenario. Optional in --smoke
# runs; the committed full-mode baseline must carry it.
CP_PROF_FIELDS = {
    "scenario": str,
    "shards": int,
    "table_update_self_ns": int,
    "recompute_self_ns": int,
    "engine_busy_total_ns": int,
    "share": float,
}


def validate_control_plane(doc):
    if doc.get("version") != 1:
        fail(f"version != 1: {doc.get('version')!r}")
    if not isinstance(doc.get("smoke"), bool):
        fail("smoke is not a bool")
    check_number(doc.get("host_cpus"), "host_cpus")

    storm = doc.get("storm")
    if not isinstance(storm, dict):
        fail("storm is missing or not an object")
    if not isinstance(storm.get("scenario"), str):
        fail("storm.scenario is not a string")
    check_number(storm.get("events"), "storm.events")
    if storm["events"] == 0:
        fail("storm.events == 0 (no LSU storm was replayed)")
    for series in ("incremental", "from_scratch"):
        check_fields(storm.get(series), CP_SERIES_FIELDS, f"storm.{series}")
    check_number(storm.get("speedup_vs_from_scratch"),
                 "storm.speedup_vs_from_scratch")
    # The bench binary aborts if the two implementations diverge, so a
    # validated file implies output equality. No timing gate on the
    # speedup value itself (shared-runner wall clock is noise); humans
    # diff the committed baseline.

    check_fields(doc.get("startup"), CP_STARTUP_FIELDS, "startup")
    if doc["startup"]["delivered"] == 0:
        fail("startup.delivered == 0 (simulation carried no traffic)")
    if not doc["smoke"] and doc["startup"]["nodes"] < 1000:
        fail(f"startup.nodes = {doc['startup']['nodes']} — the committed "
             f"full-mode baseline must carry the 1000-router point")

    prof = doc.get("prof_share")
    if prof is None:
        if not doc["smoke"]:
            fail("prof_share is missing — the committed full-mode baseline "
                 "must record the control-plane busy-time share")
    else:
        check_fields(prof, CP_PROF_FIELDS, "prof_share")
        if not 0.0 <= prof["share"] <= 1.0:
            fail(f"prof_share.share = {prof['share']} is not a fraction")
        if prof["engine_busy_total_ns"] == 0:
            fail("prof_share.engine_busy_total_ns == 0")

    # The pre-incremental reference point: same measurement, taken once at
    # the pinned commit (the last from-scratch-tables revision). Optional —
    # but when present its shape is held to the same schema, plus the CPU
    # count of the host it was taken on (a ratio against a measurement
    # from a host with a different count compares machines, not code).
    base = doc.get("prof_share_baseline")
    if base is not None:
        check_fields(base, dict(CP_PROF_FIELDS, commit=str, host_cpus=int),
                     "prof_share_baseline")
        if base["host_cpus"] < 1:
            fail(f"prof_share_baseline.host_cpus < 1: {base['host_cpus']}")
        if not 0.0 <= base["share"] <= 1.0:
            fail(f"prof_share_baseline.share = {base['share']} "
                 f"is not a fraction")
        if base["engine_busy_total_ns"] == 0:
            fail("prof_share_baseline.engine_busy_total_ns == 0")


def measure_prof_share(build_dir):
    """Control-plane busy-time share on the 1000-router Waxman scenario.

    Runs mdrsim with the deep profiler and computes
    (mpda.table_update + mpda.recompute self time) / engine.busy total
    time, summed across shard tracks. This is the number the dirty-set
    MTU and the incremental own SPT are accountable to (docs/SIMULATOR.md
    "Costs and scale" records the before/after).
    """
    mdrsim = build_dir / "apps" / "mdrsim"
    scenario = REPO_ROOT / "examples" / "scenarios" / "waxman_scale.scn"
    if not mdrsim.exists():
        print(f"run_bench: note: {mdrsim} not built, skipping prof share")
        return None
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "prof.json"
        subprocess.run([str(mdrsim), str(scenario), "--prof-deep",
                        "--json", str(out), "--quiet"],
                       check=True, capture_output=True, text=True)
        with open(out) as f:
            doc = json.load(f)
    prof = doc.get("prof")
    if not isinstance(prof, dict):
        fail("mdrsim --prof-deep emitted no prof block")
    table_ns = recompute_ns = busy_ns = 0
    for track in prof.get("host", {}).get("tracks", []):
        sections = track.get("sections", {})
        table_ns += sections.get("mpda.table_update", {}).get("self_ns", 0)
        recompute_ns += sections.get("mpda.recompute", {}).get("self_ns", 0)
        busy_ns += sections.get("engine.busy", {}).get("total_ns", 0)
    if busy_ns == 0:
        fail("prof block carries no engine.busy time")
    return {
        "scenario": str(scenario.relative_to(REPO_ROOT)),
        "shards": prof.get("shards", 0),
        "table_update_self_ns": int(table_ns),
        "recompute_self_ns": int(recompute_ns),
        "engine_busy_total_ns": int(busy_ns),
        "share": round((table_ns + recompute_ns) / busy_ns, 4),
    }


def measure_checkpoint_cost(build_dir):
    """Checkpoint save/restore cost on the CAIRN macro scenario.

    Runs mdrsim with periodic snapshots, then resumes from the last one,
    and collects the [ckpt] cost lines from stderr. Informational only:
    the numbers land in the baseline for humans to diff; nothing gates on
    them (wall-clock on shared runners is noise).
    """
    mdrsim = build_dir / "apps" / "mdrsim"
    scenario = REPO_ROOT / "examples" / "scenarios" / "cairn_mp.scn"
    if not mdrsim.exists():
        print(f"run_bench: note: {mdrsim} not built, skipping ckpt series")
        return None
    interval_s = 30
    with tempfile.TemporaryDirectory() as tmp:
        ck = pathlib.Path(tmp) / "bench.mdrk"
        base = [str(mdrsim), str(scenario), "--quiet",
                "--checkpoint-interval", str(interval_s),
                "--checkpoint-path", str(ck)]
        save_run = subprocess.run(base, check=True, capture_output=True,
                                  text=True)
        load_run = subprocess.run(base + ["--resume-from", str(ck)],
                                  check=True, capture_output=True, text=True)
    saves = [(int(m.group(2)), float(m.group(3)))
             for m in CKPT_LINE.finditer(save_run.stderr)
             if m.group(1) == "save"]
    loads = [float(m.group(3))
             for m in CKPT_LINE.finditer(load_run.stderr)
             if m.group(1) == "load"]
    if not saves or not loads:
        fail("mdrsim printed no [ckpt] save/load cost lines on stderr")
    return {
        "scenario": str(scenario.relative_to(REPO_ROOT)),
        "interval_s": interval_s,
        "snapshots": len(saves),
        "last_bytes": saves[-1][0],
        "save_ms_mean": round(sum(ms for _, ms in saves) / len(saves), 3),
        "load_ms": round(loads[0], 3),
    }


def numeric_leaves(node, path=""):
    """Yields (path, number) for every number in a bench document. List
    entries that carry a "shards" field are keyed by it, so a series
    compares point by point even when the sweep changes."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            key = (f"shards={value['shards']}"
                   if isinstance(value, dict) and "shards" in value else i)
            yield from numeric_leaves(value, f"{path}[{key}]")


def shard_scaling(doc):
    """{shards: wall at 1 shard / wall at S} for an engine series."""
    series = doc.get("engine", {}).get("series", []) \
        if isinstance(doc.get("engine"), dict) else []
    walls = {p.get("shards"): p.get("wall_seconds") for p in series
             if isinstance(p, dict)}
    one = walls.get(1)
    return {s: one / w for s, w in walls.items()
            if isinstance(one, (int, float)) and isinstance(w, (int, float))
            and w > 0}


def compare(doc, base_path):
    """Prints doc against the baseline at base_path; never fails."""
    try:
        with open(base_path) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"run_bench: compare: cannot read {base_path}: {e}")
        return
    print(f"run_bench: compare against {base_path} "
          f"(host_cpus {base.get('host_cpus')} -> {doc.get('host_cpus')}; "
          f"ratio = new / baseline)")
    old = dict(numeric_leaves(base))
    skip = {"version", "host_cpus"}
    for path, new in numeric_leaves(doc):
        if path in skip or path not in old:
            continue
        was = old[path]
        ratio = f"{new / was:8.3f}x" if was else "       -"
        print(f"  {path:<58} {was:>14.6g} -> {new:<14.6g} {ratio}")
    before, after = shard_scaling(base), shard_scaling(doc)
    for shards in sorted(set(before) & set(after)):
        print(f"  engine scaling {shards} shards vs 1: "
              f"{before[shards]:.2f}x -> {after[shards]:.2f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="event_core",
                        choices=["event_core", "control_plane"],
                        help="which perf baseline to run")
    parser.add_argument("--smoke", action="store_true",
                        help="short run (CI): ~200k hop events, 10 s macro")
    parser.add_argument("--build-dir", default=str(REPO_ROOT / "build"),
                        help="CMake build tree holding the bench binaries")
    parser.add_argument("--out", default=None,
                        help="where to write the validated JSON "
                             "(default: BENCH_<bench>.json)")
    parser.add_argument("--validate-only", metavar="FILE",
                        help="validate an existing JSON file and exit")
    parser.add_argument("--force", action="store_true",
                        help="overwrite a baseline recorded on a bigger host")
    parser.add_argument("--compare", metavar="BASE",
                        help="print the result against a baseline JSON "
                             "(informational; never fails the run)")
    args = parser.parse_args()
    if args.out is None:
        args.out = str(REPO_ROOT / f"BENCH_{args.bench}.json")

    if args.validate_only:
        with open(args.validate_only) as f:
            doc = json.load(f)
        validate(doc)
        print(f"run_bench: OK: {args.validate_only} matches the schema")
        if args.compare:
            compare(doc, args.compare)
        return

    # A baseline measured on a bigger machine (more cores) would be silently
    # replaced by slower numbers from this host, and the next human diffing
    # baselines would read that as a code regression. Refuse unless forced.
    out_path = pathlib.Path(args.out)
    if out_path.exists() and not args.force:
        try:
            with open(out_path) as f:
                existing = json.load(f)
            recorded_cpus = existing.get("host_cpus")
        except (OSError, json.JSONDecodeError):
            recorded_cpus = None
        host_cpus = os.cpu_count() or 1
        if isinstance(recorded_cpus, (int, float)) and \
                not isinstance(recorded_cpus, bool) and \
                recorded_cpus > host_cpus:
            fail(
                f"{out_path} was recorded on a {int(recorded_cpus)}-CPU host "
                f"but this host has {host_cpus}; overwriting would make the "
                f"committed baseline look like a perf regression. "
                f"Pass --force to overwrite anyway."
            )

    # The pre-incremental reference measurement (prof_share_baseline) is
    # pinned to a commit this script cannot rebuild; carry it across
    # refreshes so regenerating the baseline never silently drops it.
    prior_baseline = None
    if out_path.exists():
        try:
            with open(out_path) as f:
                prior_baseline = json.load(f).get("prof_share_baseline")
        except (OSError, json.JSONDecodeError):
            prior_baseline = None

    build_dir = pathlib.Path(args.build_dir)
    bench_target = f"perf_{args.bench}"
    binary = build_dir / "bench" / bench_target
    if (build_dir / "CMakeCache.txt").exists():
        # Both benches also need mdrsim: event_core for the checkpoint-cost
        # series, control_plane for the waxman-1000 profiler share.
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target",
             bench_target, "mdrsim", "-j"],
            check=True,
        )
    if not binary.exists():
        fail(f"{binary} not found (configure the build tree first: "
             f"cmake -B {build_dir} -S {REPO_ROOT})")

    cmd = [str(binary), "--out", args.out]
    if args.smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True)

    if args.bench == "event_core":
        ckpt = measure_checkpoint_cost(build_dir)
        if ckpt is not None:
            with open(args.out) as f:
                doc = json.load(f)
            doc["ckpt"] = ckpt
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            print(f"run_bench: ckpt: {ckpt['snapshots']} snapshots of "
                  f"{ckpt['last_bytes']} bytes, save {ckpt['save_ms_mean']} ms "
                  f"mean, load {ckpt['load_ms']} ms")
    elif args.bench == "control_plane" and not args.smoke:
        prof = measure_prof_share(build_dir)
        if prof is None:
            fail("control_plane full mode requires the waxman-1000 profiler "
                 "share; build mdrsim in the same tree and retry")
        with open(args.out) as f:
            doc = json.load(f)
        doc["prof_share"] = prof
        if prior_baseline is not None:
            doc["prof_share_baseline"] = prior_baseline
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"run_bench: prof_share: table_update+recompute = "
              f"{prof['share']:.1%} of engine busy time on "
              f"{prof['scenario']} ({prof['shards']} shards)")
        if prior_baseline is not None:
            before = (prior_baseline["table_update_self_ns"] +
                      prior_baseline["recompute_self_ns"])
            after = prof["table_update_self_ns"] + prof["recompute_self_ns"]
            base_cpus = prior_baseline.get("host_cpus")
            if base_cpus != doc["host_cpus"]:
                print(f"run_bench: attributed busy time not comparable: "
                      f"{before / 1e9:.1f}s at {prior_baseline['commit']} "
                      f"on a {base_cpus}-CPU host, {after / 1e9:.1f}s here "
                      f"on a {doc['host_cpus']}-CPU host")
            elif after > 0:
                print(f"run_bench: attributed busy time "
                      f"{before / 1e9:.1f}s -> {after / 1e9:.1f}s "
                      f"({before / after:.2f}x drop vs "
                      f"{prior_baseline['commit']})")

    with open(args.out) as f:
        doc = json.load(f)
    validate(doc)
    print(f"run_bench: OK: wrote and validated {args.out}")
    if args.compare:
        compare(doc, args.compare)


if __name__ == "__main__":
    main()

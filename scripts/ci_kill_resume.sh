#!/usr/bin/env sh
# Crash-recovery gate (docs/CHECKPOINT.md): run a scenario with periodic
# snapshots, SIGKILL the process as soon as the first snapshot lands, resume
# from the snapshot with the same command line, and byte-diff the final JSON
# and telemetry stream against an uninterrupted reference run.
#
# Usage: ci_kill_resume.sh <mdrsim> <scenario> <workdir> [extra mdrsim flags]
#
# With TRACE=1 in the environment every run also turns the flight recorder
# on (--trace, which needs --shards 1): its rings and full trace ride in the
# snapshot, and the trace/dump stream is byte-diffed too.
#
# The reference run has checkpointing OFF, so a passing diff proves both
# halves of the contract at once: checkpointing enabled is byte-identical to
# disabled, and a killed-and-resumed run is byte-identical to one that was
# never interrupted.
set -eu

MDRSIM=$1
SCN=$2
DIR=$3
shift 3

mkdir -p "$DIR"
CK="$DIR/run.mdrk"
INTERVAL=5
# Prints the --trace flag for one run (empty unless TRACE=1).
trace_flag() {
  if [ "${TRACE:-0}" = 1 ]; then echo "--trace $DIR/$1.trace.jsonl"; fi
}

# Uninterrupted reference, no checkpointing.
"$MDRSIM" "$SCN" --json "$DIR/ref.json" --metrics-out "$DIR/ref.jsonl" \
  $(trace_flag ref) --sample-interval 2 --quiet "$@"

# Interrupted run: kill -9 the moment the first snapshot is renamed into
# place (atomic write, so an existing file is always a complete snapshot).
rm -f "$CK" "$DIR/out.json" "$DIR/out.jsonl" "$DIR/out.trace.jsonl"
"$MDRSIM" "$SCN" --checkpoint-interval "$INTERVAL" --checkpoint-path "$CK" \
  --json "$DIR/out.json" --metrics-out "$DIR/out.jsonl" \
  $(trace_flag out) --sample-interval 2 --quiet "$@" &
PID=$!
while [ ! -f "$CK" ] && kill -0 "$PID" 2>/dev/null; do sleep 0.05; done
if ! kill -9 "$PID" 2>/dev/null; then
  echo "FAIL: run finished before the kill landed (snapshot too late?)" >&2
  exit 1
fi
wait "$PID" 2>/dev/null || true
if [ -f "$DIR/out.json" ]; then
  echo "FAIL: killed run still wrote its JSON report" >&2
  exit 1
fi

# Resume: same command line plus --resume-from.
"$MDRSIM" "$SCN" --checkpoint-interval "$INTERVAL" --checkpoint-path "$CK" \
  --resume-from "$CK" \
  --json "$DIR/out.json" --metrics-out "$DIR/out.jsonl" \
  $(trace_flag out) --sample-interval 2 --quiet "$@"

# The per-run "host" object (wall_clock_s, peak_rss_bytes) is host timing,
# not simulation output — strip it exactly like tests/mdrsim_telemetry.cmake
# before the byte diff. Everything else must match bit for bit.
sed 's/, "host": {[^}]*}//' "$DIR/ref.json" > "$DIR/ref.stripped.json"
sed 's/, "host": {[^}]*}//' "$DIR/out.json" > "$DIR/out.stripped.json"
cmp "$DIR/ref.stripped.json" "$DIR/out.stripped.json"
cmp "$DIR/ref.jsonl" "$DIR/out.jsonl"
if [ "${TRACE:-0}" = 1 ]; then
  cmp "$DIR/ref.trace.jsonl" "$DIR/out.trace.jsonl"
fi
echo "OK: kill-and-resume byte-identical ($SCN $*)"

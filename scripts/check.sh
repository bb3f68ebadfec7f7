#!/usr/bin/env bash
# Full verification gate: static lint -> type check -> tier-1 tests ->
# coverage floor -> workload verifier -> differential equivalence over
# the two fastest workloads -> cycle-bound audit -> parallel sweep and
# result cache -> traced perfbench passes (per-layer ledger and output
# digests) -> telemetry exports -> every example and script.
#
# ruff, mypy and pytest-cov are optional locally (a missing one marks
# its gate SKIPPED, so the script stays runnable anywhere); under
# REPRO_CI=1 a missing tool is a gate FAILURE — CI images must install
# the [dev] extra, which pins them (pyproject.toml).  The script ends
# with a ledger saying, per gate, whether it ran, was skipped or failed.
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH=src

rows=()
ran=0
skipped=0
failed=0
gate=""
status=""

# close_gate: file the current gate's verdict in the ledger.
close_gate() {
    [ -n "$gate" ] || return 0
    rows+=("$(printf '%-7s  %s' "$status" "$gate")")
    case "$status" in
        ran) ran=$((ran + 1)) ;;
        SKIPPED) skipped=$((skipped + 1)) ;;
        *) failed=$((failed + 1)) ;;
    esac
    gate=""
}

step() {
    close_gate
    gate="$*"
    status="ran"
    echo
    echo "==> $*"
}

fail() {
    status="FAILED"
}

# missing <tool>: the current gate cannot run here.  Outside CI that
# skips it; in CI it fails it.
missing() {
    if [ "${REPRO_CI:-0}" = "1" ]; then
        echo "$1 not installed but REPRO_CI=1: FAIL (pip install -e .[dev])"
        fail
    else
        echo "SKIPPED: $1 not installed"
        status="SKIPPED"
    fi
}

# require <tool>: 0 if the tool is present, else mark the gate missing.
require() {
    if command -v "$1" >/dev/null 2>&1; then
        return 0
    fi
    missing "$1"
    return 1
}

step "ruff (static lint)"
if require ruff; then
    ruff check src tests || fail
fi

step "mypy (type check)"
if require mypy; then
    mypy || fail
fi

# Coverage floor: with pytest-cov available the tier-1 run also
# measures line coverage of the four timing-core packages (the
# columnar kernels and their scalar references) and fails below 85%
# — a retired scalar path or a dead columnar branch that the
# differential suites stopped reaching shows up here before it rots.
# The plugin is a python package, not a binary, so the availability
# probe is an import, not command -v.
cov_args=""
if python -c "import pytest_cov" >/dev/null 2>&1; then
    cov_args="--cov=repro.ooo --cov=repro.pipeline --cov=repro.multipass \
--cov=repro.runahead --cov-report=term --cov-fail-under=85"
fi
step "pytest (tier-1 suite)"
# Shard across CPUs when pytest-xdist is available; serial otherwise.
if python -c "import xdist" >/dev/null 2>&1; then
    python -m pytest -x -q -n auto $cov_args || fail
else
    python -m pytest -x -q $cov_args || fail
fi
tier1_status="$status"

step "coverage floor (pytest-cov, 85% of the timing cores)"
if [ -n "$cov_args" ]; then
    # Measured by the tier-1 run above, so it shares that verdict.
    echo "measured by the tier-1 run: $tier1_status"
    status="$tier1_status"
else
    missing pytest-cov
fi

step "repro lint (workload verifier)"
python -m repro lint || fail

step "repro diffcheck (differential equivalence: vpr, parser)"
python -m repro diffcheck vpr parser || fail

step "repro audit --smoke (static cycle-bound oracle)"
python -m repro audit --smoke --strict || fail

step "repro sweep --smoke (parallel engine + result cache end-to-end)"
smoke_cache="$(mktemp -d)"
# Cold pass simulates and populates the cache; warm pass must serve
# every cell from disk.
python -m repro sweep --smoke --results-cache "$smoke_cache" \
    || fail
python -m repro sweep --smoke --results-cache "$smoke_cache" \
    || fail
rm -rf "$smoke_cache"

# perfbench_gate <workload>: one traced pass of a benchmark workload.
# Fails when a layer the workload must exercise saw no calls (or a
# forbidden one did), when the layer self times exceed the pass (run.py
# exits 1), or when any cell's stats digest differs from
# perfbench/reference.json ("correct": false).
perfbench_gate() {
    if ledger="$(python3 perfbench/run.py --workload "$1" \
            --seconds 0 --trace 1)"; then
        case "$ledger" in
            *'"correct": false'*)
                echo "perfbench: outputs differ from perfbench/reference.json"
                fail ;;
            *) echo "perfbench: ledger expectations and outputs hold" ;;
        esac
    else
        fail
    fi
}

step "perfbench traced-sweep ledger (per-layer expectations, outputs)"
# The telemetry sweep: 3 models x 12 programs at scale 0.25, ~5 s.
perfbench_gate traced-sweep

step "perfbench cold-sweep ledger (full-scale outputs, prep layers)"
# 5 models x 12 programs at scale 1.0, ~25 s: the 60 full-scale digests
# of every model over every trace the executor produces, and the
# isa.execute / isa.decode / isa.columns expectations of the ledger.
perfbench_gate cold-sweep

step "repro trace / profile (telemetry round-trip)"
trace_dir="$(mktemp -d)"
# The Chrome export must be loadable trace-event JSON with mode spans
# (what Perfetto renders as the mode track).
python -m repro trace mcf --model multipass --scale 0.05 \
    --format chrome --out "$trace_dir/mcf.json" \
    || fail
python - "$trace_dir/mcf.json" <<'EOF' || fail
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
modes = [e for e in events if e.get("cat") == "mode" and e["ph"] == "X"]
assert modes, "no mode spans in the Chrome trace"
assert any(e["ph"] == "X" and e.get("cat") == "stall" for e in events)
print(f"chrome trace ok: {len(events)} events, {len(modes)} mode spans")
EOF
python -m repro profile mcf --scale 0.05 --top 5 >/dev/null \
    || fail
rm -rf "$trace_dir"

step "examples and scripts (every script runs to completion)"
# No test imports the examples or scripts/*.py; a non-zero exit from
# any of them fails the gate.  pipeline_viewer.py runs mcf at scale
# 0.05 and the two scripts run at scale 0.05 to stay short.
for example in examples/*.py; do
    args=""
    [ "$example" = examples/pipeline_viewer.py ] && args="mcf 0.05"
    echo "$example $args"
    # shellcheck disable=SC2086
    python "$example" $args >/dev/null || fail
done
echo "scripts/calibrate.py mcf vpr --scale 0.05"
python scripts/calibrate.py mcf vpr --scale 0.05 >/dev/null || fail
echo "scripts/run_experiments.py --scale 0.05 --skip-fig7"
python scripts/run_experiments.py --scale 0.05 --skip-fig7 >/dev/null \
    || fail

close_gate
echo
echo "gate ledger:"
printf '  %s\n' "${rows[@]}"
echo "check.sh: $ran ran, $skipped SKIPPED, $failed FAILED"
[ "$failed" -eq 0 ]

"""Benchmark of bracelab: census search, law checks and the brace-file pipeline.

    python3 perfbench/run.py --workload census-24 --seed 1 --seconds 40 --trace 0

Run from anywhere; the checkout is the directory above this one, and its
``src/bracelab`` is the program measured.  The run spends ``--seconds`` on
repetitions, each in a fresh single-threaded interpreter (see worker.py),
one after another.  A repetition is started only while the longest one so
far still fits in the time left, so a run ends near ``--seconds``.

With ``--trace 0`` it first starts a few set-up-only interpreters, then
untraced repetitions, and reports the end-to-end metrics, each the median
over repetitions.  Times are scaled to the reference speed of speed.py by
the machine speed sampled during the same phase, so that a shared machine
running at half speed for a while does not move them:

    setup_s       interpreter start to the first timed op (import, inputs)
    wall_s        the timed ops of one repetition, perf_counter
    cpu_s         the same, process_time; less exposed to scheduler waits
    peak_rss_mib  peak resident memory of a repetition's process
    op_p50_s      median time of one op over every op of the run; on
                  files-64 an op is one product through the file chain, on
                  the other workloads it is the whole repetition

With ``--trace 1`` it alternates traced and untraced repetitions and
reports the per-layer metrics of tracer.py (medians over the traced
repetitions, layer times scaled like wall_s), the machine speed
``bench.speed``, and the tracing overhead, traced minus untraced wall_s.

Every answer is checked; an op that raises or answers wrongly counts as
failed, and fail rate is ``failed / attempted`` on the last line:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means the
checkout has no bracelab sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

WORKLOADS = ("census-24", "verify-45", "files-64")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "op_p50_s": "s",
}
SETUP_SAMPLES = 5
# the whole run, children included, must end well inside 180 s
HARD_LIMIT_S = 170.0


class SourceMissing(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, hard_deadline: float) -> dict:
    """One worker process; a crash or timeout comes back as {"crash": why}."""
    # Fixed string hashing, so dict and set layouts repeat from run to run.
    # Bytecode is cached as for an installed package, whatever the caller's
    # setting, so setup_s means the same on every machine.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    cmd = [sys.executable, "-s", str(WORKER), workload, str(seed), mode, repr(spawned)]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(hard_deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"{mode} repetition timed out"}
    if proc.returncode == 3:
        raise SourceMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"crash": f"{mode} repetition: {tail[0]}"}
    return json.loads(lines[-1])


def run_repetitions(args, modes: tuple[str, ...], start: float) -> list[dict]:
    """Cycle through modes until the next repetition would overrun."""
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    reps: list[dict] = []
    longest = 0.0
    while True:
        mode = modes[len(reps) % len(modes)]
        t0 = time.monotonic()
        rep = run_child(args.workload, args.seed, mode, hard_deadline)
        rep["mode"] = mode
        reps.append(rep)
        now = time.monotonic()
        longest = max(longest, now - t0)
        if len(reps) >= len(modes) and now + longest > deadline:
            return reps
        if now + longest > hard_deadline:
            return reps


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bracelab" / "__init__.py").is_file():
        print(f"perfbench: no bracelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, on which subprocess.run kills and reaps
    # the running repetition
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    try:
        setups = []
        if not args.trace:
            setups = [run_child(args.workload, args.seed, "setup", start + HARD_LIMIT_S)
                      for _ in range(SETUP_SAMPLES)]
        modes = ("traced", "plain") if args.trace else ("plain",)
        reps = run_repetitions(args, modes, start)
    except SourceMissing as exc:
        print(exc, file=sys.stderr)
        return 2

    crashed = [r for r in setups + reps if "crash" in r]
    done = [r for r in reps if "crash" not in r]
    attempted = sum(r["attempted"] for r in done) + len(crashed)
    failed = sum(r["failed"] for r in done) + len(crashed)
    for r in crashed:
        print(f"failed: {r['crash']}")
    for r in done:
        for error in r["errors"]:
            print(f"failed: {error}")
    plain = [r for r in done if r["mode"] == "plain"]
    traced = [r for r in done if r["mode"] == "traced"]
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition finished", file=sys.stderr)
        return 1

    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        from tracer import layer_metric_units

        units = layer_metric_units()
        for name in sorted({a for r in traced for a in r["absent"]}):
            print(f"absent: {name}")
    else:
        op_s = [s for r in plain for s in r["op_s"]]
        values = {
            "setup_s": statistics.median(
                r["setup_s"] for r in setups + plain if "crash" not in r
            ),
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "peak_rss_mib": median_of(plain, "peak_rss_mib"),
            "op_p50_s": statistics.median(op_s),
        }
        units = END_TO_END
        print(
            f"{args.workload} seed {args.seed}: {len(plain)} repetitions,"
            f" {len(op_s)} op samples, {len(setups) + len(plain)} set-up samples,"
            f" fail rate {failed}/{attempted}"
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

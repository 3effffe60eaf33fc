"""One repetition of a workload, in a fresh single-threaded interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED

MODE is ``setup`` (set up, report set-up time, stop), ``plain`` (timed ops,
nothing wrapped) or ``traced`` (timed ops with the tracer installed).
SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start.  Every time reported is
scaled to the reference speed of speed.py, by the speed sampled over the
same phase.  A fresh process per
repetition keeps bracelab's module-level caches (the automorphism cache,
``abelian_group_types``) cold, as they are for every CLI call.  The result
is one JSON object on the last line of stdout.  Exit code 3 means this
checkout's ``src/bracelab`` could not be imported.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent


def _check(workload, op, result) -> list[str]:
    try:
        return workload.check(op, result)
    except Exception as exc:  # a check that cannot finish is a wrong answer
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_repetition(workload, ops, sampler: SpeedSampler, tracer=None) -> dict:
    """Time each op, then check its answer with the clocks and tracer off.

    Each op's times are scaled by the speed sampled while it ran; ``speed``
    is the resulting factor over all ops, which also scales the layer times.
    """
    wall = cpu = raw_wall = 0.0
    op_s = []
    failed = 0
    errors: list[str] = []
    for op in ops:
        if tracer is not None:
            tracer.active = True
        mark = sampler.mark()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workload.run(op)
            error = None
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        w, c = time.perf_counter() - w0, time.process_time() - c0
        factor = sampler.speed(mark, sampler.mark())
        if tracer is not None:
            tracer.active = False
        problems = [error] if error else _check(workload, op, result)
        op_s.append(w * factor)
        wall += w * factor
        raw_wall += w
        cpu += c * factor
        if problems:
            failed += 1
            errors.extend(problems)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "op_s": op_s,
        "speed": wall / raw_wall if raw_wall else 1.0,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:5],
    }
    if tracer is not None:
        layers = tracer.metrics(raw_wall, len(ops))
        for name in layers:
            if name.endswith(".s"):
                layers[name] *= out["speed"]
        layers["bench.speed"] = out["speed"]
        out["layers"] = layers
        out["absent"] = tracer.absent
    return out


def main(argv: list[str]) -> int:
    name, seed, mode, spawned = argv[1], int(argv[2]), argv[3], float(argv[4])
    sampler = SpeedSampler()
    sampler.start()
    try:
        import bracelab
    except ImportError as exc:
        print(f"perfbench: cannot import bracelab: {exc}", file=sys.stderr)
        return 3
    source = Path(bracelab.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"perfbench: bracelab comes from {source}, not this checkout",
              file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.prepare(seed)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = (time.monotonic() - spawned) * sampler.speed(0, sampler.mark())
    if mode == "setup":
        out = {"setup_s": setup_s}
    else:
        out = run_repetition(workload, ops, sampler, tracer)
        out["setup_s"] = setup_s
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampler.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

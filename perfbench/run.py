"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``
and exits with code 2, printing no result, when that tree is missing.

``--trace 0`` repeats whole passes of the workload for ``--seconds`` and
reports the end-to-end metrics: host times are calibrated to a reference
host speed (see ``hostspeed.py``) and are medians over passes.
``--trace 1`` runs one untraced pass and one pass with every layer
wrapped, and reports the per-layer metrics plus the tracing overhead.
Every pass checks the program's outputs; the last line of standard
output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import typing

import hostspeed

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for the fig-sweep result cache, inside the checkout.
SCRATCH = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_s": "s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Pass:
    wall_s: float
    setup_s: float
    sim_s: float
    result: typing.Any  # workloads.PassResult
    #: ``time.perf_counter()`` when the pass began and ended.
    began: float = 0.0
    ended: float = 0.0


def run_passes(workloads: typing.Any, workload: typing.Any, seconds: float) -> list[Pass]:
    """Whole passes back to back (a closed loop with one client) while the
    next one, at the median pass time so far, still ends within
    ``seconds``; always at least one."""
    from repro.perf.phases import collect_phases

    start = time.perf_counter()
    passes: list[Pass] = []
    while True:
        # Every pass starts from the same collector state, so a pause
        # left over from the previous pass is not billed to this one.
        gc.collect()
        with collect_phases() as phases:
            began = time.perf_counter()
            result = workloads.run_pass(workload)
            ended = time.perf_counter()
        passes.append(
            Pass(
                ended - began,
                phases.get("network_build", 0.0),
                phases.get("sim_loop", 0.0),
                result,
                began,
                ended,
            )
        )
        predicted = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + predicted > seconds:
            return passes


def _report(correct: bool, attempted: int, failed: int, metrics: dict[str, float],
            units: dict[str, str]) -> dict[str, typing.Any]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def _tally(passes: list[Pass]) -> tuple[int, int, list[str]]:
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    errors = [e for p in passes for e in p.result.errors]
    digests = {p.result.digest for p in passes}
    if len(digests) > 1:
        # Same inputs, different outputs: the run is not deterministic.
        failed += 1
        errors.append(f"passes disagree on the result digest: {sorted(digests)}")
    return attempted, failed, errors


def measure(workloads: typing.Any, workload: typing.Any, seconds: float) -> dict[str, typing.Any]:
    """The untraced run: end-to-end metrics.

    Each pass's host seconds are scaled by the host-speed factor sampled
    during that pass, then the median is taken over passes."""
    sampler = hostspeed.Sampler()
    with sampler.sampling():
        passes = run_passes(workloads, workload, seconds)
    attempted, failed, errors = _tally(passes)
    factors = [sampler.factor(p.began, p.ended) for p in passes]
    metrics = {
        "wall_s": statistics.median(p.wall_s * f for p, f in zip(passes, factors)),
        "setup_s": statistics.median(p.setup_s * f for p, f in zip(passes, factors)),
        "sim_s": statistics.median(p.sim_s * f for p, f in zip(passes, factors)),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for error in errors:
        print(f"perfbench: {workload.name}: {error}", file=sys.stderr)
    print(
        f"perfbench: {workload.name} seed {workload.seed}: {len(passes)} passes, "
        f"host s {[round(p.wall_s, 3) for p in passes]}, "
        f"speed factor {[round(f, 3) for f in factors]}",
        file=sys.stderr,
    )
    return _report(failed == 0, attempted, failed, metrics, END_TO_END_UNITS)


def measure_traced(
    workloads: typing.Any, tracing: typing.Any, workload: typing.Any
) -> dict[str, typing.Any]:
    """The traced run: one untraced pass for the overhead base, then one
    pass with every layer wrapped; per-layer metrics."""
    untraced = run_passes(workloads, workload, 0.0)
    originals = tracing.snapshot()
    tracer = tracing.Tracer()
    gc.collect()
    with tracing.installed(tracer):
        began = time.perf_counter()
        result = workloads.run_pass(workload)
        traced_wall = time.perf_counter() - began
    passes = untraced + [Pass(traced_wall, 0.0, 0.0, result)]
    attempted, failed, errors = _tally(passes)
    if any(a is not b for a, b in zip(originals, tracing.snapshot())):
        failed += 1
        errors.append("a wrapper survived the traced run")
    mismatches = tracing.cross_check(tracer, result.results)
    if mismatches:
        # A fast path bypassed a wrapper: the layer numbers undercount.
        failed += 1
        errors.extend(mismatches)
    metrics = tracing.layer_metrics(tracer, result.results)
    metrics["trace.overhead_ratio"] = traced_wall / untraced[0].wall_s
    results = untraced[0].result.results
    metrics.update(
        workloads.outcomes(workload.name, results)
        if results
        else dict.fromkeys(workloads.OUTCOME_UNITS, 0.0)
    )
    units = {**tracing.LAYER_METRICS, **workloads.OUTCOME_UNITS}
    for error in errors:
        print(f"perfbench: {workload.name}: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}", file=sys.stderr)
    return _report(failed == 0, attempted, failed, metrics, units)


def parse_args(argv: typing.Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
            file=sys.stderr,
        )
        return 2
    scratch = SCRATCH / f"run-{os.getpid()}"
    try:
        workload = workloads.make_workload(args.workload, args.seed, scratch)
        if args.trace:
            report = measure_traced(workloads, tracing, workload)
        else:
            report = measure(workloads, workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

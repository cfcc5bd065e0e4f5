"""Self-tests of the benchmark: span arithmetic, metric names, wrappers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import re
import signal

import pytest

import hostspeed
import run
import tracing
import workloads
from repro.models.scenario import single_hop_config
from repro.stats.metrics import RunResult

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def scripted_tracer(times: list[float]) -> tracing.Tracer:
    ticks = iter(times)
    return tracing.Tracer(clock=lambda: next(ticks))


def test_self_time_of_nested_spans() -> None:
    # a [0, 10] holds b [1, 9], which holds c [2, 5].
    tracer = scripted_tracer([0.0, 1.0, 2.0, 5.0, 9.0, 10.0])
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 2.0, "b": 5.0, "c": 3.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 1}


def test_self_time_of_sibling_spans() -> None:
    # a [0, 10] holds two b spans, [1, 3] and [4, 8]; a later root d [11, 12].
    tracer = scripted_tracer([0.0, 1.0, 3.0, 4.0, 8.0, 10.0, 11.0, 12.0])
    tracer.enter("a")
    for _ in range(2):
        tracer.enter("b")
        tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    assert tracer.self_s == {"a": 4.0, "b": 6.0, "d": 1.0}
    assert tracer.calls["b"] == 2


def test_a_raising_call_still_closes_its_span() -> None:
    tracer = scripted_tracer([0.0, 1.0, 2.0, 3.0])

    def boom() -> None:
        raise RuntimeError("boom")

    wrapped = tracing._span_wrapper(tracer, "inner", boom, None)
    tracer.enter("outer")
    with pytest.raises(RuntimeError):
        wrapped()
    tracer.exit()
    assert tracer.self_s == {"inner": 1.0, "outer": 2.0}


def test_metric_names_and_benchmark_json_agree() -> None:
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == {**tracing.LAYER_METRICS, **workloads.OUTCOME_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


class TinyCell(workloads.ComposedRounds):
    """A 36-node paper cell: quick, and it runs every per-event layer."""

    name = "tiny"

    def make_configs(self):
        return [
            single_hop_config(
                n_senders=5, burst_packets=10, rate_bps=2000.0, sim_time_s=10.0,
                seed=self.seed,
            )
        ]

    def check_workload(self, results: list[RunResult]) -> list[str]:
        return []


class SnoopingCell(TinyCell):
    """Records what sits in every wrapper slot while its cell runs."""

    def execute(self) -> tuple[list[RunResult], str, list[str]]:
        self.during = tracing.snapshot()
        return super().execute()


def test_traced_run_removes_its_wrappers(tmp_path: pathlib.Path) -> None:
    originals = tracing.snapshot()
    report = run.measure_traced(workloads, tracing, TinyCell(1, tmp_path))
    assert all(a is b for a, b in zip(originals, tracing.snapshot()))
    assert report["correct"], report
    metrics = report["metrics"]
    assert set(metrics) == {*tracing.LAYER_METRICS, *workloads.OUTCOME_UNITS}
    assert metrics["mac.send_calls"]["value"] > 0
    assert metrics["core.submit_calls"]["value"] > 0
    assert metrics["traffic.packets"]["value"] > 0


def test_untraced_run_installs_no_wrapper(tmp_path: pathlib.Path) -> None:
    originals = tracing.snapshot()
    workload = SnoopingCell(1, tmp_path)
    report = run.measure(workloads, workload, seconds=0.0)
    assert all(a is b for a, b in zip(originals, workload.during))
    assert report["correct"], report
    assert set(report["metrics"]) == set(run.END_TO_END_UNITS)


def test_cross_check_reports_a_bypassed_wrapper(tmp_path: pathlib.Path) -> None:
    tracer = tracing.Tracer()
    workload = TinyCell(1, tmp_path)
    with tracing.installed(tracer):
        result = workloads.run_pass(workload)
    assert tracing.cross_check(tracer, result.results) == []
    tracer.calls["channel.transmit"] -= 1  # as if one frame went around it
    assert len(tracing.cross_check(tracer, result.results)) == 1


def test_a_digest_off_its_pin_fails_the_pass(
    tmp_path: pathlib.Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setitem(workloads.PINNED_DIGESTS, ("tiny", 1), "0" * 64)
    result = workloads.run_pass(TinyCell(1, tmp_path))
    assert result.failed == 1
    assert "pinned" in result.errors[-1]


def test_host_speed_factor_uses_the_samples_inside_the_pass() -> None:
    sampler = hostspeed.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.durations = [0.010, 0.002, 0.004, 0.010]
    # Speeds 500 and 250 runs/s inside: half the time at each.
    assert sampler.speed(0.5, 2.5) == pytest.approx(375.0)
    assert sampler.factor(0.5, 2.5) == pytest.approx(hostspeed.REFERENCE_KERNEL_S * 375.0)
    # No sample inside: the nearest one stands in.
    assert sampler.speed(1.1, 1.2) == pytest.approx(500.0)
    assert sampler.speed(9.0, 9.5) == pytest.approx(100.0)


def test_untraced_run_restores_the_timer_and_its_handler(tmp_path: pathlib.Path) -> None:
    before = signal.getsignal(signal.SIGALRM)
    run.measure(workloads, TinyCell(1, tmp_path), seconds=0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

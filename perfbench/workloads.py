"""The benchmark's workloads: inputs from a seed, one pass, checks.

A workload is a list of :class:`~repro.models.scenario.ScenarioConfig`
cells generated from the workload seed, plus the public entry point that
runs them: ``fig-sweep`` goes through ``run_sweep`` and a
:class:`~repro.runner.SweepRunner` with an on-disk result cache,
``composed-rounds`` calls ``run_scenario`` once per cell.  The program
sees only the generated configs.

:func:`run_pass` runs a workload once and returns a :class:`PassResult`:
the results of every cell that executed, the digest that pins them, and
the correctness checks (per-cell invariants plus the workload's own).
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import random
import shutil
import traceback
import typing

from repro.faults import FaultPlan
from repro.models import scenario
from repro.models.scenario import ScenarioConfig
from repro.models.sweeps import SweepScale, run_sweep, sweep_digest
from repro.net.csr import CsrGraph
from repro.runner import ResultCache, SweepRunner, results_digest
from repro.sim.rng import RngRegistry, derive_seed
from repro.stats.metrics import ENERGY_TOTAL, RunResult
from repro.topology.registry import TopologySpec, build_layout

WORKLOADS = ("fig-sweep", "composed-rounds")

#: Result digests pinned for the default seed (1) and one held-out seed
#: (9).  A change that only affects speed leaves them identical; a
#: deliberate model change re-pins them and says why.
PINNED_DIGESTS: dict[tuple[str, int], str] = {
    ("fig-sweep", 1): "bcf0b1955be4f46a9fb8bd05f9c61c6d089a72b23d8cbb3049bc907424e454d6",
    ("fig-sweep", 9): "58040686a410043a40568fffa2978a2970c6a2a91e753294c7142e5d0604e94e",
    ("composed-rounds", 1): "4ef7641a35d58afb7729a2fdec1352a78f78a088770f581ebaf46c5fa72f3d9f",
    ("composed-rounds", 9): "25f571fc49cc55a6c0c0c2bd8a057101ed27b7d7afd8c76e29e1cb68778cdbb3",
}

#: The paper's Fig. 5/6 SH matrix at 2 kb/s, sized so one pass takes a
#: few seconds: dual at bursts {10, 100}, the sensor model and 802.11, at
#: 5 and 20 senders.
FIG_SCALE = dict(senders=(5, 20), bursts=(10, 100), n_runs=1, sim_time_s=60.0)
FIG_RATE_BPS = 2000.0

#: Composed deployments: ~10 mean sensor-tier degree at the 40 m range
#: (field width scales as sqrt(n)), the ``repro bench`` geometry.
FIELD_1K_M = 700.0
FIELD_10K_M = 2200.0
#: Sensor and 802.11 range of the composed dual scenario (MICAZ, Lucent).
RANGE_M = 40.0

#: Senders per composed cell, placed in a band of distances (metres)
#: from the sink.
N_SENDERS = 10
BAND_1K_M = (200.0, 300.0)
BAND_10K_M = (700.0, 900.0)
#: Simulated windows of the 10k collection round and the 1k rounds.
WINDOW_10K_S = 60.0
WINDOW_1K_S = 30.0

#: 1k deployments per pass, each running a churn and a lifetime round:
#: their work varies from deployment to deployment, and a pass that
#: pools two draws varies less from seed to seed.
DEPLOYMENTS_1K = 2
CHURN_CRASHES = 100
#: Each victim comes back this long after it crashed.
CHURN_DOWNTIME_S = 2.5
#: Fleet battery small enough that dozens of relays die mid-window.
LIFETIME_BATTERY_J = 0.02


@dataclasses.dataclass
class PassResult:
    """One pass of a workload."""

    #: Results of the cells that executed (a warm cache pass adds none).
    results: list[RunResult]
    #: sha256 over the pass's results (``sweep_digest``/``results_digest``).
    digest: str
    #: Cells attempted and failed (raised or broke an invariant).
    attempted: int
    failed: int
    #: Human-readable description of every failed check.
    errors: list[str]


class Workload:
    """A named workload: generated configs and how to run them."""

    name = ""

    def __init__(self, seed: int, scratch: pathlib.Path):
        self.seed = seed
        self.scratch = scratch

    @property
    def cells(self) -> int:
        """Cells one pass attempts."""
        raise NotImplementedError

    def execute(self) -> tuple[list[RunResult], str, list[str]]:
        """Run the cells: results, digest, workload-level check failures."""
        raise NotImplementedError

    def check_workload(self, results: list[RunResult]) -> list[str]:
        """Workload-specific invariants (beyond the per-cell ones)."""
        return []


def check_cell(result: RunResult) -> list[str]:
    """Invariants every cell must satisfy, whatever the seed."""
    errors = []
    if not result.delivered_bits <= result.generated_bits:
        errors.append(
            f"delivered {result.delivered_bits} > generated {result.generated_bits}"
        )
    total = result.energy_j.get(ENERGY_TOTAL, float("nan"))
    if not (math.isfinite(total) and total > 0.0):
        errors.append(f"total energy {total!r} is not finite and positive")
    return errors


def run_pass(workload: Workload) -> PassResult:
    """Run ``workload`` once; a raising pass fails every cell it attempted."""
    try:
        results, digest, errors = workload.execute()
    except Exception:  # the benchmark reports failures, never dies
        error = traceback.format_exc()
        return PassResult([], "", workload.cells, workload.cells, [error])
    failed = 0
    for index, result in enumerate(results):
        cell_errors = check_cell(result)
        if cell_errors:
            failed += 1
            errors = errors + [f"cell {index}: {e}" for e in cell_errors]
    workload_errors = workload.check_workload(results)
    pinned = PINNED_DIGESTS.get((workload.name, workload.seed))
    if pinned is not None and digest != pinned:
        workload_errors.append(f"digest {digest} != pinned {pinned}")
    # A workload-level check spans the pass: it fails one operation.
    if workload_errors and failed == 0:
        failed = 1
    return PassResult(
        results, digest, workload.cells, failed, errors + workload_errors
    )


class FigSweep(Workload):
    """Cold sweep through the runner into a fresh cache, then a warm pass."""

    name = "fig-sweep"

    def __init__(self, seed: int, scratch: pathlib.Path):
        super().__init__(seed, scratch)
        self.scale = SweepScale(seed=seed, **FIG_SCALE)

    @property
    def cells(self) -> int:
        per_sweep = (len(self.scale.bursts) + 2) * len(self.scale.senders)
        return 2 * per_sweep * self.scale.n_runs

    def execute(self) -> tuple[list[RunResult], str, list[str]]:
        cache_dir = self.scratch / "cache"
        hits: list[bool] = []
        runner = SweepRunner(
            cache=ResultCache(cache_dir),
            progress=lambda event: hits.append(event.cached),
        )
        try:
            cold = run_sweep("SH", self.scale, rate_bps=FIG_RATE_BPS, runner=runner)
            n_cold = len(hits)
            warm = run_sweep("SH", self.scale, rate_bps=FIG_RATE_BPS, runner=runner)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        errors = []
        digest = sweep_digest(cold)
        if sweep_digest(warm) != digest:
            errors.append("warm-cache pass digest differs from the cold pass")
        if any(hits[:n_cold]) or not all(hits[n_cold:]):
            errors.append(f"cache hits cold/warm wrong: {hits}")
        results = [
            result
            for per_count in cold.cells.values()
            for cell in per_count.values()
            for result in cell.results
        ]
        return results, digest, errors


def _collection_config(
    seed: int,
    n: int,
    field_m: float,
    band_m: tuple[float, float],
    **fields: typing.Any,
) -> ScenarioConfig:
    """A uniform-random deployment collecting at the node nearest the
    field centre (the paper's sink placement) from 10 senders that sit in
    a fixed distance band around it and reach it at the 40 m range.

    The band gives every seed the same hop structure, so the work per
    seed, and the simulated outcomes, vary little from seed to seed.  The
    layout is replayed from the config seed's own stream exactly as
    ``build_network`` draws it.  A draw with too few connected nodes in
    the band moves on to a seed derived from the first.
    """
    spec = TopologySpec.of("uniform-random", n=n, width_m=field_m, height_m=field_m)
    rng = random.Random(seed)
    for attempt in range(20):
        config_seed = seed if attempt == 0 else derive_seed(seed, f"retry{attempt}") % 2**31
        layout = build_layout(spec, rng=RngRegistry(config_seed).stream("topology.layout"))
        centre = (field_m / 2.0, field_m / 2.0)
        sink = min(layout.node_ids, key=lambda node: math.dist(layout.position(node), centre))
        origin = layout.position(sink)
        reached = _reachable(CsrGraph.from_layout(layout, RANGE_M), sink)
        band = [
            node
            for node in sorted(reached)
            if band_m[0] <= math.dist(layout.position(node), origin) <= band_m[1]
        ]
        if len(band) >= N_SENDERS:
            senders = sorted(rng.sample(band, N_SENDERS))
            return ScenarioConfig(
                model="dual",
                topology=spec,
                sink=sink,
                seed=config_seed,
                n_senders=N_SENDERS,
                traffic_mix=tuple((node, "cbr") for node in senders),
                rate_bps=2000.0,
                burst_packets=100,
                scheduler="calendar",
                **fields,
            )
    raise ValueError(f"no connected deployment for seed {seed}")


def _reachable(graph: CsrGraph, source: int) -> set[int]:
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in graph.neighbor_ids(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return seen


class ComposedRounds(Workload):
    """Composed rounds, one ``run_scenario`` call each: the collection
    round, then a churn and a lifetime round on each of
    :data:`DEPLOYMENTS_1K` 1k deployments.

    * the ``sim-loop-10k`` collection round: 10k uniform-random nodes,
      10 senders at 2 kb/s, burst 100, 60 s;
    * the ``churn-1k`` round: a 1k deployment with 100 scripted crashes
      over 30 s, each victim back ``CHURN_DOWNTIME_S`` later, so both
      ``retire_node`` and ``restore_node`` run;
    * the ``lifetime-1k`` round: the same deployment under
      ``residual-energy`` routing with a fleet battery small enough that
      relays die mid-window.
    """

    name = "composed-rounds"

    def __init__(self, seed: int, scratch: pathlib.Path):
        super().__init__(seed, scratch)
        self.configs = self.make_configs()

    def make_configs(self) -> list[ScenarioConfig]:
        seed = self.seed
        configs = [
            _collection_config(seed, 10000, FIELD_10K_M, BAND_10K_M, sim_time_s=WINDOW_10K_S)
        ]
        for k in range(DEPLOYMENTS_1K):
            # The first deployment draws from the workload seed itself.
            deployment_seed = seed if k == 0 else derive_seed(seed, f"deployment{k}") % 2**31
            configs.extend(_fault_rounds(deployment_seed))
        return configs

    @property
    def cells(self) -> int:
        return len(self.configs)

    def execute(self) -> tuple[list[RunResult], str, list[str]]:
        # Looked up at call time, so a traced run reaches the wrapper.
        results = [scenario.run_scenario(config) for config in self.configs]
        return results, results_digest(results), []

    def check_workload(self, results: list[RunResult]) -> list[str]:
        errors = []
        for k in range(DEPLOYMENTS_1K):
            churn, lifetime = results[1 + 2 * k : 3 + 2 * k]
            plan = self.configs[1 + 2 * k].faults
            assert plan is not None
            recoveries = sum(1 for t, _node in plan.recoveries if t < WINDOW_1K_S)
            deaths = churn.counters.get("faults.deaths")
            if deaths != CHURN_CRASHES:
                errors.append(f"deployment {k}: churn deaths {deaths} != {CHURN_CRASHES}")
            if churn.counters.get("faults.recoveries") != recoveries:
                errors.append(
                    f"deployment {k}: churn recoveries "
                    f"{churn.counters.get('faults.recoveries')} != {recoveries}"
                )
            if lifetime.counters.get("faults.battery_deaths", 0.0) < 1:
                errors.append(f"deployment {k}: lifetime round: no battery death")
        return errors


def _fault_rounds(seed: int) -> list[ScenarioConfig]:
    """The churn and the lifetime round on one 1k deployment."""
    base = _collection_config(seed, 1000, FIELD_1K_M, BAND_1K_M, sim_time_s=WINDOW_1K_S)
    step = WINDOW_1K_S * 0.9 / CHURN_CRASHES
    candidates = [node for node in range(base.n_nodes) if node != base.sink]
    victims = random.Random(seed).sample(candidates, CHURN_CRASHES)
    crashes = tuple((step * (i + 1), node) for i, node in enumerate(victims))
    recoveries = tuple((t + CHURN_DOWNTIME_S, node) for t, node in crashes)
    churn = base.replace(faults=FaultPlan(crashes=crashes, recoveries=recoveries))
    lifetime = base.replace(
        routing_policy="residual-energy",
        faults=FaultPlan(battery_capacity_j=LIFETIME_BATTERY_J),
    )
    return [churn, lifetime]


_CLASSES = {cls.name: cls for cls in (FigSweep, ComposedRounds)}


def make_workload(name: str, seed: int, scratch: pathlib.Path) -> Workload:
    """The named workload's inputs for ``seed``."""
    return _CLASSES[name](seed, scratch)


#: The simulated outcomes, reported by the traced run.
OUTCOME_UNITS = {
    "outcome.goodput": "ratio",
    "outcome.energy_per_bit_uj": "uJ/bit",
    "outcome.mean_delay_s": "sim-s",
    "outcome.first_death_s": "sim-s",
}


def outcomes(name: str, results: list[RunResult]) -> dict[str, float]:
    """The simulated outcomes of one pass (:data:`OUTCOME_UNITS`).

    Exact for a seed: a change that only affects speed leaves them
    identical.  Over several cells they are pooled (bits summed, delay
    weighted by delivered bits).  ``fig-sweep``'s energy pools the cells
    the paper's Fig. 6 plots, the dual and sensor models; 802.11 idles
    its radio the whole window and would swamp them.  The first death is
    the network lifetime of the cells whose nodes die of flat batteries
    (the earliest over them), -1 when none did.
    """
    generated = sum(r.generated_bits for r in results)
    delivered = sum(r.delivered_bits for r in results)
    energy_cells = [r for r in results if not (name == "fig-sweep" and r.model == "wifi")]
    energy = sum(r.energy_j[ENERGY_TOTAL] for r in energy_cells)
    energy_bits = sum(r.delivered_bits for r in energy_cells)
    delay = sum(r.mean_delay_s * r.delivered_bits for r in results)
    deaths = [
        r.counters["faults.first_death_s"]
        for r in results
        if r.counters.get("faults.battery_deaths", 0.0) > 0.0
    ]
    return {
        "outcome.goodput": delivered / generated,
        "outcome.energy_per_bit_uj": energy / energy_bits * 1e6,
        "outcome.mean_delay_s": delay / delivered,
        "outcome.first_death_s": min(deaths) if deaths else -1.0,
    }

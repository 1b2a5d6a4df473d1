"""Workloads, the interleaved trial plan, and the per-trial correctness check.

A workload is a fixed list of (experiment, size) cells drawn from the
`qsearchlab.bench.EXPERIMENTS` registry.  Trial `t` of a cell calls the
registry runner with `SeededRng(seed, size_index).split(t)`, where
`size_index` is the size's position among that experiment's sizes in the
workload, so every record can be reproduced with
`qsearchlab run --experiment E --sizes S --seed SEED`.

This module imports nothing from qsearchlab at load time, so the
orchestrator can read workload names without loading numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple

DEFAULT_SEED = 0
DIGEST_FILE = Path(__file__).with_name("digests.json")
# p90 is only reported when at least ten samples lie beyond it.
MIN_TRIALS = 100


@dataclass(frozen=True)
class Workload:
    """Cells to interleave, plus what the traced run should find."""

    name: str
    # (experiment, sizes); None means the registry's default sizes.
    experiments: Tuple[Tuple[str, Optional[Tuple[int, ...]]], ...]
    # Fixed round count of a traced run, so its counts repeat exactly.
    trace_rounds: int
    # Layers expected to carry most (> half) of the traced self time.
    dominant_layers: Tuple[str, ...]
    # Boundaries this workload exists to exercise; each must fire when traced.
    must_fire: Tuple[str, ...]


@dataclass(frozen=True)
class Cell:
    experiment: str
    size: int
    size_index: int

    @property
    def key(self) -> str:
        return f"{self.experiment}@{self.size}"


SIM_OPS = ("apply_phase_flip", "apply_phase_rotation", "apply_diffusion",
           "apply_diffusion_rotation", "measure", "uniform_state", "basis_state")


def _all(module: str, names: Sequence[str]) -> Tuple[str, ...]:
    return tuple(f"{module}.{name}" for name in names)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # 256 KB-1 MB complex128 states either side of the 2 MB L2: sim's kernels
        # carry the time, walks is bypassed.  Every trial costs about 10-250 ms.
        # amplify-uniform@32768 (about 75 ms) puts the median inside the tight
        # cluster of grover-certain and grover-scaling trials rather than at its
        # lower edge, where it jumped by 9% between seeds.
        Workload(
            name="grover-dense",
            experiments=(
                ("min-scaling", (4096, 16384)),
                ("grover-unknown", (16384, 65536)),
                ("grover-certain", (65536,)),
                ("grover-scaling", (65536,)),
                ("amplify-uniform", (16384, 32768)),
            ),
            trace_rounds=12,
            dominant_layers=("sim",),
            must_fire=("bench.trial",) + _all("sim", SIM_OPS)
            + _all("grover", ("search", "search_with_certainty", "search_unknown_count"))
            + _all("amplify", ("amplitude_amplify", "amplification_round"))
            + ("minima.find_minimum",),
        ),
        # The same sim operators on states of at most 1024 amplitudes, plus SAT
        # repair walks: per-call cost dominates, so added per-call set-up shows.
        Workload(
            name="small-state",
            experiments=tuple((name, None) for name in (
                "grover-scaling", "grover-certain", "grover-unknown", "amplify-uniform",
                "local-min", "ed-hybrid", "sat-schoening", "classical-scan",
            )),
            trace_rounds=30,
            dominant_layers=("sim", "applications"),
            must_fire=("bench.trial",) + _all("sim", SIM_OPS)
            + _all("grover", ("search", "search_with_certainty", "search_unknown_count"))
            + _all("amplify", ("amplitude_amplify", "amplification_round"))
            + _all("minima", ("find_minimum", "find_local_minimum"))
            + _all("applications", ("quantum_speedup_report", "estimate_success",
                                    "random_planted_formula", "ed_base_run"))
            + ("walks.grid_classical_search",),
        ),
        # Szegedy, coined-grid and subset-chain walks: dense pair arrays and
        # per-chain eigvalsh; grover and sim are bypassed.  ed-walk@12 (1-3 s a
        # trial, 87% of a round) is left out: ten of them per run spread
        # trials_per_s by 28% between seeds.
        Workload(
            name="walks",
            experiments=(
                ("walk-szegedy-cycle", None),
                ("walk-szegedy-torus", None),
                ("walk-grid-2d", None),
                ("walk-grid-3d", None),
                ("classical-hitting-cycle", None),
                ("ed-walk", (8, 10)),
            ),
            trace_rounds=24,
            dominant_layers=("walks",),
            must_fire=("bench.trial",) + _all("walks", (
                "szegedy_find_marked", "szegedy_step", "stationary_edge_state",
                "measure_edge", "recommended_step_budget", "default_shot_cap",
                "johnson_chain", "cycle_chain", "torus_chain", "ed_walk",
                "grid_walk_search", "grid_walk_step", "classical_hitting",
            )),
        ),
    )
}


def cells(workload: Workload, registry: Mapping) -> Tuple[Cell, ...]:
    """Resolve a workload's cells against the experiment registry."""
    out = []
    for name, sizes in workload.experiments:
        for size_index, size in enumerate(sizes or registry[name].default_sizes):
            out.append(Cell(name, int(size), size_index))
    return tuple(out)


def min_rounds(cell_count: int) -> int:
    """Rounds needed so a run holds at least MIN_TRIALS trials."""
    return math.ceil(MIN_TRIALS / cell_count)


def round_order(cell_count: int, seed: int, round_index: int) -> list[int]:
    """Cell order of one round: every cell once, shuffled deterministically."""
    order = list(range(cell_count))
    random.Random(f"{seed}/{round_index}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# Correctness: a committed digest for the default seed, invariants otherwise.

Record = Tuple[str, int, int, float, int, bool]  # experiment, size, trial, queries, steps, success


def record_hash(record: Record) -> str:
    experiment, size, trial, queries, steps, success = record
    text = f"{experiment},{size},{trial},{float(queries)!r},{int(steps)},{int(bool(success))}"
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def load_digest(workload: str, seed: int, keys: Sequence[str],
                path: Path = DIGEST_FILE) -> Optional[dict[str, str]]:
    """Per-cell concatenated record hashes, or None when seed has no digest."""
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(path.read_text(encoding="utf-8"))["workloads"][workload]
    if sorted(entry["hashes"]) != sorted(keys):
        raise ValueError(f"{path.name} was made for other {workload} cells; regenerate it")
    return entry["hashes"]


def invariant_holds(record: Record) -> bool:
    """Relations between record columns that hold for every seed."""
    from qsearchlab import amplify, grover

    experiment, size, trial, queries, steps, success = record
    if not (math.isfinite(queries) and queries >= 0 and steps >= 0):
        return False
    if experiment in ("grover-scaling", "grover-certain"):
        exact = queries == steps == grover.optimal_query_count(size, 1)
        return exact and (success or experiment == "grover-scaling")
    if experiment == "amplify-uniform":
        rounds = amplify.predicted_repetitions(1.0 / size)
        return steps == rounds and queries == 3 * rounds + 1
    if experiment == "ed-hybrid":
        return queries == amplify.predicted_repetitions(0.5 / math.sqrt(size)) * steps
    if experiment == "ed-walk":
        return queries == steps + math.ceil(size ** (2.0 / 3.0))
    if experiment in ("walk-grid-2d", "walk-grid-3d"):
        return queries == steps + 1  # bundled steps plus the final membership probe
    if experiment in ("classical-scan", "classical-hitting-cycle"):
        return queries == steps and success
    if experiment in ("grover-unknown", "walk-szegedy-cycle", "walk-szegedy-torus"):
        return queries == steps
    if experiment == "sat-schoening":
        # amplified repetitions never exceed classical restarts; both are 0 when inconclusive
        return 0 <= queries <= steps if success else queries == steps == 0
    return True


def record_ok(record: Record, expected_hash: Optional[str]) -> bool:
    """Digest match when one is committed for this trial, invariants otherwise."""
    if expected_hash is not None:
        return record_hash(record) == expected_hash
    return invariant_holds(record)


def expected_hash(digest: Optional[Mapping[str, str]], cell: Cell, trial: int) -> Optional[str]:
    if digest is None:
        return None
    hashes = digest[cell.key]
    return hashes[8 * trial: 8 * trial + 8] or None


def count_failed(outcomes: Sequence[Tuple[Cell, int, Optional[Record]]],
                 digest: Optional[Mapping[str, str]]) -> int:
    """Trials that raised (record None) or whose record fails the check."""
    return sum(
        record is None or not record_ok(record, expected_hash(digest, cell, trial))
        for cell, trial, record in outcomes
    )


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile; refused unless ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"{len(ordered)} samples leave fewer than 10 beyond the {q:g} quantile")
    return ordered[rank - 1]

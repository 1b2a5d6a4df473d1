"""Outside-in tracing: spans around each layer's public functions.

Each boundary is replaced, for the length of a traced pass, on the module
object its callers look it up in, so calls between functions of one module
are seen too.  Spans live in memory for one trial and are then folded into
per-boundary call counts and self times.  Nothing inside `src/` is
instrumented: work that bypasses these functions shows up as its caller's
self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Iterator, Mapping, Optional, Sequence

from workloads import SIM_OPS

BOUNDARIES: dict[str, tuple[str, ...]] = {
    "sim": SIM_OPS,
    "grover": ("search", "search_with_certainty", "search_unknown_count"),
    "amplify": ("amplitude_amplify", "amplification_round"),
    "minima": ("find_minimum", "find_local_minimum"),
    "applications": ("quantum_speedup_report", "estimate_success",
                     "random_planted_formula", "ed_base_run"),
    "walks": ("szegedy_find_marked", "szegedy_step", "stationary_edge_state",
              "measure_edge", "recommended_step_budget", "default_shot_cap",
              "johnson_chain", "cycle_chain", "torus_chain", "ed_walk",
              "grid_walk_search", "grid_walk_step", "grid_classical_search",
              "classical_hitting"),
}
# The benchmark's own call of each registry runner is the root span of a trial.
TRIAL = "bench.trial"
LAYERS = ("bench",) + tuple(BOUNDARIES)
AMPLITUDE_OPS = ("apply_phase_flip", "apply_phase_rotation", "apply_diffusion",
                 "apply_diffusion_rotation")
# complex128 read plus complex128 written per amplitude touched
BYTES_PER_AMP = 32

Span = list  # [name, parent index or -1, start_ns, end_ns]


def boundary_names() -> tuple[str, ...]:
    return (TRIAL,) + tuple(f"{layer}.{fn}" for layer, fns in BOUNDARIES.items() for fn in fns)


def self_times(spans: Sequence[Span]) -> dict[str, list[int]]:
    """name -> [calls, self ns]; self time excludes the time of direct children."""
    inner = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            inner[parent] += end - start
    totals: dict[str, list[int]] = {}
    for (name, _, start, end), covered in zip(spans, inner):
        entry = totals.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - covered
    return totals


class Tracer:
    """Spans of the running trial plus totals folded from finished trials."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = [name, self._open[-1] if self._open else -1, 0, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter_ns()
            self._open.pop()

    def fold(self) -> None:
        """Fold the finished trial's spans into the totals and drop them."""
        for name, (calls, own) in self_times(self.spans).items():
            self.calls[name] += calls
            self.self_ns[name] += own
        self.spans.clear()


# Hooks read the arguments and results of a boundary call into derived counts.
def _count_amplitudes(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    counts["sim.amp_ops"] += state.dimension


def _count_unknown_hit(counts, args, kwargs, result):
    counts["grover.search_unknown_count.hits"] += result is not None


def _count_walk_search(counts, args, kwargs, result):
    counts["walks.szegedy_find_marked.hits"] += result.state is not None
    counts["walks.szegedy_find_marked.shots"] += result.preparations
    counts["walks.szegedy_find_marked.walk_steps"] += result.walk_steps


def _count_pair_amplitudes(counts, args, kwargs, result):
    counts["walks.szegedy_step.amplitudes"] += result.size


HOOKS = {
    **{f"sim.{op}": _count_amplitudes for op in AMPLITUDE_OPS},
    "grover.search_unknown_count": _count_unknown_hit,
    "walks.szegedy_find_marked": _count_walk_search,
    "walks.szegedy_step": _count_pair_amplitudes,
}


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every boundary through `tracer` until the block exits."""
    saved = []
    try:
        for layer, names in BOUNDARIES.items():
            module = importlib.import_module(f"qsearchlab.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                saved.append((module, fn_name, original))
                name = f"{layer}.{fn_name}"
                setattr(module, fn_name, _wrap(tracer, name, original, HOOKS.get(name)))
        yield
    finally:
        for module, fn_name, original in reversed(saved):
            setattr(module, fn_name, original)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in boundary_names():
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    for layer in LAYERS:
        spec += [(f"{layer}.self_ms", "ms", "lower"), (f"{layer}.self_share", "share", "lower")]
    spec += [
        ("sim.amp_ops", "count", "lower"),
        ("sim.ns_per_amp_op", "ns", "lower"),
        ("sim.bytes_computed", "B", "lower"),
        ("sim.phase_ops_per_charged_query", "ratio", "lower"),
        ("grover.search_unknown_count.hits_per_attempt", "ratio", "higher"),
        ("walks.szegedy_step.per_charged_step", "ratio", "lower"),
        ("walks.szegedy_find_marked.hits_per_shot", "ratio", "higher"),
        ("walks.szegedy_step.bytes_computed", "B", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
    ]
    return spec


def _ratio(numerator: float, denominator: float) -> float:
    # a boundary a workload bypasses has no base; report 0 rather than NaN
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, charged_queries: float, traced_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Every per-layer metric of a traced pass, keyed as in per_layer_spec()."""
    calls, own, counts = tracer.calls, tracer.self_ns, tracer.counts
    values: dict[str, float] = {}
    for name in boundary_names():
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_ms"] = own[name] / 1e6
    layer_ns = {layer: sum(ns for name, ns in own.items() if name.split(".")[0] == layer)
                for layer in LAYERS}
    total_ns = sum(layer_ns.values())
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = layer_ns[layer] / 1e6
        values[f"{layer}.self_share"] = _ratio(layer_ns[layer], total_ns)
    amp_ops = counts["sim.amp_ops"]
    values["sim.amp_ops"] = amp_ops
    values["sim.ns_per_amp_op"] = _ratio(sum(own[f"sim.{op}"] for op in AMPLITUDE_OPS), amp_ops)
    values["sim.bytes_computed"] = BYTES_PER_AMP * amp_ops
    values["sim.phase_ops_per_charged_query"] = _ratio(
        calls["sim.apply_phase_flip"] + calls["sim.apply_phase_rotation"], charged_queries)
    values["grover.search_unknown_count.hits_per_attempt"] = _ratio(
        counts["grover.search_unknown_count.hits"], calls["grover.search_unknown_count"])
    values["walks.szegedy_step.per_charged_step"] = _ratio(
        calls["walks.szegedy_step"], counts["walks.szegedy_find_marked.walk_steps"])
    values["walks.szegedy_find_marked.hits_per_shot"] = _ratio(
        counts["walks.szegedy_find_marked.hits"], counts["walks.szegedy_find_marked.shots"])
    values["walks.szegedy_step.bytes_computed"] = BYTES_PER_AMP * counts["walks.szegedy_step.amplitudes"]
    values["trace_overhead_frac"] = _ratio(traced_s, untraced_s) - 1.0
    return values


def silent_boundaries(tracer: Tracer, expected: Sequence[str]) -> list[str]:
    """Boundaries a workload is meant to exercise that never fired."""
    return [name for name in expected if tracer.calls[name] == 0]


def dominant_share(values: Mapping[str, float], layers: Sequence[str]) -> float:
    return sum(values[f"{layer}.self_share"] for layer in layers)

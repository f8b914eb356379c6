"""Spans around calls into `uqd`, recorded from outside the library.

Each traced function is replaced, in every module namespace that holds it,
by a wrapper that records a span (name, start, end, parent).  That is where
the calling module looks the function up, so `uqd.spectral.build_povm` is
traced when `spectrum_report` calls it.  The wrappers are removed again
after each traced round; untraced rounds run the library untouched.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

import numpy as np


def out_bytes(obj, seen: set[int] | None = None) -> int:
    """Total `nbytes` of the arrays reachable from a returned object."""
    if seen is None:
        seen = set()
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return int(obj.nbytes)
    fields = getattr(type(obj), "__dataclass_fields__", None)
    if fields is not None:
        return sum(out_bytes(getattr(obj, name), seen) for name in fields)
    if isinstance(obj, (list, tuple)):
        return sum(out_bytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(out_bytes(item, seen) for item in obj.values())
    return 0


def _pairs(args, kwargs, result) -> dict[str, int]:
    # batch_success_probabilities(n, params, theta1, ...)
    return {"povm.batch_success_probabilities.pairs": int(np.size(args[2]))}


def _samples(args, kwargs, result) -> dict[str, int]:
    # mc_average_success(n, params, eta1, samples, seed)
    return {"montecarlo.samples": int(args[3])}


def _checks(args, kwargs, result) -> dict[str, int]:
    return {"fullspace.checks": len(result)}


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and what to count per call."""

    module: str
    function: str
    span: str
    measure_bytes: bool = False
    counts: Callable | None = None


TARGETS = (
    Target("uqd.cli", "main", "cli.main"),
    Target("uqd.strategy", "decide", "strategy.decide"),
    Target("uqd.montecarlo", "mc_average_success", "montecarlo.mc_average_success", counts=_samples),
    Target("uqd.montecarlo", "simulate_outcomes", "montecarlo.simulate_outcomes"),
    Target("uqd.povm", "batch_success_probabilities", "povm.batch_success_probabilities", counts=_pairs),
    Target("uqd.symmetric", "dicke_amplitudes_batch", "symmetric.dicke_amplitudes_batch"),
    Target("uqd.povm", "build_povm", "povm.build_povm", measure_bytes=True),
    Target("uqd.symmetric", "build_symmetric_projector", "symmetric.build_symmetric_projector", measure_bytes=True),
    Target("uqd.spectral", "spectrum_report", "spectral.spectrum_report"),
    Target("uqd.spectral", "positivity_check", "spectral.positivity_check"),
    Target("uqd.spectral", "build_transform", "spectral.build_transform"),
    Target("uqd.spectral", "transformed_pi0", "spectral.transformed_pi0"),
    Target("uqd.spectral", "extract_blocks", "spectral.extract_blocks"),
    Target("uqd.fullspace", "run_verification", "fullspace.run_verification", counts=_checks),
    Target("uqd.fullspace", "symmetric_projector_full", "fullspace.symmetric_projector_full", measure_bytes=True),
    Target("uqd.fullspace", "reduced_basis_matrix", "fullspace.reduced_basis_matrix"),
    Target("uqd.fullspace", "tensor_input", "fullspace.tensor_input"),
    Target("feasibility_scan", "main", "scripts.feasibility_scan"),
    Target("make_figure_data", "main", "scripts.make_figure_data"),
)

# Per-layer metrics a traced run reports, with unit and better direction.
PER_LAYER = (
    ("montecarlo.mc_average_success.self_s", "s", "lower"),
    ("montecarlo.samples", "count", "higher"),
    ("montecarlo.simulate_outcomes.self_s", "s", "lower"),
    ("povm.batch_success_probabilities.self_s", "s", "lower"),
    ("povm.batch_success_probabilities.pairs", "count", "higher"),
    ("symmetric.dicke_amplitudes_batch.self_s", "s", "lower"),
    ("povm.build_povm.self_s", "s", "lower"),
    ("povm.build_povm.out_bytes", "B", "lower"),
    ("povm.build_povm.calls", "count", "lower"),
    ("symmetric.build_symmetric_projector.self_s", "s", "lower"),
    ("symmetric.build_symmetric_projector.out_bytes", "B", "lower"),
    ("spectral.positivity_check.self_s", "s", "lower"),
    ("spectral.build_transform.self_s", "s", "lower"),
    ("spectral.transformed_pi0.self_s", "s", "lower"),
    ("spectral.extract_blocks.self_s", "s", "lower"),
    ("spectral.spectrum_report.self_s", "s", "lower"),
    ("strategy.decide.self_s", "s", "lower"),
    ("strategy.decide.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("scripts.feasibility_scan.self_s", "s", "lower"),
    ("scripts.make_figure_data.self_s", "s", "lower"),
    ("fullspace.symmetric_projector_full.self_s", "s", "lower"),
    ("fullspace.symmetric_projector_full.out_bytes", "B", "lower"),
    ("fullspace.reduced_basis_matrix.self_s", "s", "lower"),
    ("fullspace.tensor_input.self_s", "s", "lower"),
    ("fullspace.run_verification.self_s", "s", "lower"),
    ("fullspace.checks", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    # time the tracer spent inside this span on its children's bookkeeping
    overhead: float = 0.0


@dataclass
class Tracer:
    """In-memory span store for one traced round."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, target: Target, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(target.span, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            self.add(f"{target.span}.calls", 1)
            if target.measure_bytes:
                self.add(f"{target.span}.out_bytes", out_bytes(result))
            if target.counts is not None:
                for key, value in target.counts(args, kwargs, result).items():
                    self.add(key, value)
            if span.parent is not None:
                self.spans[span.parent].overhead += time.perf_counter() - span.end
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the duration of child spans
        and of the tracer's own bookkeeping."""
        own = [span.end - span.start - span.overhead for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        totals: dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {f"{name}.self_s": s for name, s in self.self_times().items()}
        values.update(self.counts)
        return values

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(span) for span in self.spans]


def install(
    tracer: Tracer, modules: dict[str, ModuleType], targets=TARGETS
) -> list[tuple[ModuleType, str, object]]:
    """Replace every binding of each target function by its traced wrapper.

    Returns the replaced bindings so that `uninstall` can put them back.
    """
    replaced = []
    for target in targets:
        original = getattr(modules[target.module], target.function)
        wrapper = tracer.wrap(target, original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    return replaced


def uninstall(replaced: list[tuple[ModuleType, str, object]]) -> None:
    for module, attr, original in reversed(replaced):
        setattr(module, attr, original)

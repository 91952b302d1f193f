"""In-memory spans around calls into metrolab's public functions.

The traced run wraps each function named in `TARGETS` from outside the
package: module functions are replaced in every metrolab module that
imported them, methods and constructors on their class, and
``numpy.linalg.eigh``/``eigvalsh`` on ``numpy.linalg``.  Each call
records a span (name, start, end, parent span, op id, basis dim).
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Per-layer metrics are totals over the traced ops
divided by the number of ops, so they do not depend on how many blocks
fit in the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    dim: int | None


# (span name, module, attribute path).  Both eigen-solvers count as
# `linalg.eigh`, the name the per-layer metrics use.
TARGETS = (
    ("fock.rank", "metrolab.fock", "FockBasis.rank"),
    ("fock.occupations", "metrolab.fock", "FockBasis.occupations"),
    ("fock.PureState", "metrolab.fock", "PureState.__init__"),
    ("fock.MixedState", "metrolab.fock", "MixedState.__init__"),
    ("fock.partial_trace", "metrolab.fock", "partial_trace"),
    ("operators.schwinger_j", "metrolab.operators", "schwinger_j"),
    ("operators.weighted_number", "metrolab.operators", "weighted_number"),
    ("operators.HermitianOp", "metrolab.operators", "HermitianOp.__init__"),
    ("operators.rotation_unitary", "metrolab.operators", "rotation_unitary"),
    ("operators.UnitaryOp", "metrolab.operators", "UnitaryOp.__init__"),
    ("operators.UnitaryOp.apply", "metrolab.operators", "UnitaryOp.apply"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigh", "numpy.linalg", "eigvalsh"),
    ("states.general_probe", "metrolab.states", "general_probe"),
    ("states.correlated_three_mode", "metrolab.states", "correlated_three_mode"),
    ("states.two_mode_fixed_n", "metrolab.states", "two_mode_fixed_n"),
    ("metrology.variance", "metrolab.metrology", "variance"),
    ("metrology.jn_variance_closed_form", "metrolab.metrology", "jn_variance_closed_form"),
    ("metrology.qfi_mixed", "metrolab.metrology", "qfi_mixed"),
    ("metrology.optimal_povm", "metrolab.metrology", "optimal_povm"),
    ("metrology.Povm", "metrolab.metrology", "Povm.__init__"),
    ("metrology.fisher_information", "metrolab.metrology", "fisher_information"),
    ("optimize.optimal_zeta", "metrolab.optimize", "optimal_zeta"),
    ("optimize.sweep_qfi_vs_zeta", "metrolab.optimize", "sweep_qfi_vs_zeta"),
    ("optimize.lossy_probe", "metrolab.optimize", "lossy_probe"),
    ("cli.validate_config", "metrolab.cli", "validate_config"),
    ("cli.run_scenario", "metrolab.cli", "run_scenario"),
)

LAYERS = ("fock", "operators", "linalg", "states", "metrology", "optimize", "cli")
OP_SPAN = "op"
# Counting work after a call is tracing overhead; it runs in its own span
# so that the enclosing layer's self time excludes it.
COUNT_SPAN = "trace.count"


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, clock):
        self._clock = clock
        self._open: list[list] = []
        self._stack: list[int] = []
        self._seen_failures: set[tuple[str, int]] = set()
        self.op: int | None = None
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()

    def enter(self, name: str, dim: int | None = None) -> int:
        sid = len(self._open)
        parent = self._stack[-1] if self._stack else None
        self._open.append([name, self._clock(), None, parent, self.op, dim])
        self._stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed while span {top} is open")
        self._open[sid][2] = self._clock()

    def set_dim(self, sid: int, dim: int | None) -> None:
        self._open[sid][5] = dim

    def fail(self, name: str, exc: BaseException) -> None:
        """Count an exception once per layer, however many spans it crosses."""
        layer = name.split(".", 1)[0]
        key = (layer, id(exc))
        if key not in self._seen_failures:
            self._seen_failures.add(key)
            self.failed[layer] += 1

    @property
    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._open]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                handle.write(json.dumps({"id": sid, **span._asdict()}) + "\n")


def _dim_of(values, arrays: bool = False) -> int | None:
    """Basis dim of the first basis-carrying value; matrix order if `arrays`."""
    for value in values:
        basis = getattr(value, "basis", None)
        if basis is not None and hasattr(basis, "dim"):
            return int(basis.dim)
        if type(value).__name__ == "FockBasis":
            return int(value.dim)
    if arrays:
        for value in values:
            if isinstance(value, (list, tuple)) and value:
                value = value[0]
            if isinstance(value, np.ndarray) and value.ndim >= 2:
                return int(value.shape[-1])
    return None


def _after_hermitian_or_unitary(tracer, args, result):
    matrix = args[0].matrix
    tracer.counts["operators.dense_bytes"] += matrix.nbytes
    tracer.counts["operators.entries"] += matrix.size
    tracer.counts["operators.nnz"] += int(np.count_nonzero(matrix))


def _after_eigh(tracer, args, result):
    n = int(np.shape(args[0])[-1])
    tracer.counts["linalg.eigh.dim3_sum"] += n**3


def _after_run_scenario(tracer, args, result):
    path = args[0].output_path
    if os.path.exists(path):
        tracer.counts["cli.csv_bytes"] += os.path.getsize(path)


_AFTER = {
    "operators.HermitianOp": _after_hermitian_or_unitary,
    "operators.UnitaryOp": _after_hermitian_or_unitary,
    "linalg.eigh": _after_eigh,
    "cli.run_scenario": _after_run_scenario,
}


# Spans whose dim is read from matrix arguments rather than a basis.
_ARRAY_DIM = ("linalg.eigh", "metrology.Povm")


def _wrap(tracer: Tracer, name: str, fn):
    after = _AFTER.get(name)
    arrays = name in _ARRAY_DIM

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        dim = _dim_of(args, arrays)
        sid = tracer.enter(name, dim)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.fail(name, exc)
            raise
        finally:
            tracer.exit(sid)
        if dim is None:
            tracer.set_dim(sid, _dim_of((result,)))
        if after is not None:
            cid = tracer.enter(COUNT_SPAN)
            after(tracer, args, result)
            tracer.exit(cid)
        return result

    return wrapper


def instrument(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    for name, module_name, path in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, name, original))
            undo.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, name, original)
        holders = [module] if not module_name.startswith("metrolab") else [
            mod for key, mod in list(sys.modules.items())
            if (key == "metrolab" or key.startswith("metrolab.")) and mod is not None
        ]
        for holder in holders:
            if getattr(holder, attr, None) is original:
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of child intervals, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for sid, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(sid, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


def self_over_wall(spans: list[Span], selfs: list[float]) -> dict[int, float]:
    """Per op: summed self time of the spans inside it over the op's wall time."""
    inside = defaultdict(float)
    walls = {}
    for span, own in zip(spans, selfs):
        if span.name == OP_SPAN:
            walls[span.op] = span.end - span.start
        elif span.op is not None:
            inside[span.op] += own
    return {op: inside[op] / wall for op, wall in walls.items() if wall > 0}


SELF_S = (
    "fock.rank", "fock.occupations", "fock.PureState", "fock.MixedState",
    "fock.partial_trace", "operators.schwinger_j", "operators.weighted_number",
    "operators.HermitianOp", "operators.rotation_unitary", "operators.UnitaryOp",
    "operators.UnitaryOp.apply", "states.general_probe", "states.correlated_three_mode",
    "states.two_mode_fixed_n", "metrology.variance", "metrology.jn_variance_closed_form",
    "metrology.qfi_mixed", "metrology.optimal_povm", "metrology.Povm",
    "metrology.fisher_information", "optimize.optimal_zeta",
    "optimize.sweep_qfi_vs_zeta", "optimize.lossy_probe", "cli.validate_config",
    "cli.run_scenario", OP_SPAN,
)
CALLS = ("fock.rank", "fock.partial_trace", "operators.schwinger_j", "linalg.eigh",
         "metrology.variance")


def layer_metrics(tracer: Tracer, ops: int, cache_hits: int, cache_lookups: int) -> dict:
    """Per-layer metrics of a traced run, per op unless the name says otherwise."""
    spans = tracer.spans
    selfs = self_times(spans)
    own = defaultdict(float)
    calls = Counter()
    for span, t in zip(spans, selfs):
        own[span.name] += t
        calls[span.name] += 1
    counts = tracer.counts
    out = {f"{name}.self_s": own[name] / ops for name in SELF_S}
    out.update({f"{name}.calls": calls[name] / ops for name in CALLS})
    out["linalg.eigh.dim3_sum"] = counts["linalg.eigh.dim3_sum"] / ops
    out["operators.dense_bytes"] = counts["operators.dense_bytes"] / ops
    out["operators.nnz_frac"] = (
        counts["operators.nnz"] / counts["operators.entries"] if counts["operators.entries"] else 0.0
    )
    out["cli.csv_bytes"] = counts["cli.csv_bytes"] / ops
    out["fock.build_basis.hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
    out.update({f"{layer}.failed": tracer.failed[layer] for layer in LAYERS})
    out["trace.count.self_s"] = own[COUNT_SPAN] / ops
    ratios = self_over_wall(spans, selfs)
    out["trace.self_over_wall_max"] = max(ratios.values()) if ratios else 0.0
    return out

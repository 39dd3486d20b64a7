"""Spans around calls into the package, recorded from outside it.

Tracing replaces module attributes at the names their consumers bind (for
example ``risk.reg_lower_inc_gamma`` and ``tables.pre_modified``) with wrappers
that record one span per call, and puts the originals back afterwards. Value
types are traced by wrapping their ``__post_init__``. Nothing under ``src/`` is
edited.

Spans (layer, start, end, parent, op id) are kept in flat arrays in memory and
written out when the run ends. A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (layer, defining module, function): every module of the package that binds
# the same function object under the same name is patched too, so calls are
# caught at the consumer's binding (``risk.shrink_weight``, ``tables.pre_shrink``).
FUNCTIONS = (
    ("specfun.reg_lower_inc_gamma", "specfun", "reg_lower_inc_gamma"),
    ("estimators.shrink_weight", "estimators", "shrink_weight"),
    ("risk.pre_shrink", "risk", "pre_shrink"),
    ("risk.arb_shrink", "risk", "arb_shrink"),
    ("risk.dominance", "risk", "mse_dominance_range"),
    ("risk.dominance", "risk", "arb_dominance_range"),
    ("risk.dominance", "risk", "best_range"),
    ("risk.pre_modified", "risk", "pre_modified"),
    ("risk.mse_modified", "risk", "mse_modified"),
    ("tables.build", "tables", "table_31"),
    ("tables.build", "tables", "table_51"),
    ("tables.audit", "tables", "audit_table_31"),
    ("tables.audit", "tables", "audit_table_51"),
    ("tables.audit", "tables", "audit_ranges_31"),
    ("tables.serialize", "tables", "cells_to_csv"),
    ("tables.serialize", "tables", "cells_to_json"),
    ("tables.serialize", "tables", "cells_to_text"),
    ("montecarlo.sample_t", "montecarlo", "sample_t"),
    ("montecarlo.empirical_risk", "montecarlo", "empirical_risk"),
    ("montecarlo.calibrate", "montecarlo", "estimate_bain_constant"),
    ("montecarlo.calibrate", "montecarlo", "estimate_degrees_of_freedom"),
)

# factories whose returned closures are the vectorized estimators
ESTIMATOR_FACTORIES = (
    "unbiased_estimator",
    "mmse_estimator",
    "shrink_estimator",
    "truncated_estimator",
)

VALIDATE = "model.validate"
PACKAGE = "weibull_shrink"


class Tracer:
    """Flat in-memory span store plus per-op counters and distinct-key sets."""

    def __init__(self, max_spans: int = 2_000_000):
        self.max_spans = max_spans
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.op_workload: dict[int, str] = {}
        self.counters: dict[str, dict[int, float]] = {}
        self.distinct: dict[str, dict[int, set]] = {}

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def _open(self, lid: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int, workload: str):
        """Root span of one benchmark op; spans opened inside carry its id."""
        self.op_id = op_id
        self.op_workload[op_id] = workload
        idx = self._open(self.layer_id("op." + workload))
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = -1

    def count(self, name: str, amount: float = 1) -> None:
        per_op = self.counters.setdefault(name, {})
        per_op[self.op_id] = per_op.get(self.op_id, 0) + amount

    def see(self, name: str, key) -> None:
        self.distinct.setdefault(name, {}).setdefault(self.op_id, set()).add(key)

    def wrap(self, layer: str, fn, before=None, after=None):
        lid = self.layer_id(layer)

        def traced(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            idx = self._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # reduction

    def self_times(self) -> array:
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return array("d", (self.end[i] - self.start[i] - child[i] for i in range(n)))

    def layer_totals(self, ops: set) -> tuple[dict, dict]:
        """Calls and summed self seconds per layer, over spans of the given ops."""
        own = self.self_times()
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for i in range(len(own)):
            if self.op[i] in ops:
                name = self.layers[self.layer[i]]
                calls[name] = calls.get(name, 0) + 1
                seconds[name] = seconds.get(name, 0.0) + own[i]
        return calls, seconds

    def counter_total(self, name: str, ops: set) -> float:
        return sum(v for op, v in self.counters.get(name, {}).items() if op in ops)

    def distinct_total(self, name: str, ops: set) -> int:
        return sum(len(s) for op, s in self.distinct.get(name, {}).items() if op in ops)

    def write(self, stem: Path) -> None:
        """Write the spans as <stem>.bin (five arrays back to back) and <stem>.json."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        fields = ("layer", "parent", "op", "start", "end")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {
            "spans": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "byteorder": sys.byteorder,
            "layers": self.layers,
            "op_workload": {str(k): v for k, v in self.op_workload.items()},
            "time": "time.perf_counter seconds",
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


# ----------------------------------------------------------------------
# hooks that count work where it happens


def _shrink_weight_key(tracer, p, h, *_, **__):
    tracer.see("estimators.shrink_weight", (float(p), float(h)))


def _sample_t_stream(tracer, h, beta, rng, size=None, *_, **__):
    # a stream is identified by its law and the generator state it starts from
    state = rng.bit_generator.state
    tracer.see("montecarlo.streams", (float(h), float(beta), size, repr(state["state"])))
    tracer.count("montecarlo.streams_drawn")
    tracer.count("montecarlo.gamma_draws", 1 if size is None else int(size))


def _count_cells(tracer, cells):
    tracer.count("tables.cells", len(cells))


def _count_cells_51(tracer, cells):
    tracer.count("tables.cells", len(cells))
    tracer.count("tables.cells_51", len(cells))


HOOKS = {
    "shrink_weight": (_shrink_weight_key, None),
    "sample_t": (_sample_t_stream, None),
    "table_31": (None, _count_cells),
    "table_51": (None, _count_cells_51),
}


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding listed above, then restore the originals."""
    modules = _package_modules()
    saved = []

    def patch_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    try:
        for layer, home, attr in FUNCTIONS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{home}"), attr, None)
            if original is None:
                continue
            before, after = HOOKS.get(attr, (None, None))
            patch_everywhere(original, tracer.wrap(layer, original, before, after))
        montecarlo = sys.modules.get(f"{PACKAGE}.montecarlo")
        for attr in ESTIMATOR_FACTORIES:
            factory = getattr(montecarlo, attr, None)
            if factory is None:
                continue
            patch_everywhere(factory, _estimator_factory(tracer, factory))
        for mod in modules:
            for cls in list(vars(mod).values()):
                if (
                    isinstance(cls, type)
                    and cls.__module__ == mod.__name__
                    and dataclasses.is_dataclass(cls)
                    and "__post_init__" in vars(cls)
                ):
                    original = vars(cls)["__post_init__"]
                    saved.append((cls, "__post_init__", original))
                    setattr(cls, "__post_init__", tracer.wrap(VALIDATE, original))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _estimator_factory(tracer: Tracer, factory):
    def make(*args, **kwargs):
        return tracer.wrap("montecarlo.estimator", factory(*args, **kwargs))

    make.__wrapped__ = factory
    return make

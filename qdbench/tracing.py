"""Spans and counters around calls into qdecoy's layers, for the traced run.

Modules import functions by name, so each wrapper is installed on the name
the calling module looks up (`qdecoy.tradeoff.attack_point` and
`qdecoy.cli.attack_point` are two targets). The program itself is not
changed: spans sit at the boundaries between its modules. A layer's self
time is its span time minus the time covered by its child spans; time in
code that has no span of its own counts as self time of the nearest
enclosing span, which for `cli` is parsing, formatting and output.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute, span). Every pair must exist: `installed` raises on a
#: missing one, so a layer the program renames or stops importing fails the
#: traced run instead of reading 0.
TARGETS = (
    ("qdecoy.cli", "sweep_random", "tradeoff.sweep"),
    ("qdecoy.cli", "optimize_attack", "tradeoff.optimize"),
    ("qdecoy.cli", "attack_point", "tradeoff.attack_point"),
    ("qdecoy.tradeoff", "attack_point", "tradeoff.attack_point"),
    ("qdecoy.cli", "parse_descriptor", "attacks.build"),
    *(("qdecoy.cli", ctor, "attacks.build")
      for ctor in ("random_attack", "optimal_attack", "probabilistic_attack", "projective_attack", "identity_attack")),
    *(("qdecoy.tradeoff", ctor, "attacks.build")
      for ctor in ("random_attack", "optimal_attack", "projective_attack", "diagonal_attack")),
    ("qdecoy.attacks", "inv_sqrt_psd", "linalg.whiten"),
    *((mod, "estimation_fidelity", "metrics.g")
      for mod in ("qdecoy.cli", "qdecoy.tradeoff", "qdecoy.protocol", "qdecoy.metrics")),
    ("qdecoy.cli", "induced_fidelity_functional", "metrics.f"),
    ("qdecoy.tradeoff", "induced_fidelity_functional", "metrics.f"),
    ("qdecoy.metrics", "choi_of_kraus", "choi.choi"),
    ("qdecoy.cli", "induced_fidelity", "metrics.oracle"),
    ("qdecoy.cli", "estimation_fidelity_functional", "metrics.oracle"),
    ("qdecoy.cli", "pairing_ensemble", "ensembles.pairing"),
    ("qdecoy.cli", "run_protocol", "protocol.run"),
    ("scipy.optimize", "minimize", "tradeoff.slsqp"),
)

#: the root span, opened by the workload around each `qdecoy.cli.main` call
ROOT = "cli"
SPANS = (ROOT,) + tuple(dict.fromkeys(span for _, _, span in TARGETS))

#: counters, summed over the timed commands; (name, unit)
COUNTERS = (
    ("attacks.built", "count"),
    ("metrics.g_calls", "count"),
    ("tradeoff.certified", "count"),
    ("choi.bytes_computed", "B"),
    ("protocol.shots", "count"),
    ("tradeoff.slsqp_calls", "count"),
    ("tradeoff.slsqp_nit", "count"),
    ("tradeoff.slsqp_nfev", "count"),
    ("tradeoff.slsqp_iter_limit_hits", "count"),
)

#: SciPy's SLSQP status for "Iteration limit reached"
_SLSQP_ITER_LIMIT = 9


def _count_slsqp(counts, args, res):
    counts["tradeoff.slsqp_nit"] += res.nit
    counts["tradeoff.slsqp_nfev"] += res.nfev
    counts["tradeoff.slsqp_iter_limit_hits"] += res.status == _SLSQP_ITER_LIMIT


def _count_choi(counts, args, res):
    m, n = args[0][0].shape
    counts["choi.bytes_computed"] += 16 * (m * n) ** 2  # one complex128 (mn x mn) matrix


def _count_shots(counts, args, res):
    counts["protocol.shots"] += res.shots


#: span -> counter that each call adds one to
_CALL_COUNTERS = {
    "attacks.build": "attacks.built",
    "metrics.g": "metrics.g_calls",
    "tradeoff.attack_point": "tradeoff.certified",
    "tradeoff.slsqp": "tradeoff.slsqp_calls",
}
#: span -> hook(counts, args, result) for counters read from a call's arguments or result
_RESULT_HOOKS = {
    "choi.choi": _count_choi,
    "protocol.run": _count_shots,
    "tradeoff.slsqp": _count_slsqp,
}


class Tracer:
    """Spans kept in memory, with per-name total and self time and counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.op = 0
        self.spans: list[tuple] = []  # (op, id, parent id or 0, name, start ns, end ns)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc_peak_bytes = 0
        self._stack: list[list] = []  # [id, name, start ns, child ns]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        self.spans.append((self.op, span_id, parent[0] if parent else 0, name, start, end))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn):
        counter = _CALL_COUNTERS.get(name)
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                self.counts[counter] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        if name != "protocol.run":
            return traced

        @functools.wraps(fn)
        def traced_alloc(*args, **kwargs):
            # tracemalloc runs outside the span, so the span keeps only its tracking cost
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                self.alloc_peak_bytes = max(self.alloc_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced_alloc

    def layer_metrics(self, ops: int) -> dict:
        """Per-command means of every span time and counter, plus the allocation peak."""
        out = {}
        for name in SPANS:
            out[f"{name}_s"] = {"value": self.total_ns[name] / 1e9 / ops, "unit": "s"}
            out[f"{name}_self_s"] = {"value": self.self_ns[name] / 1e9 / ops, "unit": "s"}
        for name, unit in COUNTERS:
            out[name] = {"value": self.counts[name] / ops, "unit": unit}
        out["protocol.alloc_peak_mb"] = {"value": self.alloc_peak_bytes / 2**20, "unit": "MB"}
        return out

    def write(self, path: str, header: dict) -> None:
        """Write every recorded span as gzipped JSON."""
        names = list(SPANS)
        index = {n: i for i, n in enumerate(names)}
        rows = [(op, sid, parent, index[name], start, end) for op, sid, parent, name, start, end in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({**header, "names": names, "columns": ["op", "id", "parent", "name", "start_ns", "end_ns"],
                       "spans": rows}, fh)


@contextmanager
def installed(tracer: Tracer):
    """Install a wrapper on every target for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise AttributeError(f"tracing target {module_name}.{attr} does not exist")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

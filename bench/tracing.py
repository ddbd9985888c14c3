"""Spans and counters recorded from outside the package.

Each layer is measured by replacing a public function at the name its
caller looks up (for example `projmet.cli.tractor_data`, which is what
`cmd_tractor` calls) with a wrapper that records a span: name, start, end
and the index of the enclosing span.  Nothing under `src/` changes, and
`uninstall` puts every original back.

Spans stay in memory; `summary` turns them into per-name call counts,
inclusive time and self time (inclusive time minus the time covered by
child spans).
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" patches the
# method on the class.  Several call sites of one function share a name.
SPAN_TARGETS = (
    ("projmet.cli", "load_job", "cli.load_job"),
    ("projmet.cli", "ode_from_metric", "model.ode_from_metric"),
    ("projmet.cli", "ode_from_lambda", "model.ode_from_lambda"),
    ("projmet.expressions", "eval_jet", "expressions.eval_jet"),
    ("projmet.invariants", "eval_jet", "expressions.eval_jet"),
    ("projmet.invariants", "analyze_point", "invariants.analyze_point"),
    ("projmet.invariants", "_liouville_L", "invariants.liouville"),
    ("projmet.invariants", "_connection_matrices", "invariants.connection"),
    ("projmet.invariants", "JetStructure.levels", "invariants.levels"),
    ("projmet.invariants", "cov_deriv", "invariants.cov_deriv"),
    ("projmet.invariants", "sixth_order_E", "invariants.sixth_order_E"),
    ("projmet.invariants", "stratified_obstruction",
     "invariants.stratified_obstruction"),
    ("projmet.invariants", "cartan_stabilize", "invariants.cartan_stabilize"),
    ("projmet.invariants", "matrix_Mmax", "invariants.matrix_Mmax"),
    ("projmet.linalg", "det", "linalg.det"),
    ("projmet.linalg", "rank_kernel", "linalg.rank_kernel"),
    ("projmet.cli", "tractor_data", "tractor.tractor_data"),
    ("projmet.cli", "theta_bar", "tractor.theta_bar"),
    ("projmet.cli", "det_by_contraction", "tractor.det_by_contraction"),
    ("projmet.cli", "projective_change", "tractor.projective_change"),
    ("projmet.cli", "change_connection", "tractor.change_connection"),
    ("projmet.recovery", "transport", "recovery.transport"),
    ("projmet.recovery", "connection_values", "recovery.connection_values"),
    ("projmet.recovery", "reconstruct_metric", "recovery.reconstruct_metric"),
    ("projmet.recovery", "roundtrip_residual", "recovery.roundtrip_residual"),
)

# Jet construction and multiplication are counted, not spanned, in a pass
# of their own: they run hundreds of thousands of times per job.
JET_COUNTERS = (
    ("__init__", "jets.init_calls"),
    ("__mul__", "jets.mul_calls"),
    ("__rmul__", "jets.mul_calls"),
)


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _Patches:
    def __init__(self):
        self._saved = []

    def replace(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


class Lattice:
    """Distinct RK4 lattice points against `connection_values` calls.

    The RK4 nodes of a transport sit on the lattice centre + (i, j) * h /
    (2 substeps).  Each call is mapped to its nearest lattice point, so
    float cache keys that round differently still count as one point."""

    def __init__(self):
        self.calls = 0
        self.distinct = 0
        self._grid = None
        self._seen = set()

    def begin(self, grid):
        self._grid = grid
        self._seen = set()

    def visit(self, point):
        self.calls += 1
        g = self._grid
        if g is None:
            return
        step = float(g.h) / (2 * g.substeps)
        cx, cy = (float(c) for c in g.center)
        self._seen.add((round((point[0] - cx) / step),
                        round((point[1] - cy) / step)))

    def end(self):
        self.distinct += len(self._seen)
        self._grid = None
        self._seen = set()

    @property
    def ratio(self):
        return self.distinct / self.calls if self.calls else 0.0


def coeff_bits(rows):
    """Largest numerator or denominator bit length in an exact matrix; 0
    for a float one."""
    best = 0
    for row in rows:
        for v in row:
            if isinstance(v, Fraction):
                best = max(best, v.numerator.bit_length(),
                           v.denominator.bit_length())
    return best


class Recorder:
    """Span recorder.  `install` wraps every target in SPAN_TARGETS; `span`
    opens a span around the benchmark's own calls (one per command)."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self._stack = []
        self.lattice = Lattice()
        self.coeff_bits_max = 0
        self._patches = _Patches()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def span(self, name):
        return _SpanContext(self, name)

    def _wrap(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close()
        return wrapper

    def _wrap_transport(self, fn):
        inner = self._wrap("recovery.transport", fn)
        lattice = self.lattice

        @functools.wraps(fn)
        def wrapper(structure, seed, grid, *args, **kwargs):
            lattice.begin(grid)
            try:
                return inner(structure, seed, grid, *args, **kwargs)
            finally:
                lattice.end()
        return wrapper

    def _wrap_connection_values(self, fn):
        inner = self._wrap("recovery.connection_values", fn)
        lattice = self.lattice

        @functools.wraps(fn)
        def wrapper(structure, point):
            lattice.visit(point)
            return inner(structure, point)
        return wrapper

    def _wrap_mmax(self, fn):
        inner = self._wrap("invariants.matrix_Mmax", fn)
        rec = self

        @functools.wraps(fn)
        def wrapper(js):
            rows = inner(js)
            rec.coeff_bits_max = max(rec.coeff_bits_max, coeff_bits(rows))
            return rows
        return wrapper

    def install(self):
        special = {
            "recovery.transport": self._wrap_transport,
            "recovery.connection_values": self._wrap_connection_values,
            "invariants.matrix_Mmax": self._wrap_mmax,
        }
        for module_name, attr, name in SPAN_TARGETS:
            owner, key = _resolve(module_name, attr)
            fn = owner.__dict__[key]
            make = special.get(name)
            wrapped = make(fn) if make else self._wrap(name, fn)
            self._patches.replace(owner, key, wrapped)

    def uninstall(self):
        self._patches.restore()

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        # A name nested inside itself (none of the targets recurse) would be
        # counted twice in total_s; self_s is always exact.
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)


class _SpanContext:
    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.rec._open(self.name)
        return self

    def __exit__(self, *exc):
        self.rec._close()
        return False


class JetCounter:
    """Counts Jet constructions and multiplications, with no spans."""

    def __init__(self):
        self.counts = defaultdict(int)
        self._patches = _Patches()

    def install(self):
        jet_cls = importlib.import_module("projmet.jets").Jet
        counts = self.counts
        for attr, key in JET_COUNTERS:
            fn = jet_cls.__dict__[attr]

            def counted(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)
            self._patches.replace(jet_cls, attr, functools.wraps(fn)(counted))

    def uninstall(self):
        self._patches.restore()

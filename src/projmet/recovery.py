"""Reconstruct a compatible metric from a kernel witness.

A nondegenerate kernel vector W of the saturated derivative stack is the
value at the base point of a section Psi = (psi1, psi2, psi3, mu, nu, rho)
parallel for the prolonged connection:

    dPsi/dx = -O1(x,y) Psi,      dPsi/dy = -O2(x,y) Psi.

Transporting W across a grid (classical RK4 along x, then y, with the
reversed order as a consistency check) and undoing the substitution

    E = psi1 / Delta^2,  F = psi2 / Delta^2,  G = psi3 / Delta^2,
    Delta = psi1 psi3 - psi2^2

by `model.section_to_metric`, with Delta from `invariants.genericity_P`,
yields the metric.  The connection is evaluated on plain floats, one axis
at a time.  The expression trees of `invariants.connection_formula`
(`invariants.formula_trees`), off which the commands' tapes are read, are
compiled once into a straight-line kernel per axis by the emitter of
`expressions.compile_float`, from the 17 of the coefficients' 24 values
and first and second derivatives that O1 or O2 reads to that matrix's 19
structural nonzeros.  The coefficient trees are
differentiated once along the words either axis reads, and each axis's
words are compiled into one float function.  The RK4 nodes lie on the
lattice of spacing h / (2 substeps) and are cached by integer lattice
index, so each distinct node is evaluated once, for the axes it is
integrated along: O1 on a grid row, O2 on a grid column, both at a grid
node.  Each axis has one RK4 segment, compiled on the first transport into
straight-line code over the nonzeros, whose sections are those of the dense
6x6 products bit for bit.  The round-trip residual re-derives the ODE
coefficients from the reconstructed metric table, by `ode_from_metric`'s
formula (`model.geodesic_coefficients`), with its first derivatives taken
by fourth-order central differences across the grid so that it measures the
transport rather than restating its equations, and compares them with the
input coefficients, compiled once per residual by `compile_float`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import isfinite

from .expressions import (ZERO, BinOp, Var, _compiled, compile_derivatives,
                          compile_float)
from .invariants import CONNECTION_WORDS, formula_trees, genericity_P
from .jets import SingularEvaluationError
from .model import geodesic_coefficients, section_to_metric

# Largest loop defect a transport accepts; relative size of psi1 psi3 -
# psi2^2 at or below which a node is degenerate, and a witness too.
LOOP_TOL = 1e-7
DEGENERATE_TOL = 1e-12
WITNESS_TOL = 1e-9


class RecoveryError(Exception):
    pass


class DegenerateWitnessError(RecoveryError):
    """The seed vector encodes a degenerate quadratic form."""


class PathDependenceError(RecoveryError):
    """Transport along x-then-y and y-then-x disagree beyond tolerance:
    the witness is not actually parallel (or the step is too coarse)."""

    def __init__(self, defect):
        super().__init__(
            "transport is path dependent: defect %.3e exceeds %.3e"
            % (defect, LOOP_TOL)
        )
        self.defect = defect


class DegenerateFormError(RecoveryError):
    """The transported section is degenerate at every grid node."""


@dataclass(frozen=True)
class GridSpec:
    center: tuple
    h: float
    n: int
    substeps: int = 4

    def offsets(self):
        shift = (self.n - 1) // 2
        return [i - shift for i in range(self.n)]

    def point(self, i, j):
        cx, cy = self.center
        return (float(cx) + i * float(self.h), float(cy) + j * float(self.h))

    def lattice_point(self, i, j):
        """RK4 node (i, j) of the lattice of spacing h / (2 substeps); grid
        node (i, j) is lattice node (2 substeps i, 2 substeps j) at the
        same coordinates."""
        cx, cy = self.center
        s = 2 * self.substeps
        return (float(cx) + (i / s) * float(self.h),
                float(cy) + (j / s) * float(self.h))


@dataclass
class PsiSection:
    grid: GridSpec
    seed: tuple
    psi: dict
    defect: float
    defects: dict = field(default_factory=dict)


@dataclass
class RecoveredMetric:
    grid: GridSpec
    nodes: dict          # (i, j) -> (E, F, G, Delta, signature)
    excluded: list
    signature: str       # common signature, or "mixed"


@dataclass
class RecoveryResult:
    section: PsiSection
    metric: RecoveredMetric
    residual: float


def initial_section(witness):
    """Validate a kernel vector as a transport seed."""
    w = [float(v) for v in witness]
    if len(w) != 6:
        raise DegenerateWitnessError("witness must have six components")
    scale = max(1.0, max(abs(v) for v in w))
    q = genericity_P(w)
    if abs(q) <= WITNESS_TOL * scale * scale:
        raise DegenerateWitnessError(
            "witness encodes a degenerate form (psi1 psi3 - psi2^2 = %.3e)"
            % q
        )
    return tuple(w)


def _reads(tree):
    """The names of the variables of a tree of + - * on numbers."""
    if isinstance(tree, BinOp):
        return _reads(tree.left) | _reads(tree.right)
    return {tree.name} if isinstance(tree, Var) else set()


@cache
def _connection_kernels():
    """Per axis, (words, kernel, rows), compiled on the first transport
    from the trees of `connection_formula` (`invariants.formula_trees`).

    `rows` are the structural nonzeros of O1 or O2: for each row, the
    columns whose tree is not the number 0; the constants +-1 and -1/2 are
    nonzeros.  `kernel` is those trees, in row-major order, compiled into
    straight-line float code (`expressions._compiled`) whose parameters
    are the symbols they read, coefficient-major; each line is the float
    the formula computes on floats.  `words[k]` are the words of A_k it
    reads, along CONNECTION_WORDS."""
    symbols, trees = formula_trees("connection")
    axes = []
    for m in (trees[:36], trees[36:]):
        rows = tuple(tuple(j for j in range(6) if m[6 * i + j] != ZERO)
                     for i in range(6))
        out = [m[6 * i + j] for i, cols in enumerate(rows) for j in cols]
        read = set().union(*map(_reads, out))
        words = tuple(tuple(w for w, s in zip(CONNECTION_WORDS,
                                              symbols[6 * k:6 * k + 6])
                            if s in read) for k in range(4))
        axes.append((words, _compiled(out, [s for s in symbols if s in read]),
                     rows))
    return tuple(axes)


def compile_structure(structure):
    """Per axis, (values, kernel): `values` is a float function (x, y) ->
    the derivative values of the four coefficients that the axis's kernel
    reads, compiled over only those words, and `kernel` takes them to the
    structural nonzeros of O1 or of O2 (`_connection_kernels`).  The two
    axes share one derivation of the words they both read."""
    letters = {"x": {}, "y": {}}
    return tuple((compile_derivatives(structure.coefficients, words, letters),
                  kernel) for words, kernel, _ in _connection_kernels())


def connection_values(evaluate, point):
    """The structural nonzeros of O1 and of O2 at a float point, in
    row-major order, or None for an axis whose entry of `evaluate` is None.
    `evaluate` is what `compile_structure` makes of the structure, so that
    a transport compiles the coefficients once, with None for each axis a
    node is not integrated along."""
    x, y = float(point[0]), float(point[1])
    o1, o2 = evaluate
    return (None if o1 is None else o1[1](*o1[0](x, y)),
            None if o2 is None else o2[1](*o2[0](x, y)))


@cache
def _rk4_segments():
    """The RK4 segments, compiled on the first transport from the
    structural nonzeros of (O1, O2).

    `segments[axis](ms, psi, h)` is classical RK4 along one grid edge in
    direction `axis`, integrating dPsi/dt = -O_axis Psi with step h from
    psi, where `ms` holds the nonzeros of O_axis at the edge's 2 substeps
    + 1 lattice nodes in order.  It is straight-line code: psi and the
    stages stay in locals, and row i of a stage is -(0.0 + m_i0*v0 +
    m_i1*v1 + ...) over that row's nonzeros, in column order.  A dense row
    would add 0.0*v_j, +-0.0 for a finite v_j, to a sum that starts at +0.0
    and so never becomes -0.0, which leaves every finite value unchanged;
    a non-finite v_j makes the node's section non-finite either way."""
    def joined(m, rows):
        return ", ".join("%s_%d%d" % (m, i, j)
                         for i, cols in enumerate(rows) for j in cols)

    def segment(axis, rows):
        def stage(k, m, v):
            return "".join("        %s_%d = -(%s)\n" % (k, i, " + ".join(
                ["0.0"] + ["%s_%d%d*%s%d" % (m, i, j, v, j) for j in cols]))
                for i, cols in enumerate(rows))

        def axpy(a, k):
            return "".join("        t%d = c%d + %s*%s_%d\n"
                           % (i, i, a, k, i) for i in range(6))

        return (
            "def segment%d(ms, psi, h):\n"
            "    %s = psi\n"
            "    h2 = h / 2.0\n"
            "    h6 = h / 6.0\n"
            "    nodes = iter(ms)\n"
            "    %s = next(nodes)\n"
            "    for (%s), (%s) in zip(nodes, nodes):\n"
            % (axis, psi, joined("m0", rows), joined("mh", rows),
               joined("m1", rows))
            + stage("k1", "m0", "c") + axpy("h2", "k1")
            + stage("k2", "mh", "t") + axpy("h2", "k2")
            + stage("k3", "mh", "t") + axpy("h", "k3")
            + stage("k4", "m1", "t")
            + "".join("        c%d = c%d + h6*(k1_%d + 2.0*k2_%d + 2.0*k3_%d"
                      " + k4_%d)\n" % ((i,) * 6) for i in range(6))
            + "        %s = %s\n" % (joined("m0", rows), joined("m1", rows))
            + "    return (%s)\n" % psi)

    psi = ", ".join("c%d" % i for i in range(6))
    source = "".join(segment(axis, rows) for axis, (_, _, rows)
                     in enumerate(_connection_kernels()))
    namespace = {"__builtins__": {}, "iter": iter, "next": next, "zip": zip}
    exec(compile(source, "<rk4 segments>", "exec"), namespace)
    return namespace["segment0"], namespace["segment1"]


def _march(omegas, grid, seed, first_axis):
    """Fill the grid by transporting along `first_axis` from the centre,
    then along the other axis from each anchor.  Grid node (i, j) is
    lattice node (2 substeps i, 2 substeps j)."""
    offs = grid.offsets()
    offs_set = set(offs)
    span = 2 * grid.substeps
    psi = {(0, 0): seed}

    segments = _rk4_segments()

    def sweep(anchor, axis):
        segment = segments[axis]
        fixed = span * anchor[1 - axis]
        for direction in (1, -1):
            h = direction * float(grid.h) / grid.substeps
            cur = psi[anchor]
            pos = anchor[axis]
            while pos + direction in offs_set:
                lo = span * pos
                line = range(lo, lo + direction * (span + 1), direction)
                ms = ([omegas((t, fixed))[0] for t in line] if axis == 0
                      else [omegas((fixed, t))[1] for t in line])
                cur = segment(ms, cur, h)
                pos += direction
                psi[(pos, anchor[1]) if axis == 0 else (anchor[0], pos)] = cur

    second_axis = 1 - first_axis
    sweep((0, 0), first_axis)
    for o in offs:
        anchor = (o, 0) if first_axis == 0 else (0, o)
        sweep(anchor, second_axis)
    return psi


def transport(structure, seed, grid):
    """Parallel-transport the seed over the grid.

    The section is computed along x-then-y paths; y-then-x paths provide
    the loop defect, whose maximum is the path-dependence measure.  A node
    where either section is not finite raises SingularEvaluationError."""
    seed = initial_section(seed)
    o1, o2 = compile_structure(structure)
    span = 2 * grid.substeps

    @cache
    def omegas(node):
        # a node on a grid row is on an x-line, on a grid column a y-line
        return connection_values((o1 if node[1] % span == 0 else None,
                                  o2 if node[0] % span == 0 else None),
                                 grid.lattice_point(*node))

    psi_a = _march(omegas, grid, seed, 0)
    psi_b = _march(omegas, grid, seed, 1)
    defects = {}
    worst = 0.0
    for key, va in psi_a.items():
        vb = psi_b[key]
        if not all(map(isfinite, va + vb)):
            raise SingularEvaluationError(
                "transported section is not finite at grid node (%d, %d)"
                % key, grid.point(*key))
        d = max(abs(a - b) for a, b in zip(va, vb))
        defects[key] = d
        worst = max(worst, d)
    return PsiSection(grid, seed, psi_a, worst, defects)


def reconstruct_metric(section):
    """Undo the substitution at every node.  Nodes where the form
    Delta = psi1 psi3 - psi2^2 (`genericity_P`) is degenerate relative to
    the psi scale are excluded."""
    nodes = {}
    excluded = []
    signatures = set()
    for key, psi in sorted(section.psi.items()):
        p1, p2, p3 = psi[:3]
        delta = genericity_P(psi)
        if abs(delta) <= DEGENERATE_TOL * max(1.0, p1 * p1, p2 * p2, p3 * p3):
            excluded.append(key)
            continue
        sig = "riemannian" if delta > 0 else "lorentzian"
        signatures.add(sig)
        nodes[key] = (*section_to_metric(p1, p2, p3), delta, sig)
    if not nodes:
        raise DegenerateFormError(
            "transported section is degenerate at every node"
        )
    common = signatures.pop() if len(signatures) == 1 else "mixed"
    return RecoveredMetric(section.grid, nodes, excluded, common)


def roundtrip_residual(metric, structure):
    """Largest deviation, over interior nondegenerate nodes, between the
    input ODE coefficients and the ones recomputed from the reconstructed
    metric table.

    The metric derivatives are measured from the grid itself (fourth-order
    central differences), so the value genuinely reflects transport quality
    rather than restating the transport equation.  Nodes whose five-point
    stencil leaves the grid or touches a degenerate node are not measured;
    when no node qualifies the residual is NaN.
    """
    grid = metric.grid
    h = grid.h
    efg = {key: node[:3] for key, node in metric.nodes.items()}
    coefficients = compile_float(structure.coefficients)

    def stencil(key, axis):
        i, j = key
        def shift(step):
            return (i + step, j) if axis == 0 else (i, j + step)
        wide = [shift(s) for s in (-2, -1, 1, 2)]
        if not all(k in efg for k in wide):
            return None
        m2, m1, p1_, p2_ = (efg[k] for k in wide)
        return tuple(
            (m2[c] - 8.0 * m1[c] + 8.0 * p1_[c] - p2_[c]) / (12.0 * h)
            for c in range(3)
        )

    worst = None
    for key in sorted(efg):
        dx = stencil(key, 0)
        dy = stencil(key, 1)
        if dx is None or dy is None:
            continue
        rec = geodesic_coefficients(efg[key], dx, dy)
        ref = coefficients(*grid.point(*key))
        dev = max(abs(r - s) for r, s in zip(rec, ref))
        worst = dev if worst is None else max(worst, dev)
    return float("nan") if worst is None else worst


def recover_metric(structure, witness, grid):
    """Transport the witness over the grid, refuse a loop defect above
    LOOP_TOL, and reconstruct the metric from the section."""
    section = transport(structure, witness, grid)
    if section.defect > LOOP_TOL:
        raise PathDependenceError(section.defect)
    metric = reconstruct_metric(section)
    return RecoveryResult(section, metric,
                          roundtrip_residual(metric, structure))

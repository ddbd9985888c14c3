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
yields the metric.  The connection is evaluated on plain floats: the four
coefficient trees are differentiated once (value, first and second
derivatives) and compiled into one straight-line float function, whose
values feed the same formulas that give the connection as jets
(`invariants.connection_formula`).  The RK4 nodes lie on the lattice of
spacing h / (2 substeps) and are cached by integer lattice index, so each
distinct node is evaluated once; the cache keeps the 19 structural
nonzeros of each matrix, which the formula itself shows.  Each axis has
one RK4 segment, compiled on the first transport into straight-line code
over them, whose sections are those of the dense 6x6 products bit for
bit.  The round-trip residual re-derives the ODE coefficients from the
reconstructed metric table, by `ode_from_metric`'s formula
(`model.geodesic_coefficients`), with its first derivatives taken by
fourth-order central differences across the grid so that it measures the
transport rather than restating its equations, and compares them with the
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import isfinite

from .expressions import compile_derivatives
from .invariants import (
    CONNECTION_FLOATS,
    CONNECTION_WORDS,
    connection_formula,
    genericity_P,
)
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


def compile_structure(structure):
    """Float function (x, y) -> the four coefficients along
    CONNECTION_WORDS, coefficient-major: 24 values."""
    return compile_derivatives(structure.coefficients, CONNECTION_WORDS)


def connection_values(evaluate, point):
    """Value matrices of the prolonged connection pair at a float point;
    `evaluate` is what `compile_structure` makes of the structure, so that
    a transport differentiates and compiles the coefficients once."""
    v = evaluate(float(point[0]), float(point[1]))
    return connection_formula((v[0:6], v[6:12], v[12:18], v[18:24]),
                              0.0, CONNECTION_FLOATS)


class _StructuralZero(float):
    """The zero `connection_formula` is given, told apart from every value
    it computes: arithmetic on a float subclass returns plain floats."""


def _connection_pattern():
    """The structural nonzeros of (O1, O2): for each matrix, the columns
    of each row where `connection_formula` does not place its zero.  The
    constants +-1 and -1/2 are nonzeros.  Read off the formula itself, run
    once on a zero it can only place, so the connection is stated once."""
    z = _StructuralZero()
    pair = connection_formula(((1.0,) * 6,) * 4, z, CONNECTION_FLOATS)
    return tuple(tuple(tuple(j for j, e in enumerate(row) if e is not z)
                       for row in m) for m in pair)


@cache
def _rk4_kernels():
    """(nonzeros, segments), compiled on the first transport from the
    structural nonzeros of (O1, O2).

    `nonzeros(pair)` takes the pair to a tuple of each matrix's nonzeros
    in row-major order, which is what the lattice cache keeps of a node.
    `segments[axis](ms, psi, h)` is classical RK4 along one grid edge in
    direction `axis`, integrating dPsi/dt = -O_axis Psi with step h from
    psi, where `ms` holds the nonzeros of O_axis at the edge's 2 substeps
    + 1 lattice nodes in order.  It is straight-line code: psi and the
    stages stay in locals, and row i of a stage is -(0.0 + m_i0*v0 +
    m_i1*v1 + ...) over that row's nonzeros, in column order.  A dense row
    would add 0.0*v_j, +-0.0 for a finite v_j, to a sum that starts at +0.0
    and so never becomes -0.0, which leaves every finite value unchanged;
    a non-finite v_j makes the node's section non-finite either way."""
    pattern = _connection_pattern()

    def names(m, rows):
        return [(i, j, "%s_%d%d" % (m, i, j))
                for i, cols in enumerate(rows) for j in cols]

    def joined(m, rows):
        return ", ".join(name for _, _, name in names(m, rows))

    def unpack(m, rows):  # "(m_00, m_01, _, ...), ..." with _ for zeros
        nonzero = {(i, j): name for i, j, name in names(m, rows)}
        return "(%s)" % ", ".join("(%s)" % ", ".join(
            nonzero.get((i, j), "_") for j in range(6)) for i in range(6))

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
    o1, o2 = pattern
    source = (
        "def nonzeros(pair):\n"
        "    %s, %s = pair\n"
        "    return (%s), (%s)\n"
        % (unpack("a", o1), unpack("b", o2), joined("a", o1), joined("b", o2))
        + segment(0, o1) + segment(1, o2))
    namespace = {"__builtins__": {}, "iter": iter, "next": next, "zip": zip}
    exec(compile(source, "<rk4 kernels>", "exec"), namespace)
    return namespace["nonzeros"], (namespace["segment0"],
                                   namespace["segment1"])


def _march(omegas, grid, seed, first_axis):
    """Fill the grid by transporting along `first_axis` from the centre,
    then along the other axis from each anchor.  Grid node (i, j) is
    lattice node (2 substeps i, 2 substeps j)."""
    offs = grid.offsets()
    offs_set = set(offs)
    span = 2 * grid.substeps
    psi = {(0, 0): seed}

    segments = _rk4_kernels()[1]

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
    evaluate = compile_structure(structure)
    nonzeros = _rk4_kernels()[0]

    @cache
    def omegas(node):
        return nonzeros(connection_values(evaluate, grid.lattice_point(*node)))

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
        ref = [float(v) for v in structure.values_at(grid.point(*key))]
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

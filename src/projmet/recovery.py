"""Reconstruct a compatible metric from a kernel witness.

A nondegenerate kernel vector W of the saturated derivative stack is the
value at the base point of a section Psi = (psi1, psi2, psi3, mu, nu, rho)
parallel for the prolonged connection:

    dPsi/dx = -O1(x,y) Psi,      dPsi/dy = -O2(x,y) Psi.

Transporting W across a grid (classical RK4 along x, then y, with the
reversed order as a consistency check) and undoing the substitution

    E = psi1 / Delta^2,  F = psi2 / Delta^2,  G = psi3 / Delta^2,
    Delta = psi1 psi3 - psi2^2

yields the metric.  The connection is evaluated on plain floats: the four
coefficient trees are differentiated once (value, first and second
derivatives) and compiled into one straight-line float function, whose
values feed the same formulas that give the connection as jets
(`invariants.connection_formula`).  The RK4 nodes lie on the lattice of
spacing h / (2 substeps) and are cached by integer lattice index, so each
distinct node is evaluated once.  The round-trip residual re-derives the ODE
coefficients from the reconstructed metric table, with its first
derivatives taken by fourth-order central differences across the grid so
that it measures the transport rather than restating its equations, and
compares them with the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import isfinite
from operator import mul

from .expressions import compile_derivatives
from .invariants import (
    CONNECTION_FLOATS,
    CONNECTION_WORDS,
    JetStructure,
    cartan_stabilize,
    connection_formula,
)
from .jets import SingularEvaluationError

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
    q = w[0] * w[2] - w[1] * w[1]
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
                              0.0, 1.0, CONNECTION_FLOATS)


def _neg_mat_vec(m, v):
    return [-sum(map(mul, row, v)) for row in m]


def _axpy(v, a, w):
    return [vi + a * wi for vi, wi in zip(v, w)]


def _rk4_segment(omegas, grid, start, axis, direction, psi):
    """One grid edge, from grid node `start` to its neighbour `direction`
    (+1 or -1) along `axis`: integrate dPsi/dt = -O_axis Psi by RK4.  The
    RK4 nodes are the 2 substeps + 1 lattice nodes along the edge, and
    `omegas` maps a lattice index to the connection values there."""
    substeps = grid.substeps
    h = direction * float(grid.h) / substeps
    first = [2 * substeps * c for c in start]
    cur = list(psi)

    def omega(s):
        node = list(first)
        node[axis] += direction * s
        return omegas(tuple(node))[axis]

    for k in range(substeps):
        m0 = omega(2 * k)
        mh = omega(2 * k + 1)
        m1 = omega(2 * k + 2)
        k1 = _neg_mat_vec(m0, cur)
        k2 = _neg_mat_vec(mh, _axpy(cur, h / 2.0, k1))
        k3 = _neg_mat_vec(mh, _axpy(cur, h / 2.0, k2))
        k4 = _neg_mat_vec(m1, _axpy(cur, h, k3))
        cur = [
            c + h / 6.0 * (a + 2.0 * b + 2.0 * cc + dd)
            for c, a, b, cc, dd in zip(cur, k1, k2, k3, k4)
        ]
    return cur


def _march(omegas, grid, seed, first_axis):
    """Fill the grid by transporting along `first_axis` from the centre,
    then along the other axis from each anchor."""
    offs = grid.offsets()
    psi = {(0, 0): list(seed)}

    offs_set = set(offs)

    def sweep(anchor, axis):
        ai, aj = anchor
        for direction in (1, -1):
            cur = list(psi[anchor])
            pos = ai if axis == 0 else aj
            while pos + direction in offs_set:
                start = (pos, aj) if axis == 0 else (ai, pos)
                cur = _rk4_segment(omegas, grid, start, axis, direction, cur)
                pos += direction
                psi[(pos, aj) if axis == 0 else (ai, pos)] = list(cur)

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

    @cache
    def omegas(node):
        return connection_values(evaluate, grid.lattice_point(*node))

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
    return PsiSection(
        grid,
        tuple(seed),
        {k: tuple(v) for k, v in psi_a.items()},
        worst,
        defects,
    )


def reconstruct_metric(section):
    """Undo the substitution at every node.  Nodes where the form
    Delta = psi1 psi3 - psi2^2 is degenerate relative to the psi scale are
    excluded."""
    nodes = {}
    excluded = []
    signatures = set()
    for key, psi in sorted(section.psi.items()):
        p1, p2, p3 = psi[:3]
        delta = p1 * p3 - p2 * p2
        if abs(delta) <= DEGENERATE_TOL * max(1.0, p1 * p1, p2 * p2, p3 * p3):
            excluded.append(key)
            continue
        d2 = delta * delta
        sig = "riemannian" if delta > 0 else "lorentzian"
        signatures.add(sig)
        nodes[key] = (p1 / d2, p2 / d2, p3 / d2, delta, sig)
    if not nodes:
        raise DegenerateFormError(
            "transported section is degenerate at every node"
        )
    common = signatures.pop() if len(signatures) == 1 else "mixed"
    return RecoveredMetric(section.grid, nodes, excluded, common)


def _ode_values_from_metric_table(efg, dx, dy):
    """ODE coefficients from node values and derivatives of (E, F, G)."""
    e, f, g = efg
    ex, fx, gx = dx
    ey, fy, gy = dy
    den = 2.0 * (e * g - f * f)
    a0 = (e * ey - 2.0 * e * fx + f * ex) / den
    a1 = (3.0 * f * ey + g * ex - 2.0 * f * fx - 2.0 * e * gx) / den
    a2 = (2.0 * f * fy + 2.0 * g * ey - 3.0 * f * gx - e * gy) / den
    a3 = (2.0 * g * fy - g * gx - f * gy) / den
    return (a0, a1, a2, a3)


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
        rec = _ode_values_from_metric_table(efg[key], dx, dy)
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


def solution_space_dim(structure, point, order=10, mode="auto"):
    """Dimension of the space of compatible metrics at a point, by rank
    stabilisation; None when the ranks do not stabilise in the available
    order."""
    js = JetStructure.at(structure, point, order, mode)
    return cartan_stabilize(js).s_dim

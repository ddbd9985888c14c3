"""Reconstruct a compatible metric from a kernel witness.

A nondegenerate kernel vector W of the saturated derivative stack is the
value at the base point of a section Psi = (psi1, psi2, psi3, mu, nu, rho)
parallel for the prolonged connection:

    dPsi/dx = -O1(x,y) Psi,      dPsi/dy = -O2(x,y) Psi.

Transporting W across a grid (classical RK4 along x, then y, with the
reversed order as a consistency check) and undoing the substitution

    E = psi1 / Delta^2,  F = psi2 / Delta^2,  G = psi3 / Delta^2,
    Delta = psi1 psi3 - psi2^2

yields the metric.  The round-trip residual re-derives the ODE
coefficients from the reconstructed metric table, with its first
derivatives taken by fourth-order central differences across the grid so
that it measures the transport rather than restating its equations, and
compares them with the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .invariants import JetStructure, cartan_stabilize


class RecoveryError(Exception):
    pass


class DegenerateWitnessError(RecoveryError):
    """The seed vector encodes a degenerate quadratic form."""


class PathDependenceError(RecoveryError):
    """Transport along x-then-y and y-then-x disagree beyond tolerance:
    the witness is not actually parallel (or the step is too coarse)."""

    def __init__(self, defect, tol):
        super().__init__(
            "transport is path dependent: defect %.3e exceeds %.3e"
            % (defect, tol)
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


def initial_section(witness, tol=1e-9):
    """Validate a kernel vector as a transport seed."""
    w = [float(v) for v in witness]
    if len(w) != 6:
        raise DegenerateWitnessError("witness must have six components")
    scale = max(1.0, max(abs(v) for v in w))
    q = w[0] * w[2] - w[1] * w[1]
    if abs(q) <= tol * scale * scale:
        raise DegenerateWitnessError(
            "witness encodes a degenerate form (psi1 psi3 - psi2^2 = %.3e)"
            % q
        )
    return tuple(w)


def connection_values(structure, point):
    """Value matrices of the prolonged connection pair at a float point."""
    js = JetStructure.at(structure, point, 2, mode="float")
    o1, o2 = js.connection()
    return (
        [[e.value for e in row] for row in o1],
        [[e.value for e in row] for row in o2],
    )


def _neg_mat_vec(m, v):
    return [-sum(m[i][j] * v[j] for j in range(6)) for i in range(6)]


def _axpy(v, a, w):
    return [vi + a * wi for vi, wi in zip(v, w)]


class _OmegaCache:
    def __init__(self, structure):
        self.structure = structure
        self.cache = {}

    def at(self, point):
        key = point
        hit = self.cache.get(key)
        if hit is None:
            hit = connection_values(self.structure, point)
            self.cache[key] = hit
        return hit


def _rk4_segment(omegas, start, axis, delta, psi, substeps):
    """One grid edge: integrate dPsi/dt = -O_axis Psi over [0, delta]."""
    x0, y0 = start
    h = delta / substeps
    cur = list(psi)

    def omega(t):
        pt = (x0 + t, y0) if axis == 0 else (x0, y0 + t)
        pair = omegas.at(pt)
        return pair[axis]

    for k in range(substeps):
        t = k * h
        m0 = omega(t)
        mh = omega(t + h / 2.0)
        m1 = omega(t + h)
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
    h = float(grid.h)
    sub = grid.substeps
    offs = grid.offsets()
    psi = {(0, 0): list(seed)}

    offs_set = set(offs)

    def sweep(anchor, axis):
        ai, aj = anchor
        for direction in (1, -1):
            cur = list(psi[anchor])
            pos = ai if axis == 0 else aj
            while pos + direction in offs_set:
                start = grid.point(*((pos, aj) if axis == 0 else (ai, pos)))
                cur = _rk4_segment(omegas, start, axis, direction * h, cur,
                                   sub)
                pos += direction
                psi[(pos, aj) if axis == 0 else (ai, pos)] = list(cur)

    second_axis = 1 - first_axis
    sweep((0, 0), first_axis)
    for o in offs:
        anchor = (o, 0) if first_axis == 0 else (0, o)
        sweep(anchor, second_axis)
    return psi


def transport(structure, seed, grid, loop_tol=1e-7, raise_on_defect=True):
    """Parallel-transport the seed over the grid.

    The section is computed along x-then-y paths; y-then-x paths provide
    the loop defect, whose maximum is the path-dependence measure."""
    seed = initial_section(seed)
    omegas = _OmegaCache(structure)
    psi_a = _march(omegas, grid, seed, 0)
    psi_b = _march(omegas, grid, seed, 1)
    defects = {}
    worst = 0.0
    for key, va in psi_a.items():
        vb = psi_b[key]
        d = max(abs(a - b) for a, b in zip(va, vb))
        defects[key] = d
        worst = max(worst, d)
    if raise_on_defect and worst > loop_tol:
        raise PathDependenceError(worst, loop_tol)
    section = PsiSection(
        grid,
        tuple(seed),
        {k: tuple(v) for k, v in psi_a.items()},
        worst,
        defects,
    )
    return section


def reconstruct_metric(section, degenerate_tol=1e-12):
    """Undo the substitution at every node; degenerate nodes are excluded."""
    nodes = {}
    excluded = []
    signatures = set()
    for key, psi in sorted(section.psi.items()):
        p1, p2, p3 = psi[0], psi[1], psi[2]
        delta = p1 * p3 - p2 * p2
        scale = max(1.0, p1 * p1, p2 * p2, p3 * p3)
        if abs(delta) <= degenerate_tol * scale:
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


def roundtrip_residual(section, structure, degenerate_tol=1e-12):
    """Largest deviation, over interior nondegenerate nodes, between the
    input ODE coefficients and the ones recomputed from the reconstructed
    metric table.

    The metric derivatives are measured from the grid itself (fourth-order
    central differences), so the value genuinely reflects transport quality
    rather than restating the transport equation.  Nodes whose five-point
    stencil leaves the grid or touches a degenerate node are not measured;
    when no node qualifies the residual is NaN.
    """
    grid = section.grid
    h = grid.h
    efg = {}
    for key, psi in section.psi.items():
        p1, p2, p3 = psi[0], psi[1], psi[2]
        delta = p1 * p3 - p2 * p2
        scale = max(1.0, p1 * p1, p2 * p2, p3 * p3)
        if abs(delta) <= degenerate_tol * scale:
            continue
        d2 = delta * delta
        efg[key] = (p1 / d2, p2 / d2, p3 / d2)

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


def recover_metric(structure, witness, grid, loop_tol=1e-7,
                   degenerate_tol=1e-12):
    section = transport(structure, witness, grid, loop_tol)
    metric = reconstruct_metric(section, degenerate_tol)
    residual = roundtrip_residual(section, structure, degenerate_tol)
    return RecoveryResult(section, metric, residual)


def solution_space_dim(structure, point, order=10, tol=1e-9, mode="auto"):
    """Dimension of the space of compatible metrics at a point, by rank
    stabilisation; None when the ranks do not stabilise in the available
    order."""
    js = JetStructure.at(structure, point, order, mode)
    return cartan_stabilize(js, tol).s_dim

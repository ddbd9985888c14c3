"""Independent cross-check of the order-5 obstruction via tractor calculus.

Instead of prolonging the metrisability system, work with an affine
connection representing the projective class (the trace-free symbols built
from the ODE coefficients, or any projectively changed representative) and
a parallel area scale eps^{01} = s:

  curvature -> Schouten tensor P_ab -> Cotton tensors
  Y_abc = grad_[a P_b]c,   Y_c = eps^{ab} grad_a P_bc,   Z_ab = grad_(a Y_b)

and stack second covariant derivatives of these into a 6x6 matrix whose
determinant is -270 times that of the 6x6 matrix M of the direct route.
Every entry of the stack is linear in the area scale, so rescaling eps by
a constant multiplies the determinant by its sixth power.

The determinant is also computable without any elimination, as a complete
contraction of the blocks against eight epsilon symbols
(`det_by_contraction`); the two evaluations agree exactly and guard one
another.

A projective change grad -> grad + omega acts on the stack by explicit row
and column operations (`projective_change`); recomputing from scratch with
the changed connection (`change_connection`, which also rescales s by
exp(-3 f) to keep eps parallel) reproduces that result up to the one power
of the scale change, which is the invariance statement the tests pin down.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter

from . import jets as jetlib
from .jets import Jet, InsufficientOrderError, mul_sub
from .linalg import is_exact_matrix

_VARS = ("x", "y")
_PAIRS = ((0, 0), (0, 1), (1, 1))
_IDX2 = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}

F12 = Fraction(1, 2)
F14 = Fraction(1, 4)
F52 = Fraction(5, 2)
F152 = Fraction(15, 2)


class ContractionLayoutError(ValueError):
    """The collapsed 6x6 matrix fed to the contraction has a nonzero
    scalar-scalar corner, so the epsilon contraction does not apply."""


@dataclass(frozen=True)
class AffineConnection:
    """Connection symbols gamma[c][a][b] (jets, symmetric in a, b) plus the
    area scale eps^{01} = s as a jet at the same base point."""

    gamma: tuple
    s: Jet

    @property
    def order(self):
        return self.gamma[0][0][0].order

    @classmethod
    def from_structure(cls, js):
        """Trace-free symbols of the ODE coefficients; their zero trace
        makes the constant scale s = 1 parallel."""
        a0, a1, a2, a3 = js.a
        f13 = Fraction(1, 3)
        gamma = (
            ((f13 * a1, f13 * a2), (f13 * a2, a3)),
            ((-a0, -f13 * a1), ((-f13) * a1, (-f13) * a2)),
        )
        return cls(gamma, js._zero(js.order) + 1)

    def rescaled(self, lam):
        """The scale times `lam`, a number in the symbols' arithmetic."""
        return AffineConnection(self.gamma, self.s * lam)


def _truncated(t, m):
    """A jet, or nested lists of jets, truncated to order m."""
    if isinstance(t, Jet):
        return t.truncated(m)
    return [_truncated(e, m) for e in t]


@functools.cache
def _covd_links(rank):
    """For each index tuple of a rank-r tensor, in order, its links
    (i_k, e, position of the tuple with i_k replaced by e): slot by slot,
    and e = 0, 1 within each slot."""
    idxs = list(product((0, 1), repeat=rank))
    return [[(i, e, idxs.index(idx[:k] + (e,) + idx[k + 1:]))
             for k, i in enumerate(idx) for e in (0, 1)] for idx in idxs]


def _covd(t, g):
    """grad_a t_{i1...ir} for a tensor t of jets nested r lists deep: each
    entry's derivative minus gamma^e_{a ik} t_{...e...} over its links, in
    one `mul_sub`."""
    leaves, rank = [t], 0
    while not isinstance(leaves[0], Jet):
        leaves, rank = [u[i] for u in leaves for i in (0, 1)], rank + 1
    out = [mul_sub(u.diff(_VARS[a]),
                   [(g[e][a][i], leaves[n]) for i, e, n in links])
           for a in (0, 1) for u, links in zip(leaves, _covd_links(rank))]
    # the entries run over (a, i1, ..., ir) in lexicographic order
    for _ in range(rank):
        out = [out[j:j + 2] for j in range(0, len(out), 2)]
    return out


def schouten(conn):
    """Schouten tensor P_bd: the Ricci contraction of the curvature.  Its
    skew part vanishes identically for trace-free symbols."""
    g = conn.gamma
    n = conn.order
    if n < 1:
        raise InsufficientOrderError(1, 0)
    gg = _truncated(g, n - 1)

    def riem(c, a, b, dd):
        acc = g[c][b][dd].diff(_VARS[a]) - g[c][a][dd].diff(_VARS[b])
        for e in (0, 1):
            acc = acc + gg[c][a][e] * gg[e][b][dd]
            acc = acc - gg[c][b][e] * gg[e][a][dd]
        return acc

    return [[riem(0, 0, b, dd) + riem(1, 1, b, dd) for dd in (0, 1)]
            for b in (0, 1)]


@dataclass(frozen=True)
class TractorData:
    conn: AffineConnection
    p: list         # Schouten P_ab
    np: list        # grad_a P_bc
    y3: list        # Cotton Y_abc
    y1: list        # contracted Cotton Y_c = eps^{ab} grad_a P_bc
    ny: list        # grad_a Y_c
    z: list         # Z_ab = grad_(a Y_b)


# The connection order the stack needs: its entries carry up to five
# derivatives of the symbols, and theta_bar truncates to order - 5.
STACK_ORDER = 5


def tractor_data(conn):
    if conn.order < STACK_ORDER:
        raise InsufficientOrderError(STACK_ORDER, conn.order)
    g = conn.gamma
    p = schouten(conn)
    np_ = _covd(p, g)
    y3 = [[[F12 * (np_[a][b][c] - np_[b][a][c]) for c in (0, 1)]
           for b in (0, 1)] for a in (0, 1)]
    st = conn.s.truncated(np_[0][0][0].order)
    y1 = [st * (np_[0][1][c] - np_[1][0][c]) for c in (0, 1)]
    ny = _covd(y1, g)
    z = [[F12 * (ny[a][b] + ny[b][a]) for b in (0, 1)] for a in (0, 1)]
    return TractorData(conn, p, np_, y3, y1, ny, z)


def theta_bar(td):
    """The stacked 6x6 matrix at the connection order minus STACK_ORDER.

    Above target order 0 its entries are jets truncated to that order.  At
    target 0, where every caller reads only constant terms, the block
    formulas run on the tensors' values, and the entries are plain
    Fractions or floats: the order-0 jets' values, bit for bit.
    """
    g = td.conn.gamma
    target = td.conn.order - STACK_ORDER
    nz = _covd(td.z, g)
    nny = _covd(td.ny, g)
    nnz = _covd(nz, g)
    tensors = _truncated(
        [td.p, td.np, td.y3, td.y1, td.ny, td.z, nz, nny, nnz, td.conn.s],
        target)
    if target == 0:
        tensors = theta_values(tensors)
    p, np_, y3, y1, ny, z, nzt, nnyt, nnzt, s = tensors

    def block_t(c, a, b):
        return (
            F52 * (nnyt[a][b][c] + nnyt[b][a][c])
            + 2 * (nzt[a][b][c] + nzt[b][a][c])
            - 5 * p[a][b] * y1[c]
            - F152 * (p[c][a] * y1[b] + p[c][b] * y1[a])
        )

    def block_v(c, dd, a):
        return nzt[a][c][dd] - F52 * (p[a][c] * y1[dd] + p[a][dd] * y1[c])

    def block_x(c, dd, a, b):
        ysym = lambda bb: F12 * (y3[bb][c][dd] + y3[bb][dd][c])
        return (
            F12 * (nnzt[a][b][c][dd] + nnzt[b][a][c][dd])
            - 5 * F14 * (np_[a][b][c] * y1[dd] + np_[b][a][c] * y1[dd]
                         + np_[a][b][dd] * y1[c] + np_[b][a][dd] * y1[c])
            - F52 * (p[c][a] * ny[b][dd] + p[c][b] * ny[a][dd])
            - F52 * (p[dd][a] * ny[b][c] + p[dd][b] * ny[a][c])
            - F12 * (p[c][a] * z[b][dd] + p[c][b] * z[a][dd])
            - F12 * (p[dd][a] * z[b][c] + p[dd][b] * z[a][c])
            + 5 * (y1[a] * ysym(b) + y1[b] * ysym(a))
        )

    # s - s is a zero of the stack's kind; s * 0 is -0.0 for a float s < 0
    theta = [[s - s] * 6 for _ in range(6)]
    for a in (0, 1):
        theta[0][1 + a] = 60 * y1[a]
    for (a, b) in _PAIRS:
        theta[0][3 + _IDX2[(a, b)]] = 12 * z[a][b]
    for c in (0, 1):
        theta[1 + c][0] = 150 * y1[c]
        for a in (0, 1):
            theta[1 + c][1 + a] = 60 * ny[a][c] + 24 * z[a][c]
        for (a, b) in _PAIRS:
            theta[1 + c][3 + _IDX2[(a, b)]] = (
                block_t(c, a, b) - 25 * p[a][b] * y1[c]
            )
    for (c, dd) in _PAIRS:
        r = 3 + _IDX2[(c, dd)]
        theta[r][0] = 30 * z[c][dd]
        for a in (0, 1):
            theta[r][1 + a] = 12 * block_v(c, dd, a)
        for (a, b) in _PAIRS:
            theta[r][3 + _IDX2[(a, b)]] = (
                block_x(c, dd, a, b) - 5 * p[a][b] * z[c][dd]
            )
    return theta


def theta_values(t):
    """The constant terms of a jet, or of nested lists of jets; scalars
    as they are."""
    if isinstance(t, Jet):
        return t.value
    if isinstance(t, list):
        return [theta_values(e) for e in t]
    return t


# ---------------- block accessors ----------------
#
# The stacked matrix splits into blocks by the scalar, vector and symmetric
# 2-tensor slots of its rows and columns: P, Q fill the scalar row, R, S, T
# the vector rows and U, V, X the tensor rows.


def P(m, a):
    return m[0][1 + a]


def Q(m, a, b):
    return m[0][3 + _IDX2[(a, b)]]


def R(m, c):
    return m[1 + c][0]


def S(m, c, a):
    return m[1 + c][1 + a]


def T(m, c, a, b):
    return m[1 + c][3 + _IDX2[(a, b)]]


def U(m, c, d):
    return m[3 + _IDX2[(c, d)]][0]


def V(m, c, d, a):
    return m[3 + _IDX2[(c, d)]][1 + a]


def X(m, c, d, a, b):
    return m[3 + _IDX2[(c, d)]][3 + _IDX2[(a, b)]]


# ---------------- determinant by complete contraction ----------------
#
# The determinant of the stacked matrix, with its structural zero corner,
# equals a complete contraction of the blocks against eight area forms.
# The sum formally runs over all 2^16 index assignments; assignments whose
# epsilon product vanishes contribute nothing, so only the 256 alternating
# ones are enumerated.

_EPS_PAIRS = ((0, 1, 1), (1, 0, -1))


# Weights of the nine bracket terms, the same times 12 for integer entries,
# and their floats for any stack that is not all ints and Fractions: a
# Fraction times a float is the same float product, but much slower.
_BRACKET_WEIGHTS = (1, Fraction(1, 6), Fraction(1, 2), Fraction(1, 2),
                    Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                    Fraction(1, 4), Fraction(1, 4))
_BRACKET_WEIGHTS_12 = tuple(int(12 * w) for w in _BRACKET_WEIGHTS)
_BRACKET_WEIGHTS_FLOAT = tuple(float(w) for w in _BRACKET_WEIGHTS)


def det_by_contraction(mat):
    if mat[0][0] != 0:
        raise ContractionLayoutError(
            "scalar-scalar corner must be exactly zero, got %r" % (mat[0][0],)
        )
    if not is_exact_matrix(mat):
        return _contract(mat, _BRACKET_WEIGHTS_FLOAT)
    # Every term has degree 6: over a common denominator D the integer
    # contraction with weights times 12 is the determinant times 12 D^6.
    den = math.lcm(*(v.denominator for row in mat for v in row))
    ints = [[v.numerator * (den // v.denominator) for v in row]
            for row in mat]
    return Fraction(_contract(ints, _BRACKET_WEIGHTS_12), 12 * den**6)


def _contract(mat, weights):
    w0, w1, w2, w3, w4, w5, w6, w7, w8 = weights
    cells = [v for row in mat for v in row]
    total = 0
    for sign, factors in _contraction_plan():
        (a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5,
         c0, c1, c2, c3, c4, c5, d0, d1, d2, d3, d4, d5,
         e0, e1, e2, e3, e4, e5, f0, f1, f2, f3, f4, f5,
         g0, g1, g2, g3, g4, g5, h0, h1, h2, h3, h4, h5,
         i0, i1, i2, i3, i4, i5) = factors(cells)
        bracket = (
            w0 * a0 * a1 * a2 * a3 * a4 * a5
            - w1 * b0 * b1 * b2 * b3 * b4 * b5
            - w2 * c0 * c1 * c2 * c3 * c4 * c5
            - w3 * d0 * d1 * d2 * d3 * d4 * d5
            + w4 * e0 * e1 * e2 * e3 * e4 * e5
            - w5 * f0 * f1 * f2 * f3 * f4 * f5
            - w6 * g0 * g1 * g2 * g3 * g4 * g5
            - w7 * h0 * h1 * h2 * h3 * h4 * h5
            - w8 * i0 * i1 * i2 * i3 * i4 * i5
        )
        total = total + sign * bracket
    return total


@functools.cache
def _contraction_plan():
    """For each alternating assignment, its epsilon sign and a getter of
    the 54 factors of its bracket from the flattened matrix: six per term,
    in the order `_contract` multiplies them.  Built on first use."""
    mat = [[6 * r + c for c in range(6)] for r in range(6)]
    plan = []
    for combo in product(_EPS_PAIRS, repeat=8):
        sign = 1
        for (_, _, eps) in combo:
            sign *= eps
        (a, b), (c, d), (e, f), (g, h) = [(t[0], t[1]) for t in combo[:4]]
        (i, j), (k, l), (m, n), (p, q) = [(t[0], t[1]) for t in combo[4:]]
        plan.append((sign, itemgetter(
            Q(mat, g, i), S(mat, m, p), T(mat, n, j, k), U(mat, a, c),
            V(mat, d, e, q), X(mat, b, f, h, l),
            P(mat, p), R(mat, m), S(mat, n, q), X(mat, a, c, g, i),
            X(mat, b, e, h, k), X(mat, d, f, j, l),
            P(mat, p), S(mat, m, q), T(mat, n, j, l), U(mat, c, e),
            X(mat, a, d, g, k), X(mat, b, f, h, i),
            P(mat, p), T(mat, m, g, i), T(mat, n, j, k), U(mat, a, c),
            V(mat, d, e, q), X(mat, b, f, h, l),
            P(mat, p), R(mat, m), T(mat, n, g, i), V(mat, a, c, q),
            X(mat, d, e, j, k), X(mat, b, f, h, l),
            Q(mat, g, i), R(mat, m), S(mat, n, p), V(mat, a, c, q),
            X(mat, d, e, j, k), X(mat, b, f, h, l),
            Q(mat, g, i), R(mat, m), T(mat, n, j, k), V(mat, a, c, p),
            V(mat, d, e, q), X(mat, b, f, h, l),
            Q(mat, g, i), S(mat, m, p), S(mat, n, q), U(mat, a, c),
            X(mat, d, e, j, k), X(mat, b, f, h, l),
            Q(mat, g, i), T(mat, m, j, k), T(mat, n, h, l), U(mat, a, c),
            V(mat, d, e, p), V(mat, b, f, q))))
    return plan


# ---------------- projective change ----------------


def projective_change(theta, omega):
    """Row and column operations realising grad -> grad + omega on the
    stacked matrix, block by block over its scalar slot 0, vector slots
    1 + c and tensor slots (c, d).  Entries may be jets or plain scalars;
    omega is the pair (w_x, w_y) of matching values.

    Rows: vector row 1 + c subtracts 2 w_c row 0, and tensor row (c, d)
    subtracts (w_c row 1+d + w_d row 1+c) / 2 and adds w_c w_d row 0.
    Columns: the mirror image, with the entry on the left of each product.
    No term is formed from the structural zero corner.  The determinant is
    untouched (all operations add multiples of earlier block rows/columns).
    """
    w = omega
    top = theta[0]
    mid = [list(row) for row in theta]
    for c in (0, 1):
        row = theta[1 + c]
        for j in range(1, 6):
            mid[1 + c][j] = row[j] - 2 * w[c] * top[j]
    for r, (c, d) in enumerate(_PAIRS, 3):
        row, vc, vd = theta[r], theta[1 + c], theta[1 + d]
        for j in range(6):
            e = row[j] - F12 * (w[c] * vd[j] + w[d] * vc[j])
            mid[r][j] = e + w[c] * w[d] * top[j] if j else e

    out = [list(row) for row in mid]
    for a in (0, 1):
        for i in range(1, 6):
            out[i][1 + a] = mid[i][1 + a] - 2 * mid[i][0] * w[a]
    for k, (a, b) in enumerate(_PAIRS, 3):
        for i, row in enumerate(mid):
            e = row[k] - F12 * (row[1 + a] * w[b] + row[1 + b] * w[a])
            out[i][k] = e + row[0] * w[a] * w[b] if i else e
    return out


def change_connection(conn, f_jet):
    """The representative with symbols shifted by omega = df (both slots),
    with the area scale rescaled by exp(-3 f) so it stays parallel.

    omega costs a derivative, so f_jet is one order above the connection,
    and the result is at the connection's order.  The exponential forces
    float arithmetic, so every symbol and the scale are converted to float.
    """
    w = (f_jet.diff("x"), f_jet.diff("y"))
    g = conn.gamma
    gamma = tuple(
        tuple(
            tuple(
                g[c][a][b].to_float()
                + (w[b] if c == a else 0)
                + (w[a] if c == b else 0)
                for b in (0, 1)
            )
            for a in (0, 1)
        )
        for c in (0, 1)
    )
    s = conn.s.to_float() * jetlib.exp(-3 * f_jet.truncated(conn.order))
    return AffineConnection(gamma, s)

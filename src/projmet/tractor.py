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

The stack is one formula (`stack_formula`, through `schouten`, `_covd` and
`tractor_tensors`) over operands that support + - *, scaling and `.diff`.
On first use, never at import, it is run once on `Var` symbols for the six
distinct gamma^c_ab and s, and a tape is read off the trees
(`stack_tape`): 891 ops, 209 products, 123 scalings, 423 sums and
differences, 50 derivatives and 86 truncations, each run at the lowest
order that the stack's entries need.  That takes about 3.2 ms in exact
arithmetic; the float tape is the exact one's in floats, about 0.2 ms
more.  `tractor_data` hands the connection's raw tables to `theta_bar`,
which replays the tape on them (`jets.run_tape`) at any target order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter

from . import jets as jetlib
from .expressions import Var
from .invariants import (CONNECTION_FLOATS, CONNECTION_RATIONALS, _read_tape,
                         float_ops)
from .jets import InsufficientOrderError, Jet, JetError, run_tape, word_tables
from .linalg import is_exact_matrix

_VARS = ("x", "y")
_PAIRS = ((0, 0), (0, 1), (1, 1))
_IDX2 = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}

# The stack's constants 1/2, 1/4, 5/2 and 15/2, for exact operands and as
# floats: the formulas take those of their operands' arithmetic, since a
# Fraction meeting a float takes Fraction's slow fallback to the same
# product.  All four are dyadic, so the floats are the same bits.
STACK_RATIONALS = (Fraction(1, 2), Fraction(1, 4), Fraction(5, 2),
                   Fraction(15, 2))
STACK_FLOATS = tuple(float(c) for c in STACK_RATIONALS)


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
        f13 = (CONNECTION_RATIONALS if js.exact else CONNECTION_FLOATS)[0]
        gamma = (
            ((f13 * a1, f13 * a2), (f13 * a2, a3)),
            ((-a0, -f13 * a1), ((-f13) * a1, (-f13) * a2)),
        )
        return cls(gamma, js._zero(js.order) + 1)

    def rescaled(self, lam):
        """The scale times `lam`, a number in the symbols' arithmetic."""
        return AffineConnection(self.gamma, self.s * lam)


@functools.cache
def _covd_links(rank):
    """For each index tuple of a rank-r tensor, in order, its links
    (i_k, e, position of the tuple with i_k replaced by e): slot by slot,
    and e = 0, 1 within each slot."""
    idxs = list(product((0, 1), repeat=rank))
    return [[(i, e, idxs.index(idx[:k] + (e,) + idx[k + 1:]))
             for k, i in enumerate(idx) for e in (0, 1)] for idx in idxs]


# ---------------- the stack's formulas ----------------
#
# Written once, over operands of any arithmetic that support + - *,
# scaling by a number and `.diff(var)`, with the symbols g[c][a][b] and the
# scale s: on expression trees they record the stack tape, and on jets,
# each binary operation truncating to the lower order of its operands, they
# are the tests' reference.


def _covd(t, g):
    """grad_a t_{i1...ir} for a tensor t nested r lists deep: each entry's
    derivative minus gamma^e_{a ik} t_{...e...} over its links, in order."""
    leaves, rank = [t], 0
    while isinstance(leaves[0], list):
        leaves, rank = [u[i] for u in leaves for i in (0, 1)], rank + 1
    out = []
    for a in (0, 1):
        for u, links in zip(leaves, _covd_links(rank)):
            acc = u.diff(_VARS[a])
            for i, e, n in links:
                acc = acc - g[e][a][i] * leaves[n]
            out.append(acc)
    # the entries run over (a, i1, ..., ir) in lexicographic order
    for _ in range(rank):
        out = [out[j:j + 2] for j in range(0, len(out), 2)]
    return out


def schouten(g):
    """Schouten tensor P_bd: the Ricci contraction of the curvature.  Its
    skew part vanishes identically for trace-free symbols."""
    def riem(c, a, b, dd):
        acc = g[c][b][dd].diff(_VARS[a]) - g[c][a][dd].diff(_VARS[b])
        for e in (0, 1):
            acc = acc + g[c][a][e] * g[e][b][dd]
            acc = acc - g[c][b][e] * g[e][a][dd]
        return acc

    return [[riem(0, 0, b, dd) + riem(1, 1, b, dd) for dd in (0, 1)]
            for b in (0, 1)]


def tractor_tensors(g, s, rationals):
    """(P, grad P, Y_abc, Y_c, grad Y, Z) of the symbols g and scale s:
    the Schouten tensor P_ab, grad_a P_bc, the Cotton tensor Y_abc, the
    contracted Cotton tensor Y_c = eps^{ab} grad_a P_bc, grad_a Y_c and
    Z_ab = grad_(a Y_b).  `rationals` are STACK_RATIONALS or STACK_FLOATS,
    in the operands' arithmetic."""
    F12 = rationals[0]
    p = schouten(g)
    np_ = _covd(p, g)
    y3 = [[[F12 * (np_[a][b][c] - np_[b][a][c]) for c in (0, 1)]
           for b in (0, 1)] for a in (0, 1)]
    y1 = [s * (np_[0][1][c] - np_[1][0][c]) for c in (0, 1)]
    ny = _covd(y1, g)
    z = [[F12 * (ny[a][b] + ny[b][a]) for b in (0, 1)] for a in (0, 1)]
    return p, np_, y3, y1, ny, z


def stack_formula(g, s, rationals):
    """The stacked 6x6 matrix of the symbols g and scale s, its rows and
    columns over the scalar slot 0, the vector slots 1 + c and the tensor
    slots (c, d), from `tractor_tensors` and three more derivatives."""
    F12, F14, F52, F152 = rationals
    p, np_, y3, y1, ny, z = tractor_tensors(g, s, rationals)
    nz = _covd(z, g)
    nny = _covd(ny, g)
    nnz = _covd(nz, g)

    def block_t(c, a, b):
        return (
            F52 * (nny[a][b][c] + nny[b][a][c])
            + 2 * (nz[a][b][c] + nz[b][a][c])
            - 5 * p[a][b] * y1[c]
            - F152 * (p[c][a] * y1[b] + p[c][b] * y1[a])
        )

    def block_v(c, dd, a):
        return nz[a][c][dd] - F52 * (p[a][c] * y1[dd] + p[a][dd] * y1[c])

    def block_x(c, dd, a, b):
        ysym = lambda bb: F12 * (y3[bb][c][dd] + y3[bb][dd][c])
        return (
            F12 * (nnz[a][b][c][dd] + nnz[b][a][c][dd])
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


# ---------------- the stack as a tape ----------------

# The connection order the stack needs: its entries carry up to five
# derivatives of the symbols, and theta_bar truncates to order - 5.
STACK_ORDER = 5

# The stack tape's inputs: the six distinct symbols gamma^c_ab, a <= b,
# and the scale.
_STACK_SYMBOLS = tuple("g%d%d%d" % (c, a, b) for c in (0, 1)
                       for a, b in _PAIRS) + ("s",)


@functools.cache
def stack_tape(exact):
    """The tape of `stack_formula` in exact or float arithmetic (see
    `jets.run_tape`), read on first use, never at import, off the formula
    run once on `Var` symbols (`_STACK_SYMBOLS`); the float tape is the
    exact one in floats.  Its ops run at orders counted up from the
    stack's, so one tape serves every target order."""
    if not exact:
        ops, outputs, ups = stack_tape(True)
        return float_ops(ops), outputs, ups
    sym = [Var(name) for name in _STACK_SYMBOLS]
    g = tuple(((sym[3 * c], sym[3 * c + 1]), (sym[3 * c + 1], sym[3 * c + 2]))
              for c in (0, 1))
    trees = [e for row in stack_formula(g, sym[6], STACK_RATIONALS)
             for e in row]
    return _read_tape(trees, _STACK_SYMBOLS)


def tractor_data(conn):
    """The stack's inputs: the raw tables (`jets.word_tables`) of the
    connection's six distinct symbols and its scale, which must share one
    order of at least STACK_ORDER, one arithmetic and one base point."""
    if conn.order < STACK_ORDER:
        raise InsufficientOrderError(STACK_ORDER, conn.order)
    g = conn.gamma
    inputs = [g[c][a][b] for c in (0, 1) for a, b in _PAIRS] + [conn.s]
    if len({(j.order, j.exact, j.base) for j in inputs}) > 1:
        raise JetError("a connection's symbols and scale share one order, "
                       "arithmetic and base point")
    return conn, word_tables(inputs, ("",), conn.order)


def theta_bar(td):
    """The stacked 6x6 matrix at the connection order minus STACK_ORDER,
    by the stack tape on `tractor_data`'s tables.

    Above target order 0 its entries are jets of that order.  At target 0,
    where every caller reads only constant terms, they are plain Fractions
    or floats: the order-0 jets' values, bit for bit.
    """
    conn, tables = td
    n = conn.order - STACK_ORDER
    s = conn.s
    out = run_tape(stack_tape(s.exact), tables, conn.order, s.base, n)
    if n == 0:
        out = [e.value for e in out]
    return [out[6 * r:6 * r + 6] for r in range(6)]


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
    # every product with 1/2 has a factor of omega
    floats = any(isinstance(v, float) or isinstance(v, Jet) and not v.exact
                 for v in w)
    F12 = (STACK_FLOATS if floats else STACK_RATIONALS)[0]
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

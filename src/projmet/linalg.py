"""Dense exact/float linear algebra for small obstruction matrices.

Each arithmetic has one elimination, and `det`, `rank_kernel` and
`RankResult.det` all read its pivots.  All-Fraction matrices go through
fraction-free Gauss-Jordan on rows scaled to integers (Bareiss, 1968): the
determinant is the last pivot over the row scale.  A matrix holding a float
goes through partially pivoted Gauss-Jordan: the determinant is the
row-swap sign times the product of the pivots, and 0.0 when a column has no
pivot.  `rank_kernel` counts a float pivot below a tolerance band as zero and
flags marginal rank decisions; `det` accepts every nonzero pivot.  A
non-finite entry raises SingularEvaluationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .jets import SingularEvaluationError, to_scalar


def _coerce_matrix(rows):
    return [[to_scalar(v) for v in row] for row in rows]


def is_exact_matrix(rows):
    return all(isinstance(v, Fraction) for row in rows for v in row)


def _float_matrix(rows):
    m = [[float(v) for v in row] for row in rows]
    if not all(math.isfinite(v) for row in m for v in row):
        raise SingularEvaluationError("non-finite matrix entry")
    return m


def _eliminate_exact(rows):
    """(m, pivot_cols, sign, scale): row i of the integer matrix m has its
    pivot in column pivot_cols[i] and zeros in the other pivot columns;
    sign is the row permutation's and scale the product of the row lcms."""
    dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
    m = [[v.numerator * (den // v.denominator) for v in row]
         for row, den in zip(rows, dens)]
    sign = prev = 1
    pivot_cols = []
    for c in range(len(m[0])):
        r = len(pivot_cols)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[r])]
        prev = p
        pivot_cols.append(c)
    return m, pivot_cols, sign, math.prod(dens)


def _eliminate_float(m, thr):
    """(pivot_cols, sign, prod, marginal) for the float rows m, reduced in
    place: row i has 1 in column pivot_cols[i] and zeros in the other pivot
    columns.  A column whose largest candidate is below thr, or zero, has
    no pivot; candidates within a factor 10 of thr on either side set
    marginal.  sign is the row permutation's, prod the product of the
    pivots."""
    nrows = len(m)
    pivot_cols = []
    sign, prod, marginal = 1, 1.0, False
    r = 0
    for c in range(len(m[0])):
        if r >= nrows:
            break
        best_i = max(range(r, nrows), key=lambda i: abs(m[i][c]))
        best = abs(m[best_i][c])
        if best < thr or best == 0.0:
            if best > thr / 10.0:
                marginal = True
            for i in range(r, nrows):
                m[i][c] = 0.0
            continue
        if best < 10.0 * thr:
            marginal = True
        if best_i != r:
            m[r], m[best_i] = m[best_i], m[r]
            sign = -sign
        pivot = m[r][c]
        prod *= pivot
        m[r] = [v / pivot for v in m[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f == 0:
                continue
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    return pivot_cols, sign, prod, marginal


@dataclass
class RankResult:
    rank: int
    kernel: list = field(default_factory=list)
    marginal: bool = False
    exact: bool = True
    det: object = None      # square input only, from the same pivots


def rank_kernel(rows, tol=1e-9):
    """Row-reduce and return rank, a kernel basis and, for square input,
    the determinant.

    Exact matrices are decided exactly (`marginal` stays False).  For float
    matrices a pivot candidate below tol * (largest matrix entry) counts as
    zero; accepted pivots within a factor 10 of that threshold, or rejected
    candidates within a factor 10 above it, mark the result as marginal.
    The float determinant is 0.0 below full rank, so it vanishes exactly
    when the rank decision says so.

    Kernel vectors are normalised so their largest-magnitude entry is +1.
    """
    if not rows:
        raise ValueError("rank_kernel needs at least one row")
    m = _coerce_matrix(rows)
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    exact = is_exact_matrix(m)
    square = len(m) == ncols
    marginal = False
    d = None
    if exact:
        # integer rows keep their pivots; float pivot rows are scaled to 1
        m, pivot_cols, sign, scale = _eliminate_exact(m)
        heads = [Fraction(m[i][pc]) for i, pc in enumerate(pivot_cols)]
        if square:
            # m[-1][-1] is the last pivot at full rank, and 0 below it
            d = Fraction(sign * m[-1][-1], scale)
    else:
        m = _float_matrix(m)
        scale = max((abs(v) for row in m for v in row), default=0.0)
        thr = tol * scale if scale > 0.0 else tol
        pivot_cols, sign, prod, marginal = _eliminate_float(m, thr)
        heads = [1.0] * len(pivot_cols)
        if square:
            d = sign * prod if len(pivot_cols) == ncols else 0.0

    kernel = []
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    for fc in [c for c in range(ncols) if c not in pivot_cols]:
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivot_cols):
            v[pc] = -m[i][fc] / heads[i]
        # normalise: largest-magnitude entry becomes +1
        pivot = max(v, key=abs)
        kernel.append(tuple(a / pivot for a in v))
    return RankResult(len(pivot_cols), kernel, marginal, exact, d)


def det(rows):
    """The determinant, read from `rank_kernel`'s elimination with no
    threshold: every nonzero pivot counts."""
    if not rows:
        return Fraction(1)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant of a non-square matrix")
    return rank_kernel(rows, 0.0).det

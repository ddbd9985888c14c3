"""Dense exact/float linear algebra for small obstruction matrices.

All-Fraction matrices go through one exact elimination, fraction-free
Gauss-Jordan on rows scaled to integers (Bareiss, 1968): `det` reads the
last pivot and `rank_kernel` the pivots and reduced rows.  A matrix holding
a float goes through partially pivoted Gaussian elimination (`det`) or a
tolerance-banded Gauss-Jordan that flags marginal rank decisions
(`rank_kernel`); a non-finite entry raises SingularEvaluationError.
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


def det(rows):
    m = _coerce_matrix(rows)
    if not m:
        return Fraction(1)
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant of a non-square matrix")
    if not is_exact_matrix(m):
        return _det_float(_float_matrix(m))
    m, _, sign, scale = _eliminate_exact(m)
    # m[-1][-1] is the last pivot at full rank, and 0 below full rank
    return Fraction(sign * m[-1][-1], scale)


def _det_float(m):
    n = len(m)
    detval = 1.0
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[pivot_row][k] == 0.0:
            return 0.0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            detval = -detval
        pivot = m[k][k]
        detval *= pivot
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            if factor == 0.0:
                continue
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return detval


@dataclass
class RankResult:
    rank: int
    kernel: list = field(default_factory=list)
    marginal: bool = False
    exact: bool = True


def rank_kernel(rows, tol=1e-9):
    """Row-reduce and return rank plus a kernel basis.

    Exact matrices are decided exactly (`marginal` stays False).  For float
    matrices a pivot candidate below tol * (largest matrix entry) counts as
    zero; accepted pivots within a factor 10 of that threshold, or rejected
    candidates within a factor 10 above it, mark the result as marginal.

    Kernel vectors are normalised so their largest-magnitude entry is +1.
    """
    if not rows:
        raise ValueError("rank_kernel needs at least one row")
    m = _coerce_matrix(rows)
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    exact = is_exact_matrix(m)
    marginal = False
    if exact:
        # integer rows keep their pivots; float pivot rows are scaled to 1
        m, pivot_cols, _, _ = _eliminate_exact(m)
        heads = [Fraction(m[i][pc]) for i, pc in enumerate(pivot_cols)]
    else:
        m = _float_matrix(m)
        scale = max((abs(v) for row in m for v in row), default=0.0)
        thr = tol * scale if scale > 0.0 else tol
        nrows = len(m)
        pivot_cols = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            best_i = max(range(r, nrows), key=lambda i: abs(m[i][c]))
            best = abs(m[best_i][c])
            if best < thr:
                if best > thr / 10.0:
                    marginal = True
                for i in range(r, nrows):
                    m[i][c] = 0.0
                continue
            if best < 10.0 * thr:
                marginal = True
            if best_i != r:
                m[r], m[best_i] = m[best_i], m[r]
            pivot = m[r][c]
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
        heads = [1.0] * r

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
    return RankResult(len(pivot_cols), kernel, marginal, exact)

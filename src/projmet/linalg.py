"""Dense exact/float linear algebra for small obstruction matrices.

Each arithmetic has one elimination, and `det`, `rank_kernel` and
`RankResult.det` all read it; each takes the numbers it is given.  A
matrix of ints and Fractions is exact and goes through `ExactElimination`,
a row-incremental fraction-free Gauss-Jordan: each row, scaled to
integers, is reduced against the integer basis rows at their pivots and
divided by its content, and the old basis rows are cleared at a new pivot.
So a caller that feeds a stack row by row reads the rank after every
prefix, the kernel from the reduced row echelon form, and the determinant
from the pivots and the tracked row scalings, all from one elimination.
A matrix holding a float goes through partially pivoted Gauss-Jordan: the
determinant is the row-swap sign times the product of the pivots, and 0.0
when a column has no pivot.  `rank_kernel` counts a float pivot below a
tolerance band as zero and flags marginal rank decisions; `det` accepts
every nonzero pivot.  Either arithmetic builds a kernel only when it is
read.  A non-finite entry raises SingularEvaluationError.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .jets import SingularEvaluationError


def is_exact_matrix(rows):
    """True when every entry is an int or a Fraction."""
    return all(isinstance(v, (int, Fraction)) for row in rows for v in row)


def _float_matrix(rows):
    m = [[float(v) for v in row] for row in rows]
    if not all(math.isfinite(v) for row in m for v in row):
        raise SingularEvaluationError("non-finite matrix entry")
    return m


def _parity(perm):
    """+1 or -1, the sign of a permutation of range(len(perm))."""
    sign = 1
    for i, a in enumerate(perm):
        for b in perm[i + 1:]:
            if a > b:
                sign = -sign
    return sign


def _clear(a, b, c):
    """(p, p a - f b), with p and f the coprime integers that zero column
    c; b[c] must not be zero."""
    h = math.gcd(b[c], a[c])
    p, f = b[c] // h, a[c] // h
    return p, [p * u - f * v for u, v in zip(a, b)]


def _primitive(r):
    """(g, r / g), g the gcd of r's entries (0 for a zero row)."""
    g = math.gcd(*r)
    return g, [u // g for u in r] if g > 1 else r


class ExactElimination:
    """Row-incremental fraction-free Gauss-Jordan on rows of `ncols` ints
    and Fractions.

    `add` scales a row to integers, reduces it against the basis rows at
    their pivots and divides it by its content; a row that is not reduced
    to zero joins the basis with its pivot at its first nonzero column,
    and the old basis rows are cleared at that pivot.  So the basis is the
    reduced row echelon form of the rows added, up to the order and scale
    of its rows, and the rank, the kernel and the determinant can be read
    after any prefix of rows.  `num` and `den` track the row scalings:
    det(basis rows) = num / den * det(the independent rows added)."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []      # integer basis rows, in the order added
        self.pivots = []    # the pivot column of each basis row
        self.num = self.den = 1

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row):
        """Take one more row; True when it raised the rank."""
        lcm = math.lcm(*(v.denominator for v in row))
        r = [v.numerator * (lcm // v.denominator) for v in row]
        num = lcm
        for b, c in zip(self.rows, self.pivots):
            if r[c]:
                p, r = _clear(r, b, c)
                num *= p
        g, r = _primitive(r)
        if not g:
            return False
        c = next(j for j, u in enumerate(r) if u)
        for i, b in enumerate(self.rows):
            if b[c]:
                p, b = _clear(b, r, c)
                gb, self.rows[i] = _primitive(b)
                num *= p
                g *= gb
        self.rows.append(r)
        self.pivots.append(c)
        self.num *= num
        self.den *= g
        return True

    def kernel(self):
        """A basis of the rows' null space, one vector per free column in
        increasing order, each normalised so that its largest-magnitude
        entry is +1."""
        out = []
        for fc in range(self.ncols):
            if fc in self.pivots:
                continue
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for b, pc in zip(self.rows, self.pivots):
                v[pc] = Fraction(-b[fc], b[pc])
            peak = max(v, key=abs)
            out.append(tuple(a / peak for a in v))
        return out

    def det(self):
        """The determinant of the independent rows added, in order: of the
        matrix of every row added when they are `ncols` rows, and 0 below
        full rank."""
        if self.rank < self.ncols:
            return Fraction(0)
        # each basis row has one nonzero pivot column once the other rows'
        # multiples are subtracted, which keeps det
        d = _parity(self.pivots) * math.prod(
            b[c] for b, c in zip(self.rows, self.pivots))
        return Fraction(d * self.den, self.num)


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


def _float_kernel(m, pivot_cols):
    """A basis of the null space of the reduced float rows m, one vector
    per free column in increasing order."""
    ncols = len(m[0])
    kernel = []
    for fc in [c for c in range(ncols) if c not in pivot_cols]:
        v = [0.0] * ncols
        v[fc] = 1.0
        for i, pc in enumerate(pivot_cols):
            v[pc] = -m[i][fc]
        # normalise: largest-magnitude entry becomes +1
        pivot = max(v, key=abs)
        kernel.append(tuple(a / pivot for a in v))
    return kernel


class RankResult:
    """The rank, marginal flag, arithmetic and (square input only)
    determinant of one elimination; its kernel is built from that
    elimination when first read, which most callers never do."""

    def __init__(self, rank, marginal, exact, det, build_kernel):
        self.rank, self.marginal, self.exact, self.det = (
            rank, marginal, exact, det)
        self._build_kernel = build_kernel

    @functools.cached_property
    def kernel(self):
        return self._build_kernel()


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
    The kernel is built only when `.kernel` is read.
    """
    if not rows:
        raise ValueError("rank_kernel needs at least one row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    square = len(rows) == ncols
    if is_exact_matrix(rows):
        e = ExactElimination(ncols)
        for row in rows:
            if e.rank == ncols:
                break
            e.add(row)
        return RankResult(e.rank, False, True, e.det() if square else None,
                          e.kernel)

    m = _float_matrix(rows)
    scale = max((abs(v) for row in m for v in row), default=0.0)
    thr = tol * scale if scale > 0.0 else tol
    pivot_cols, sign, prod, marginal = _eliminate_float(m, thr)
    d = None
    if square:
        d = sign * prod if len(pivot_cols) == ncols else 0.0
    return RankResult(len(pivot_cols), marginal, False, d,
                      functools.partial(_float_kernel, m, pivot_cols))


def det(rows):
    """The determinant: exact rows are fed to one `ExactElimination`,
    which stops at the first dependent row; float rows run `rank_kernel`'s
    elimination with no threshold, so every nonzero pivot counts."""
    if not rows:
        return Fraction(1)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if is_exact_matrix(rows):
        e = ExactElimination(len(rows))
        return e.det() if all(map(e.add, rows)) else Fraction(0)
    return rank_kernel(rows, 0.0).det

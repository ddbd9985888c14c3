"""Metrisability obstructions of a projective structure at a point.

Everything here works on truncated Taylor jets of the four ODE coefficients
at a chosen base point.  The central objects:

  * the two fifth-order scalars L1, L2 (coefficients of the first
    point invariant, which is -6(L1 + L2 p) linear in the slope p);
  * the obstruction row vector V built from L1, L2 and their first
    derivatives;
  * the pair of 6x6 connection matrices O1, O2 of the prolonged
    metrisability system, against which V is differentiated covariantly
    (D_a V = dV/da - V O_a);
  * determinant/rank conditions on stacks of covariant derivatives of V
    (the 6x6 matrix M, its 21x6 saturation, the order-6 pair E1/E2, and
    rank-stratified order-7/order-8 determinants);
  * a dimension count for the space of solutions by rank stabilisation.

`decide_metrisability` combines these into a verdict over a sample of
points.  All derivative bookkeeping truncates uniformly, so a jet of order
N supports L at order N-2, V at order N-3, and k-fold derivatives of V at
order N-3-k; the full verdict needs N >= 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .jets import InsufficientOrderError, SingularEvaluationError, mul_sub
from .expressions import choose_arithmetic, eval_jet

F13 = Fraction(1, 3)
F23 = Fraction(2, 3)
F43 = Fraction(4, 3)
F89 = Fraction(8, 9)
F169 = Fraction(16, 9)
F49 = Fraction(4, 9)
F29 = Fraction(2, 9)
F83 = Fraction(8, 3)
F203 = Fraction(20, 3)

VERDICT_FLAT = "MetrisableFlat"
VERDICT_METRISABLE = "Metrisable"
VERDICT_NOT = "NotMetrisable"
VERDICT_DEGENERATE = "DegenerateKernel"
VERDICT_INCONCLUSIVE = "Inconclusive"


class JetStructure:
    """Coefficient jets of one structure at one point, with caches for the
    derived invariants so repeated queries don't recompute them."""

    def __init__(self, a_jets):
        a0, a1, a2, a3 = a_jets
        for a in (a1, a2, a3):
            if a.base != a0.base or a.order != a0.order:
                raise ValueError("coefficient jets must share base and order")
            if a.exact != a0.exact:
                raise ValueError("coefficient jets must share one arithmetic")
        self.a = (a0, a1, a2, a3)
        self._L = None
        self._conn = None
        self._columns = None
        self._rows = {}

    @classmethod
    def at(cls, structure, point, order, mode="auto"):
        """The coefficients' jets at `point`, all in the one arithmetic
        that `mode` gives the four trees there."""
        kind = choose_arithmetic(structure.coefficients, point, mode)
        memo = {}
        return cls(tuple(
            eval_jet(c, point, order, kind, memo)
            for c in structure.coefficients
        ))

    @property
    def order(self):
        return self.a[0].order

    @property
    def base(self):
        return self.a[0].base

    @property
    def exact(self):
        return self.a[0].exact

    def _zero(self, order):
        return 0 * self.a[0].truncated(order)

    def liouville(self):
        if self._L is None:
            self._L = _liouville_L(self.a)
        return self._L

    def connection(self):
        """(O1, O2) at order max(N-4, 0), the highest order a covariant
        derivative of V reads; each reads it truncated to its own."""
        if self._conn is None:
            self._conn = _connection_matrices(self.a, self._zero,
                                              max(self.order - 4, 0))
        return self._conn

    def columns(self, var):
        """O_x or O_y as `Columns`."""
        if self._columns is None:
            self._columns = dict(zip("xy", map(Columns.of,
                                               self.connection())))
        return self._columns[var]

    def levels(self, depth):
        """Covariant derivative rows of V up to `depth`: level k holds the
        words x^(k-j) y^j by increasing j."""
        if depth > self.order - 3:
            raise InsufficientOrderError(depth + 3, self.order)
        return [[self.row(w) for w in level_words(k)]
                for k in range(depth + 1)]

    def row(self, word):
        """Covariant derivative row D_word V, letters applied left to right
        ("" is V itself), memoised by word: each word extends its prefix by
        one covariant derivative."""
        if word not in self._rows:
            if word:
                ch = word[-1]
                self._rows[word] = cov_deriv(self.row(word[:-1]),
                                             self.columns(ch), ch)
            else:
                self._rows[word] = _vector_V(self)
        return self._rows[word]


def level_words(k):
    """The derivative words of level k: x^(k-j) y^j by increasing j."""
    return ["x" * (k - j) + "y" * j for j in range(k + 1)]


# ---------------- scalar invariants ----------------


def _liouville_L(a):
    a0, a1, a2, a3 = a
    n = a0.order
    if n < 2:
        raise InsufficientOrderError(2, n)
    m = n - 2
    d = lambda j, v: j.diff(v).truncated(m)
    dd = lambda j, u, v: j.diff(u).diff(v)
    t = lambda j: j.truncated(m)

    l1 = (
        F23 * dd(a1, "x", "y") - F13 * dd(a2, "x", "x") - dd(a0, "y", "y")
        + t(a0) * d(a2, "y") + t(a2) * d(a0, "y")
        - t(a3) * d(a0, "x") - 2 * t(a0) * d(a3, "x")
        - F23 * t(a1) * d(a1, "y") + F13 * t(a1) * d(a2, "x")
    )
    l2 = (
        F23 * dd(a2, "x", "y") - F13 * dd(a1, "y", "y") - dd(a3, "x", "x")
        - t(a3) * d(a1, "x") - t(a1) * d(a3, "x")
        + t(a0) * d(a3, "y") + 2 * t(a3) * d(a0, "y")
        + F23 * t(a2) * d(a2, "x") - F13 * t(a2) * d(a1, "y")
    )
    return (l1, l2)


def nu5(js):
    """Fifth-order relative invariant whose vanishing (on top of a rank-3
    degeneracy) signals the Liouville-type branch."""
    if js.order < 3:
        raise InsufficientOrderError(3, js.order)
    l1j, l2j = js.liouville()
    l1, l2 = l1j.value, l2j.value
    l1x, l1y = l1j.partial(1, 0), l1j.partial(0, 1)
    l2x, l2y = l2j.partial(1, 0), l2j.partial(0, 1)
    a0, a1, a2, a3 = (j.value for j in js.a)
    try:
        return (
            l2 * (l1 * l2x - l2 * l1x)
            + l1 * (l2 * l1y - l1 * l2y)
            + a3 * l1**3 - a2 * l1**2 * l2 + a1 * l1 * l2**2 - a0 * l2**3
        )
    except OverflowError:
        # a float ** overflows where a product would give inf
        raise SingularEvaluationError("value out of float range",
                                      js.base) from None


# ---------------- the obstruction vector and its connection ----------------


def _vector_V(js):
    n = js.order
    if n < 3:
        raise InsufficientOrderError(3, n)
    m = n - 3
    l1j, l2j = js.liouville()
    l1, l2 = l1j.truncated(m), l2j.truncated(m)
    l1x, l1y = l1j.diff("x"), l1j.diff("y")
    l2x, l2y = l2j.diff("x"), l2j.diff("y")
    a0, a1, a2, a3 = (j.truncated(m) for j in js.a)
    return (
        2 * l2y + 4 * a2 * l2 + 8 * a3 * l1,
        -2 * l1y - 2 * l2x - F43 * a1 * l2 + F43 * a2 * l1,
        2 * l1x - 8 * a0 * l2 - 4 * a1 * l1,
        -5 * l2,
        -5 * l1,
        js._zero(m),
    )


# Derivative words of the coefficients that the connection formulas read,
# letters applied left to right.
CONNECTION_WORDS = ("", "x", "y", "xx", "xy", "yy")

# The rational constants of the connection formulas, and their floats: a
# Fraction times a float is the same float product, but much slower.
CONNECTION_RATIONALS = (F13, F23, F43, F89, F169, F49, F29, F83, F203)
CONNECTION_FLOATS = tuple(float(c) for c in CONNECTION_RATIONALS)


def _connection_matrices(a, zero_at, m):
    """The pair (O1, O2) of 6x6 connection matrices of the prolonged
    system, as jets of order m <= N-2.  The coefficients' derivatives are
    truncated to m before the formula, which gives the order-(N-2) pair
    truncated to m bit for bit: a product's cell sums the same terms in the
    same order at every truncation."""
    n = a[0].order
    if n < m + 2:
        raise InsufficientOrderError(m + 2, n)
    derivs = []
    for j in a:
        jx, jy = j.diff("x"), j.diff("y")
        derivs.append(tuple(d.truncated(m) for d in (
            j, jx, jy, jx.diff("x"), jx.diff("y"), jy.diff("y"))))
    z = zero_at(m)
    return connection_formula(derivs, z, CONNECTION_RATIONALS
                              if z.exact else CONNECTION_FLOATS)


def connection_formula(derivs, z, rationals=CONNECTION_RATIONALS):
    """(O1, O2) from the coefficients' derivatives: `derivs[k]` holds A_k
    along CONNECTION_WORDS, and `z` is the zero of their arithmetic, whose
    constants `rationals` are: CONNECTION_RATIONALS for exact jets,
    CONNECTION_FLOATS for float jets and floats.  Truncated jets give the
    connection as jets, floats its value at a point."""
    F13, F23, F43, F89, F169, F49, F29, F83, F203 = rationals
    one = z + 1
    ((a0t, a0x, a0y, a0xx, a0xy, a0yy),
     (a1t, a1x, a1y, a1xx, a1xy, a1yy),
     (a2t, a2x, a2y, a2xx, a2xy, a2yy),
     (a3t, a3x, a3y, a3xx, a3xy, a3yy)) = derivs
    half = one / 2

    o141 = -F43 * a2x + 4 * a0t * a3t + F23 * a1y
    o142 = -2 * a0y + F23 * a1x + 4 * a2t * a0t - F49 * a1t * a1t
    o143 = 2 * a0x - 4 * a0t * a1t
    o161 = (
        -F43 * a2xy - F203 * a0t * a2t * a3t
        + F23 * a1yy + 4 * a3t * a0y - 2 * a0t * a3y
        - F169 * a2t * a2x + F89 * a2t * a1y
    )
    o162 = (
        F23 * a1xy - F43 * a1t * a1y + 2 * a0t * a2y
        - 2 * a0yy + 4 * a2t * a0y + 4 * a3t * a0x
        + 6 * a0t * a3x + F89 * a1t * a2x
        + F43 * a0t * a1t * a3t - F43 * a0t * a2t * a2t
    )
    o163 = (
        2 * a0xy + F23 * a0t * a2x - F43 * a2t * a0x
        - 4 * a1t * a0y - F43 * a0t * a1y
        + F83 * a0t * a1t * a2t + 4 * a3t * a0t * a0t
    )
    o164 = F43 * a2x - a1y + 5 * a0t * a3t
    o165 = F13 * a1x - 4 * a0y + 3 * a2t * a0t - F29 * a1t * a1t

    omega1 = (
        (-F23 * a1t, 2 * a0t, z, z, z, z),
        (z, z, z, -half, z, z),
        (-2 * a3t, -F23 * a2t, F43 * a1t, z, one, z),
        (o141, o142, o143, -F13 * a1t, -3 * a0t, z),
        (z, z, z, z, z, -one),
        (o161, o162, o163, o164, o165, -F13 * a1t),
    )

    o251 = -2 * a3y - 4 * a3t * a2t
    o252 = 2 * a3x - F23 * a2y + 4 * a1t * a3t - F49 * a2t * a2t
    o253 = F43 * a1y - F23 * a2x + 4 * a0t * a3t
    o261 = (
        -2 * a3xy - 4 * a2t * a3x - F43 * a3t * a2x
        + F23 * a3t * a1y - F43 * a1t * a3y
        - 4 * a0t * a3t * a3t - F83 * a1t * a2t * a3t
    )
    o262 = (
        2 * a3xx - F43 * a2t * a2x - F43 * a0t * a2t * a3t
        - F23 * a2xy + 4 * a1t * a3x + 4 * a0t * a3y
        + 6 * a3t * a0y + F43 * a3t * a1t * a1t + 2 * a3t * a1x
        + F89 * a2t * a1y
    )
    o263 = (
        -F23 * a2xx + F89 * a1t * a2x + 4 * a0t * a3x
        - 2 * a3t * a0x - F169 * a1t * a1y + F43 * a1xy
        + F203 * a0t * a1t * a3t
    )
    o264 = 4 * a3x - F13 * a2y + 3 * a1t * a3t - F29 * a2t * a2t
    o265 = a2x - F43 * a1y + 5 * a0t * a3t

    omega2 = (
        (-F43 * a2t, F23 * a1t, 2 * a0t, one, z, z),
        (z, z, z, z, -half, z),
        (z, -2 * a3t, F23 * a2t, z, z, z),
        (z, z, z, z, z, -one),
        (o251, o252, o253, 3 * a3t, F13 * a2t, z),
        (o261, o262, o263, o264, o265, F13 * a2t),
    )
    return (omega1, omega2)


def cov_deriv(row, omega, var):
    """Covariant derivative of a row vector: D_a V = dV/da - V . O_a, one
    order below the row.  `omega` is O_a at that order or above, as a 6x6
    matrix of jets or as its `Columns`; the products read the row and O_a
    truncated."""
    if not isinstance(omega, Columns):
        omega = Columns.of(omega)
    return tuple(mul_sub(row[j].diff(var), [(row[i], e) for i, e in column])
                 for j, column in enumerate(omega))


class Columns(tuple):
    """The nonzero pattern of a 6x6 connection matrix, column by column:
    column j holds the pairs (i, O[i][j]) whose entry is not zero, in the
    order of i."""

    @classmethod
    def of(cls, omega):
        return cls(tuple((i, omega[i][j]) for i in range(6)
                         if not omega[i][j].is_zero())
                   for j in range(6))


def curvature(js):
    """F = dO2/dx - dO1/dy + O1 O2 - O2 O1.  Its first five rows vanish
    identically and its sixth row equals V."""
    n = js.order
    if n < 3:
        raise InsufficientOrderError(3, n)
    m = n - 3
    o1, o2 = _connection_matrices(js.a, js._zero, n - 2)
    o1t = [[e.truncated(m) for e in row] for row in o1]
    o2t = [[e.truncated(m) for e in row] for row in o2]
    out = []
    for i in range(6):
        row = []
        for j in range(6):
            acc = o2[i][j].diff("x") - o1[i][j].diff("y")
            for k in range(6):
                acc = acc + o1t[i][k] * o2t[k][j] - o2t[i][k] * o1t[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


# ---------------- determinant/rank stacks ----------------


def _row_values(row):
    return [e.value for e in row]


def _level_rows(js, depth):
    """Values of the derivative rows of V through `depth`, level by level:
    the rows through level k are the first (k+1)(k+2)/2."""
    return [_row_values(row) for level in js.levels(depth) for row in level]


# The jet order matrix_M needs: levels(2) reads derivative level 2 of V, and
# V costs three orders.  nu5 needs 3 and L1, L2 need 2.
MATRIX_M_ORDER = 5


def matrix_M(js):
    """The 6x6 stack (V, D_xV, D_yV, D_(xx)V, D_(xy)V, D_(yy)V) of values."""
    return _level_rows(js, 2)


def matrix_Mmax(js):
    """All derivative rows of V through order five: 21 x 6."""
    return _level_rows(js, 5)


# The order-6 pair's standard rows (rows 0, 1, 2, 3, 5 of the stack through
# level 3) and its two tops (rows 6 and 9).
E_BASE_WORDS = ("", "x", "y", "xx", "yy")
E_TOP_WORDS = ("xxx", "yyy")


def sixth_order_E(js, tol=1e-9):
    """The order-6 determinant pair.

    Returns (e1, e2, fallback).  The standard choice fixes the five rows
    (V, x, y, xx, yy) and tops them with xxx (E1) or yyy (E2).  If those
    five are dependent, fall back to a greedy scan of all rows through
    order three in graded order, take the first five independent ones, and
    use the next two rows in the scan as the alternative tops; fallback is
    True.  Both are None when no five independent rows exist (the rank has
    dropped; the stratified stacks apply instead).
    The standard choice builds only its seven rows; the scan builds all
    ten rows through level 3.  The scan feeds exact rows to one
    `linalg.ExactElimination`, which tells whether each row raises the
    rank; float prefixes are ranked one at a time by `linalg.rank_kernel`.
    """
    base = [_row_values(js.row(w)) for w in E_BASE_WORDS]
    if linalg.rank_kernel(base, tol).rank == 5:
        e1, e2 = (linalg.det(base + [_row_values(js.row(w))])
                  for w in E_TOP_WORDS)
        return e1, e2, False
    rows = _level_rows(js, 3)
    chosen = []
    if js.exact:
        independent = linalg.ExactElimination(6).add
    else:
        def independent(row):
            rank = linalg.rank_kernel(chosen + [row], tol).rank
            return rank == len(chosen) + 1

    for i, row in enumerate(rows):
        if len(chosen) == 5:
            break
        if independent(row):
            chosen.append(row)
    else:
        return None, None, True
    tops = rows[i:i + 2]
    if len(tops) < 2:
        return None, None, True
    return (linalg.det(chosen + [tops[0]]), linalg.det(chosen + [tops[1]]),
            True)


def stratified_obstruction(js, rank_case, tol=1e-9):
    """Single determinant adapted to a degenerate rank of M.

    rank 3 -> order-8 stack (V, Vx, Vxx, ..., Vxxxxx), valid when
    (V, Vx, Vxx) are independent; rank 4 -> order-7 stack
    (V, Vx, Vxy, Vxx, Vxxx, Vxxxx), valid when (V, Vx, Vy, Vxx) are
    independent.  Each falls back to the x<->y swap.  Returns (det, words),
    the determinant and the stack's derivative words, or None when neither
    frame is independent (the pencil is closed at lower rank).
    """
    if rank_case not in (3, 4):
        raise ValueError("stratified stacks exist for rank 3 or 4 only")

    def build(words, guard_words):
        guard = [_row_values(js.row(w)) for w in guard_words]
        if linalg.rank_kernel(guard, tol).rank != len(guard):
            return None
        rows = [_row_values(js.row(w)) for w in words]
        return linalg.det(rows), tuple(words)

    if rank_case == 3:
        words = ("", "x", "xx", "xxx", "xxxx", "xxxxx")
        guards = ("", "x", "xx")
    else:
        words = ("", "x", "xy", "xx", "xxx", "xxxx")
        guards = ("", "x", "y", "xx")

    swap = str.maketrans("xy", "yx")
    return build(words, guards) or build(
        tuple(w.translate(swap) for w in words),
        tuple(g.translate(swap) for g in guards))


# ---------------- solution space dimension ----------------


@dataclass
class CartanResult:
    ranks: list             # rank of the stack through each level
    marginal: bool          # a float rank decision was marginal
    det_m: object           # det of the level-2 stack, M (None below it)
    kernel: list            # kernel of the level-5 stack ([] below it)
    stabilized_at: object
    s_dim: object
    koenigs_ok: object


def cartan_stabilize(js, tol=1e-9):
    """Dimension of the solution space by rank stabilisation.

    Stack the derivative rows of V level by level; as soon as the rank of
    the stack through level K equals the rank through level K+1, it has
    stabilised and the solution space has dimension S = 6 - rank.  S = 5
    never occurs for these pencils, so it is flagged.  The stacks through
    levels 2 and 5 are M and its saturation, so their rank decisions, det M
    and the saturation's kernel are the ones `analyze_point` reports.

    Exact rows are fed level by level to one `linalg.ExactElimination`,
    which reads the rank after each level.  An exact rank of 6 can neither
    grow nor drop, so once it is reached every later stack has rank 6 and
    an empty kernel, and no further row is built.  Float stacks are ranked
    one prefix at a time by `linalg.rank_kernel`, each with its own
    threshold.
    """
    k_cap = js.order - 4
    if k_cap < 0:
        raise InsufficientOrderError(4, js.order)

    depth = k_cap + 1
    det_m, kernel, marginal = None, [], False
    if js.exact:
        e = linalg.ExactElimination(6)
        ranks = []
        for k in range(depth + 1):
            for w in level_words(k):
                if e.rank == 6:
                    break
                e.add(_row_values(js.row(w)))
            ranks.append(e.rank)
            if k == 2:
                det_m = e.det()
            elif k == 5:
                kernel = e.kernel()
    else:
        rows = _level_rows(js, depth)
        stacks = [linalg.rank_kernel(rows[:(k + 1) * (k + 2) // 2], tol)
                  for k in range(depth + 1)]
        ranks = [res.rank for res in stacks]
        marginal = any(res.marginal for res in stacks)
        if depth >= 2:
            det_m = stacks[2].det
        if depth >= 5:
            kernel = stacks[5].kernel
    for k in range(depth):
        if ranks[k] == ranks[k + 1]:
            s = 6 - ranks[k]
            return CartanResult(ranks, marginal, det_m, kernel, k, s, s != 5)
    return CartanResult(ranks, marginal, det_m, kernel, None, None, None)


# ---------------- degenerate-branch scalar obstruction ----------------


def degenerate_obstruction(ja):
    """Sixth-order obstruction for the special family y'' = -A(x,y) (only
    the zeroth slope coefficient present, with A the connection component).

    Takes the jet of A itself and needs order >= 6.
    """
    p = ja.partial
    dy2, dy3, dy4, dy5 = p(0, 2), p(0, 3), p(0, 4), p(0, 5)
    dxy2, dxy3, dxy4 = p(1, 2), p(1, 3), p(1, 4)
    return (
        7 * dy3 * dy4 * dxy3
        - 5 * dxy3 * dy5 * dy2
        - 6 * dxy4 * dy3**2
        + 6 * dy5 * dxy2 * dy3
        - 7 * dy4**2 * dxy2
        + 5 * dxy4 * dy4 * dy2
    )


# ---------------- kernel inspection and verdicts ----------------


def genericity_P(w):
    """W1 W3 - W2^2, the one discriminant of a symmetric form, for trees,
    jets and floats: P(W) of a kernel vector, Delta of a section and EG -
    F^2 of a metric.  Zero means a degenerate candidate metric."""
    return w[0] * w[2] - w[1] * w[1]


def kernel_has_nondegenerate(basis, tol=1e-9):
    """Search the kernel basis and all pairwise sums for a vector with
    P != 0.  Returns (witness, marginal)."""
    if not basis:
        return None, False
    cands = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            cands.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    exact = all(
        isinstance(v, Fraction) for w in cands for v in w
    )
    best = None
    best_q = None
    for w in cands:
        q = genericity_P(w)
        if best_q is None or abs(q) > abs(best_q):
            best, best_q = w, q
    if exact:
        if best_q != 0:
            return best, False
        return None, False
    scale = max(1.0, max(abs(float(v)) for w in cands for v in w))
    thr = tol * scale * scale
    aq = abs(float(best_q))
    if aq > 10.0 * thr:
        return best, False
    if aq > thr:
        return best, True
    return None, aq > thr / 10.0


@dataclass
class PointReport:
    point: tuple
    mode: str
    verdict: str
    flat: bool
    marginal: bool
    l1: object
    l2: object
    i1_coeffs: tuple
    nu5: object
    v_row: tuple
    det_m: object
    rank_m: int
    e1: object = None
    e2: object = None
    e_fallback: bool = False
    order7: object = None
    order8: object = None
    stratified_rows: tuple = ()
    rank_mmax: object = None
    kernel: list = field(default_factory=list)
    witness: object = None
    p_value: object = None
    s_dim: object = None
    cartan_ranks: list = field(default_factory=list)
    koenigs_ok: object = None
    notes: list = field(default_factory=list)


@dataclass
class ObstructionReport:
    verdict: str
    points: list
    order: int
    tolerance: float
    mode: str
    notes: list = field(default_factory=list)


def analyze_point(structure, point, order=10, tol=1e-9, mode="auto"):
    """The `PointReport` of one sample point at jet order `order` (>= 5).

    The verdict is the first rule that applies:
      1. a marginal float rank decision or witness -> Inconclusive;
      2. rank M = 6, or rank 6 of the saturated stack -> NotMetrisable;
      3. order below 8 (no saturated stack) -> Inconclusive;
      4. a kernel vector with P(W) != 0 (a witness) -> Metrisable;
      5. otherwise -> DegenerateKernel.
    The order-6 pair E1/E2 and the order-7 and order-8 determinants are
    reported but do not decide the verdict.
    """
    if order < 5:
        raise InsufficientOrderError(5, order)
    js = JetStructure.at(structure, point, order, mode)
    notes = []

    l1j, l2j = js.liouville()
    flat = l1j.is_zero() and l2j.is_zero()
    nu = nu5(js)

    cres = cartan_stabilize(js, tol)
    marginal = cres.marginal
    # M is the level-2 stack, so its rank decision also gives det M
    rank_m, det_m = cres.ranks[2], cres.det_m
    v_row = tuple(_row_values(js.row("")))

    e1 = e2 = None
    e_fallback = False
    if js.order >= 6:
        e1, e2, e_fallback = sixth_order_E(js, tol)
        if e_fallback:
            notes.append("order-6 pair used fallback rows")

    order7 = order8 = None
    strat_rows = ()
    if rank_m in (3, 4) and js.order >= 11 - rank_m:
        sres = stratified_obstruction(js, rank_m, tol)
        if sres is None:
            notes.append("rank-%d stack closed at lower rank" % rank_m)
        elif rank_m == 4:
            order7, strat_rows = sres
        else:
            order8, strat_rows = sres

    rank_mmax = None
    kernel = []
    witness = None
    p_value = None
    if js.order >= 8:
        rank_mmax = cres.ranks[5]
        kernel = cres.kernel
        witness, wit_marginal = kernel_has_nondegenerate(kernel, tol)
        marginal = marginal or wit_marginal
        if witness is not None:
            p_value = genericity_P(witness)
        elif kernel:
            p_value = 0

    if cres.stabilized_at is None:
        notes.append("derivative ranks did not stabilise "
                     "within the available order")

    # an exact rank decision is never marginal
    if marginal:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("rank decisions were numerically marginal")
    elif rank_m == 6:
        verdict = VERDICT_NOT
    elif rank_mmax == 6:
        verdict = VERDICT_NOT
    elif rank_mmax is None:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("jet order below 8: saturated stack unavailable")
    elif witness is not None:
        verdict = VERDICT_METRISABLE
    else:
        verdict = VERDICT_DEGENERATE

    return PointReport(
        point=tuple(point),
        mode="exact" if js.exact else "float",
        verdict=verdict,
        flat=flat,
        marginal=marginal,
        l1=l1j.value,
        l2=l2j.value,
        i1_coeffs=(-6 * l1j.value, -6 * l2j.value),
        nu5=nu,
        v_row=v_row,
        det_m=det_m,
        rank_m=rank_m,
        e1=e1,
        e2=e2,
        e_fallback=e_fallback,
        order7=order7,
        order8=order8,
        stratified_rows=strat_rows,
        rank_mmax=rank_mmax,
        kernel=kernel,
        witness=witness,
        p_value=p_value,
        s_dim=cres.s_dim,
        cartan_ranks=cres.ranks,
        koenigs_ok=cres.koenigs_ok,
        notes=notes,
    )


def decide_metrisability(structure, points, order=10, tol=1e-9, mode="auto"):
    """Verdict over a sample of points.

    All points flat (both scalar invariants vanish to the working order)
    gives MetrisableFlat.  Otherwise each point is classified on its own
    and a unanimous classification is returned; disagreement between points
    or any marginal numerics gives Inconclusive.
    """
    if not points:
        raise ValueError("at least one sample point is required")
    reports = [
        analyze_point(structure, p, order, tol, mode) for p in points
    ]
    notes = []
    modes = {r.mode for r in reports}
    mode_tag = modes.pop() if len(modes) == 1 else "mixed"

    if all(r.flat for r in reports):
        return ObstructionReport(VERDICT_FLAT, reports, order, tol, mode_tag,
                                 ["flat to the working order at every "
                                  "sample point"])
    verdicts = {r.verdict for r in reports}
    if len(verdicts) == 1:
        verdict = verdicts.pop()
    else:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("sample points disagree: " + ", ".join(
            sorted("%s at (%s, %s)" % (r.verdict, r.point[0], r.point[1])
                   for r in reports)
        ))
    return ObstructionReport(verdict, reports, order, tol, mode_tag, notes)

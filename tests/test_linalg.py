"""Exact and floating determinants, rank, and kernel extraction."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from projmet import linalg
from projmet.jets import SingularEvaluationError
from projmet.linalg import det, rank_kernel


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def cofactor_det(m):
    """Independent reference determinant by Laplace expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _random_exact(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(n)] for _ in range(n)]


def test_exact_det_matches_cofactor_expansion():
    rng = random.Random(17)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(4):
            m = _random_exact(rng, n)
            assert det(m) == cofactor_det(m)


def test_float_det_close_to_exact():
    rng = random.Random(23)
    for _ in range(10):
        m = _random_exact(rng, 5)
        exact = det(m)
        fm = [[float(v) for v in row] for row in m]
        approx = det(fm)
        assert abs(approx - float(exact)) < 1e-8 * max(1.0, abs(float(exact)))
        # no pivot is below the threshold, so both read the same pivots
        r = rank_kernel(fm)
        assert r.rank == 5 and r.det == approx


# Float determinants whose elimination swaps rows or meets a column with no
# pivot.  The entries are small integers, so every value is exact.
FLOAT_DETS = [
    ([[1.0, 2.0], [3.0, 4.0]], -2.0),
    ([[0.0, 2.0], [3.0, 0.0]], -6.0),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], 1.0),
    ([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]], 0.0),
    ([[0.0, 1.0], [0.0, 2.0]], 0.0),
]


@pytest.mark.parametrize("m, want", FLOAT_DETS, ids=[
    "swap", "swap-zero-diagonal", "two-swaps", "zero-column",
    "zero-first-column"])
def test_float_det_reads_row_swaps_and_missing_pivots(m, want):
    got = det(m)
    assert isinstance(got, float) and got == want
    assert rank_kernel(m).det == want
    assert det([[Fraction(v) for v in row] for row in m]) == want


@pytest.mark.parametrize("n, kind", [(5, Fraction), (6, float)],
                         ids=["exact-5x5", "float-6x6"])
def test_det_of_singular_matrix_is_zero(n, kind):
    rng = random.Random(29)
    m = [[kind(v) for v in row] for row in _random_exact(rng, n)]
    m[3] = [2 * v for v in m[1]]  # force a dependent row
    assert det(m) == 0
    r = rank_kernel(m)
    assert r.rank == n - 1 and r.det == 0


def test_int_matrix_is_exact():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    want = cofactor_det(m)
    for got in (det(m), rank_kernel(m).det):
        assert isinstance(got, Fraction) and got == want == 18
    r = rank_kernel([[1, 2], [2, 4]])
    assert r.exact and r.rank == 1 and r.det == 0
    assert r.kernel == [(Fraction(1), Fraction(-1, 2))]


def test_float_kernel_is_built_only_when_read():
    """As for an exact result: reading the rank and the determinant builds
    no kernel, and the first read of `.kernel` builds it once."""
    calls = []
    build = linalg._float_kernel

    def counted(*args):
        calls.append(args)
        return build(*args)

    rows = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.5], [1.0, 2.0, 3.5]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_float_kernel", counted)
        r = rank_kernel(rows)
        assert (r.rank, r.det, r.exact, r.marginal) == (2, 0.0, False, False)
        assert not calls
        got = r.kernel
        assert r.kernel is got and len(calls) == 1
    assert got == [(1.0, -0.5, 0.0)]
    assert all(abs(s) < 1e-12 for s in mat_vec(rows, got[0]))


def test_rank_of_identity():
    eye = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    r = rank_kernel(eye)
    assert r.rank == 6 and len(r.kernel) == 0 and r.exact


def test_zero_matrix_kernel_is_standard_basis():
    z = [[Fraction(0)] * 4 for _ in range(4)]
    r = rank_kernel(z)
    assert r.rank == 0
    assert len(r.kernel) == 4
    for i, v in enumerate(r.kernel):
        assert v[i] == 1
        assert all(v[j] == 0 for j in range(4) if j != i)


def test_kernel_vectors_annihilate_matrix():
    rng = random.Random(31)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(6)]
                for _ in range(3)]
        # pad with dependent combinations so the kernel is non-trivial
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        r = rank_kernel(rows)
        assert r.rank <= 3
        assert len(r.kernel) == 6 - r.rank
        for v in r.kernel:
            assert all(s == 0 for s in mat_vec(rows, v))


def test_kernel_normalised_to_unit_peak():
    rows = [[Fraction(1), Fraction(2), Fraction(4)]]
    r = rank_kernel(rows)
    for v in r.kernel:
        peak = max(abs(c) for c in v)
        assert peak == 1
        assert any(c == 1 for c in v)


def test_rank_float_with_clear_gap():
    rows = [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 1e-15],
    ]
    r = rank_kernel(rows, tol=1e-9)
    assert r.rank == 2
    assert not r.exact
    # the rank decision zeroes the determinant; `det` keeps every pivot
    assert r.det == 0.0 and det(rows) == 1e-15
    assert len(r.kernel) == 1
    v = r.kernel[0]
    assert abs(v[2]) == max(abs(c) for c in v)


def test_rank_float_marginal_pivot_flagged():
    # a pivot sitting just above the cut is reported as marginal
    rows = [
        [1.0, 0.0],
        [0.0, 5e-9],
    ]
    r = rank_kernel(rows, tol=1e-9)
    assert r.marginal


def test_rank_exact_never_marginal():
    rows = [[Fraction(1, 10 ** 12), Fraction(0)],
            [Fraction(0), Fraction(1, 10 ** 15)]]
    r = rank_kernel(rows)
    assert r.rank == 2 and not r.marginal and r.exact


def test_rectangular_input():
    rows = [[Fraction(v) for v in row]
            for row in ([1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0])]
    r = rank_kernel(rows)
    assert r.rank == 2
    assert len(r.kernel) == 2
    for v in r.kernel:
        assert all(s == 0 for s in mat_vec(rows, v))
    assert r.det is None
    assert rank_kernel([[float(v) for v in row] for row in rows]).det is None


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        rank_kernel([])
    with pytest.raises(ValueError):
        rank_kernel([[Fraction(1), Fraction(2)], [Fraction(1)]])
    with pytest.raises(ValueError):
        det([[Fraction(1), Fraction(2)]])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_float_entries_rejected(bad):
    rows = [[1.0, 2.0], [bad, 0.5]]
    with pytest.raises(SingularEvaluationError):
        det(rows)
    with pytest.raises(SingularEvaluationError):
        rank_kernel(rows)


# ---------------- sympy oracle for the exact elimination ----------------

ORACLE = settings(max_examples=100, deadline=None)


@st.composite
def low_rank_matrices(draw, max_rows=12, max_cols=7, square=False):
    """A rank-<=r product B C of small rational matrices, with some rows
    zeroed.  Hypothesis draws the shape; its seeded random draws the
    entries."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    r = draw(st.integers(0, min(nrows, ncols)))
    zeroed = draw(st.sets(st.integers(0, nrows - 1), max_size=nrows // 3))
    rng = draw(st.randoms(use_true_random=False))

    def matrix(n, k):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(k)] for _ in range(n)]

    b, c = matrix(nrows, r), matrix(r, ncols)
    return [[Fraction(0)] * ncols if i in zeroed else
            [sum((b[i][k] * c[k][j] for k in range(r)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]


def _sympy(a):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in a])


def _fraction(v):
    return Fraction(int(v.p), int(v.q))


@ORACLE
@given(low_rank_matrices())
def test_exact_elimination_matches_sympy_rref(a):
    rref, pivots = _sympy(a).rref()
    e = linalg.ExactElimination(len(a[0]))
    for row in a:
        e.add(row)
    basis = sorted(zip(e.pivots, e.rows))
    assert tuple(c for c, _ in basis) == pivots
    for i, (c, row) in enumerate(basis):
        assert [Fraction(v, row[c]) for v in row] == \
            [_fraction(v) for v in rref.row(i)]
    r = rank_kernel(a)
    assert r.rank == len(pivots) and r.exact and not r.marginal
    if len(a) != len(a[0]):
        assert r.det is None


@ORACLE
@given(low_rank_matrices())
def test_exact_kernel_is_normalised_rref_nullspace(a):
    want = []
    for vec in _sympy(a).nullspace():
        v = [_fraction(x) for x in vec]
        peak = max(v, key=abs)
        want.append(tuple(x / peak for x in v))
    got = rank_kernel(a).kernel
    assert got == want
    for v in got:
        assert all(isinstance(x, Fraction) for x in v)
        assert not any(mat_vec(a, v))


@ORACLE
@given(low_rank_matrices(max_rows=7, square=True))
def test_exact_det_matches_sympy_and_cofactor_expansion(a):
    d = det(a)
    assert isinstance(d, Fraction)
    assert d == _fraction(_sympy(a).det()) == cofactor_det(a)
    assert rank_kernel(a).det == d


# ---------------- the row-incremental exact elimination ----------------

@st.composite
def derivative_stacks(draw, max_rows=36, max_cols=6):
    """Up to 36 x 6 rows, like a stack of derivative rows of V: a rank-<=r
    product B C whose rows have mixed denominators, with some rows zeroed
    and some replaced by a rational multiple of an earlier row."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    r = draw(st.integers(0, min(nrows, ncols)))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))

    b = [[entry() for _ in range(r)] for _ in range(nrows)]
    c = [[entry() for _ in range(ncols)] for _ in range(r)]
    rows = [[sum((b[i][k] * c[k][j] for k in range(r)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows // 3)):
        rows[i] = [Fraction(0)] * ncols
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows // 3)):
        if i:
            s = entry() or Fraction(1)
            rows[i] = [s * v for v in rows[rng.randrange(i)]]
    return rows


def _normalised_nullspace(m):
    out = []
    for vec in m.nullspace():
        v = [_fraction(x) for x in vec]
        peak = max(v, key=abs)
        out.append(tuple(x / peak for x in v))
    return out


@settings(max_examples=60, deadline=None)
@given(derivative_stacks())
def test_incremental_elimination_reads_every_prefix(a):
    """After every row prefix the rank is sympy's, the kernel is the
    normalised RREF null space, and a square prefix's det is sympy's and
    the cofactor expansion's."""
    ncols = len(a[0])
    e = linalg.ExactElimination(ncols)
    for i, row in enumerate(a):
        prefix = _sympy(a[:i + 1])
        if i + 1 == ncols:
            want = _fraction(prefix.det())
            assert want == cofactor_det(a[:i + 1])
        before = e.rank
        assert e.add(row) == (e.rank == before + 1)
        assert e.rank == prefix.rank()
        assert e.kernel() == _normalised_nullspace(prefix)
        if i + 1 == ncols:
            assert e.det() == want
    r = rank_kernel(a)
    assert (r.rank, r.kernel) == (e.rank, e.kernel())


@ORACLE
@given(derivative_stacks())
def test_exact_kernel_is_built_only_when_read(a):
    """Reading the rank and the determinant builds no kernel; the first
    read of `.kernel` builds it once, and it is the normalised null space."""
    calls = []
    kernel = linalg.ExactElimination.kernel

    def counted(self):
        calls.append(self)
        return kernel(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.ExactElimination, "kernel", counted)
        square = a[:len(a[0])]
        for rows in (a, square):
            r = rank_kernel(rows)
            assert (r.rank, r.det, r.exact, r.marginal) == (
                _sympy(rows).rank(),
                _fraction(_sympy(rows).det()) if len(rows) == len(a[0])
                else None, True, False)
        assert not calls
        got = r.kernel
        assert r.kernel is got and len(calls) == 1
    assert got == _normalised_nullspace(_sympy(square))

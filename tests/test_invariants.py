"""Point invariants, the obstruction stack, verdicts, and their identities."""

import pathlib
import random
import re
from fractions import Fraction

import pytest

from projmet import expressions as ex
from projmet import invariants
from projmet import jets
from projmet import linalg
from projmet.cli import load_job
from projmet.invariants import (
    JetStructure,
    VERDICT_DEGENERATE,
    VERDICT_FLAT,
    VERDICT_INCONCLUSIVE,
    VERDICT_METRISABLE,
    VERDICT_NOT,
    analyze_point,
    cartan_stabilize,
    cov_deriv,
    curvature,
    decide_metrisability,
    degenerate_obstruction,
    genericity_P,
    kernel_has_nondegenerate,
    matrix_M,
    matrix_Mmax,
    nu5,
    sixth_order_E,
    stratified_obstruction,
)
from projmet.jets import InsufficientOrderError
from projmet.model import MetricInput, ProjectiveStructure, ode_from_metric

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"
ORIGIN = (Fraction(0), Fraction(0))

PAINLEVE = ProjectiveStructure.from_exprs("6*y^2+x", "0", "0", "0")
GENERIC = ProjectiveStructure.from_exprs("x^2+y", "y^2", "x*y", "x+1")


def _random_structure(rng):
    def poly():
        return "%d + %d*x + %d*y + %d*x*y + %d*y^2" % tuple(
            rng.randint(-3, 3) for _ in range(5))
    return ProjectiveStructure.from_exprs(poly(), poly(), poly(), poly())


# ---------------- degree-5 invariants ----------------

def test_painleve_liouville_values():
    js = JetStructure.at(PAINLEVE, ORIGIN, 8)
    l1, l2 = js.liouville()
    assert l1.value == -12
    assert l2.value == 0


def test_painleve_slope_invariant():
    r = analyze_point(PAINLEVE, ORIGIN, 8)
    assert r.i1_coeffs == (72, 0)  # no slope dependence here


def test_slope_invariant_coefficients_are_minus_six_liouville():
    rng = random.Random(5)
    s = _random_structure(rng)
    pt = (Fraction(1), Fraction(2))
    l1, l2 = JetStructure.at(s, pt, 8).liouville()
    r = analyze_point(s, pt, 8)
    assert r.i1_coeffs == (-6 * l1.value, -6 * l2.value)
    assert (r.l1, r.l2) == (l1.value, l2.value)


def test_flat_structure_all_invariants_vanish():
    js = JetStructure.at(ProjectiveStructure.flat(), ORIGIN, 9)
    l1, l2 = js.liouville()
    assert l1.is_zero() and l2.is_zero()
    assert nu5(js) == 0
    assert all(v.is_zero() for v in js.row(""))


def test_painleve_v_row():
    js = JetStructure.at(PAINLEVE, ORIGIN, 8)
    v = js.row("")
    assert tuple(e.value for e in v) == (0, 0, 0, 0, 60, 0)


def test_painleve_nu5_vanishes():
    js = JetStructure.at(PAINLEVE, ORIGIN, 8)
    assert nu5(js) == 0


def test_nu5_matches_componentwise_formula():
    """Rebuild nu5 from raw partial values of L1, L2 - a second code path."""
    rng = random.Random(15)
    for _ in range(5):
        s = _random_structure(rng)
        pt = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        js = JetStructure.at(s, pt, 8)
        l1j, l2j = js.liouville()
        l1, l2 = l1j.value, l2j.value
        l1x, l1y = l1j.partial(1, 0), l1j.partial(0, 1)
        l2x, l2y = l2j.partial(1, 0), l2j.partial(0, 1)
        a0, a1, a2, a3 = s.values_at(pt)
        want = (l2 * (l1 * l2x - l2 * l1x)
                + l1 * (l2 * l1y - l1 * l2y)
                + a3 * l1 ** 3 - a2 * l1 ** 2 * l2
                + a1 * l1 * l2 ** 2 - a0 * l2 ** 3)
        assert nu5(js) == want


def test_nu5_vanishes_on_degenerate_family():
    """nu5 is identically zero when the three higher cubic coefficients
    vanish, whatever the remaining one is."""
    rng = random.Random(25)
    for _ in range(5):
        src = "%d + %d*x + %d*y + %d*x*y + %d*y^2 + %d*x^2*y" % tuple(
            rng.randint(-3, 3) for _ in range(6))
        s = ProjectiveStructure.from_exprs(src, "0", "0", "0")
        pt = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        js = JetStructure.at(s, pt, 8)
        assert nu5(js) == 0


def test_generic_structure_nu5_nonzero():
    js = JetStructure.at(GENERIC, (Fraction(1), Fraction(1)), 8)
    assert nu5(js) == -513


# ---------------- connection, curvature, commutator ----------------

def test_curvature_rows_vanish_and_sixth_is_v():
    rng = random.Random(35)
    for _ in range(4):
        s = _random_structure(rng)
        pt = (Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1)))
        js = JetStructure.at(s, pt, 7)
        f = curvature(js)
        v = js.row("")
        for i in range(5):
            assert all(e.is_zero() for e in f[i])
        for j in range(6):
            assert f[5][j] == v[j]


def test_commutator_on_random_rows():
    """[D_x, D_y] W = -W_6 V for arbitrary jet rows W."""
    rng = random.Random(45)
    s = _random_structure(rng)
    pt = (Fraction(1), Fraction(-1))
    js = JetStructure.at(s, pt, 9)
    o1, o2 = invariants._connection_matrices(js.a, js._zero, js.order - 2)
    v = js.row("")
    n = o1[0][0].order  # connection entries sit at order - 2
    for _ in range(5):
        w = [
            ex.eval_jet(
                ex.parse_expr("%d + %d*x + %d*y + %d*x*y" % tuple(
                    rng.randint(-2, 2) for _ in range(4))),
                pt, n, "rational")
            for _ in range(6)
        ]
        # D_x(D_y W): the outer call applies last
        dxdy = cov_deriv(cov_deriv(w, o2, "y"),
                         [[e.truncated(n - 1) for e in row]
                          for row in o1], "x")
        dydx = cov_deriv(cov_deriv(w, o1, "x"),
                         [[e.truncated(n - 1) for e in row]
                          for row in o2], "y")
        m = n - 2
        w6 = w[5].truncated(m)
        for j in range(6):
            lhs = dxdy[j] - dydx[j]
            rhs = -(w6 * v[j].truncated(m))
            assert lhs == rhs


def test_cov_deriv_matches_finite_differences():
    """Central differences of V against the plain-derivative part of D_x V."""
    s = GENERIC
    pt = (0.7, -0.3)
    h = 1e-4
    js = JetStructure.at(s, pt, 8, mode="float")
    v = js.row("")
    o1, _ = js.connection()
    dv = cov_deriv(v, o1, "x")
    vp = JetStructure.at(s, (pt[0] + h, pt[1]), 8, mode="float").row("")
    vm = JetStructure.at(s, (pt[0] - h, pt[1]), 8, mode="float").row("")
    for j in range(6):
        fd = (vp[j].value - vm[j].value) / (2 * h)
        correction = sum(v[i].value * o1[i][j].value for i in range(6))
        want = fd - correction
        scale = max(1.0, abs(want))
        assert abs(dv[j].value - want) < 1e-6 * scale


# ---------------- the stacked matrices and verdicts ----------------

def test_painleve_matrix_ranks():
    js = JetStructure.at(PAINLEVE, ORIGIN, 10)
    m = matrix_M(js)
    assert linalg.det(m) == 0
    assert linalg.rank_kernel(m).rank == 3
    big = matrix_Mmax(js)
    r = linalg.rank_kernel(big)
    assert r.rank == 5
    assert len(r.kernel) == 1
    assert r.kernel[0] == (1, 0, 0, 0, 0, 0)


def test_painleve_point_report():
    r = analyze_point(PAINLEVE, ORIGIN, order=10)
    assert r.verdict == VERDICT_DEGENERATE
    assert r.l1 == -12 and r.l2 == 0
    assert r.rank_m == 3 and r.det_m == 0
    assert r.rank_mmax == 5
    assert r.nu5 == 0
    assert r.witness is None
    assert r.s_dim == 1
    assert r.koenigs_ok


def test_generic_structure_not_metrisable():
    r = analyze_point(GENERIC, (Fraction(1), Fraction(1)), order=10)
    assert r.verdict == VERDICT_NOT
    assert r.rank_m == 6
    assert r.det_m != 0
    assert r.e1 is not None and r.e2 is not None and not r.e_fallback


def test_exponential_family_degenerate_member():
    s = ProjectiveStructure.from_exprs("0", "y/2", "x", "0")
    r = analyze_point(s, ORIGIN, order=10)
    assert r.verdict == VERDICT_DEGENERATE
    assert r.rank_m == 5
    assert r.kernel == [(0, 0, 1, 0, 0, 0)]
    assert r.p_value == 0


def test_exponential_family_metrisable_member():
    s = ProjectiveStructure.from_exprs("(1/2)*x*exp(x*y)", "y/2", "x", "0")
    r = analyze_point(s, ORIGIN, order=10)
    assert r.verdict == VERDICT_METRISABLE
    assert r.witness is not None
    w = r.witness
    assert abs(w[0] - 1) < 1e-9 and abs(w[2] - 1) < 1e-9
    assert abs(w[1]) < 1e-9


def test_flat_overall_verdict():
    rep = decide_metrisability(ProjectiveStructure.flat(),
                               [ORIGIN, (Fraction(3), Fraction(-2))])
    assert rep.verdict == VERDICT_FLAT
    assert rep.mode == "exact"


def test_unanimous_negative_verdict():
    rep = decide_metrisability(
        GENERIC, [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(0))])
    assert rep.verdict == VERDICT_NOT


def test_low_order_gives_inconclusive():
    r = analyze_point(PAINLEVE, ORIGIN, order=6)
    assert r.verdict == VERDICT_INCONCLUSIVE
    assert r.rank_mmax is None


def test_order_below_five_rejected():
    with pytest.raises(InsufficientOrderError):
        analyze_point(PAINLEVE, ORIGIN, order=4)


# ---------------- stratified and sixth-order scalars ----------------

def test_painleve_stratified_chain():
    r = analyze_point(PAINLEVE, ORIGIN, order=10)
    assert r.order8 == 0  # rank-3 chain determinant, consistent with rank 5
    assert r.order7 is None
    assert r.stratified_rows == ("", "x", "xx", "xxx", "xxxx", "xxxxx")


RANK4 = ProjectiveStructure.from_exprs("0", "x*y^2+x^2*y", "0", "0")
RANK4_SWAPPED = ProjectiveStructure.from_exprs("0", "y^3", "x^2*y", "0")
PAINLEVE_SWAPPED = ProjectiveStructure.from_exprs("0", "0", "0",
                                                  "-(6*x^2+y)")


@pytest.mark.parametrize("mode", ["auto", "float"])
@pytest.mark.parametrize("structure, rows, field", [
    (RANK4, ("", "x", "xy", "xx", "xxx", "xxxx"), "order7"),
    (RANK4_SWAPPED, ("", "y", "yx", "yy", "yyy", "yyyy"), "order7"),
    (PAINLEVE_SWAPPED, ("", "y", "yy", "yyy", "yyyy", "yyyyy"), "order8"),
], ids=["rank4", "rank4-swapped", "painleve-swapped"])
def test_stratified_branches(structure, rows, field, mode):
    r = analyze_point(structure, ORIGIN, order=10, mode=mode)
    assert r.stratified_rows == rows
    assert getattr(r, field) == 0


@pytest.mark.parametrize("structure, point, mode, calls", [
    (PAINLEVE, ORIGIN, "auto", 35),
    (RANK4, ORIGIN, "auto", 11),
    (RANK4_SWAPPED, ORIGIN, "auto", 15),
    (PAINLEVE_SWAPPED, ORIGIN, "auto", 35),
    (GENERIC, (Fraction(1), Fraction(1)), "auto", 7),
    (GENERIC, (Fraction(1), Fraction(1)), "float", 35),
], ids=["painleve", "rank4", "rank4-swapped", "painleve-swapped",
        "selftest-exact", "selftest-float"])
def test_stratified_stacks_reuse_level_rows(monkeypatch, structure, point,
                                            mode, calls):
    """Level k holds the words x^(k-j) y^j, each one covariant derivative
    of a level k-1 word, so levels 1..7 cost k+1 each (35 in all).  The
    stratified stacks and the order-6 pair read level words, except the
    swapped rank-4 stack's yx.

    An exact rank of 6 is final, so exact Cartan stacks build no row past
    it.  Painleve I and its swap stay at rank 5 and build all 35 rows.  The
    rank-4 structures reach 6 in level 4: rows through level 3 and the
    first two (rank4) or four (swapped) of level 4, and the swapped
    stratified stack adds yx and yyyy.  The selftest structure reaches 6
    with level 2 (5 rows) and its order-6 pair adds xxx and yyy.  In
    floats every prefix is ranked on its own, so all 35 rows are built."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return cov_deriv(*args)

    monkeypatch.setattr(invariants, "cov_deriv", counted)
    analyze_point(structure, point, order=10, mode=mode)
    assert count[0] == calls


@pytest.mark.parametrize("mode", ["auto", "float"])
def test_level_rows_are_the_memoised_word_rows(mode):
    js = JetStructure.at(GENERIC, (Fraction(1), Fraction(1)), 10, mode)
    levels = js.levels(7)
    assert [len(level) for level in levels] == list(range(1, 9))
    for k, level in enumerate(levels):
        for j, row in enumerate(level):
            assert row is js.row("x" * (k - j) + "y" * j)


def _jet_bits(jet):
    return jet.exact, [[c.hex() if isinstance(c, float) else c for c in row]
                       for row in jet.coeffs]


CONNECTION_CASES = {
    "exact": (GENERIC, (Fraction(1), Fraction(1)), "rational"),
    "float": (ode_from_metric(MetricInput.from_exprs(
        "3 + exp(x*y/2)", "sin(x)/5", "4 + x^2 + exp(y/3)")),
        (0.3, -0.2), "float"),
    "mixed-exactness": (load_job(str(INPUTS / "mixed-exactness.json"))
                        .structure, (Fraction(1, 3), Fraction(1, 5)), "auto"),
}


@pytest.mark.parametrize("path", (0, float("inf")))
@pytest.mark.parametrize("case", sorted(CONNECTION_CASES))
def test_connection_is_the_order_n_minus_2_pair_truncated(
        case, path, monkeypatch):
    """`connection` builds (O1, O2) at order N-4, the highest its covariant
    derivatives read; that must be the order-(N-2) pair truncated, bit for
    bit, on the loop and on the kernel product path."""
    monkeypatch.setattr(jets, "KERNEL_AT", path)
    structure, point, mode = CONNECTION_CASES[case]
    for order in range(4, 11):
        js = JetStructure.at(structure, point, order, mode)
        full = invariants._connection_matrices(js.a, js._zero, order - 2)
        for got, want in zip(js.connection(), full):
            for got_row, want_row in zip(got, want):
                for g, w in zip(got_row, want_row):
                    assert g.order == order - 4
                    assert _jet_bits(g) == _jet_bits(w.truncated(order - 4))


def test_the_jets_of_a_point_share_one_arithmetic():
    mixed = load_job(str(INPUTS / "mixed-exactness.json")).structure
    point = (Fraction(1, 3), Fraction(1, 5))
    # A0 = exp(x)*y is transcendental, so "auto" puts all four in floats
    assert not any(a.exact for a in JetStructure.at(mixed, point, 6).a)
    exact = JetStructure.at(GENERIC, point, 6).a
    with pytest.raises(ValueError, match="one arithmetic"):
        JetStructure(exact[:3] + (exact[3].to_float(),))


def test_one_columns_per_connection_matrix(monkeypatch):
    """An order-10 point builds the nonzero pattern of O1 and of O2 once,
    for every level through 7 and every stratified word."""
    calls = []
    of = invariants.Columns.of.__func__

    def counted(cls, *args):
        calls.append(args)
        return of(cls, *args)

    monkeypatch.setattr(invariants.Columns, "of", classmethod(counted))
    swap = str.maketrans("xy", "yx")
    words = ("xxxxx", "xy", "xxxx", "y", "yy", "yyyy")
    js = JetStructure.at(GENERIC, (Fraction(1), Fraction(1)), 10)
    js.levels(7)
    for w in words:
        js.row(w)
        js.row(w.translate(swap))
    assert len(calls) == 2


def _truncated_cov_deriv(row, omega, var):
    """D_a row with the row and O_a truncated to one order below the row's
    before they are multiplied."""
    m = row[0].order - 1
    return tuple(jets.mul_sub(row[j].diff(var), [
        (row[i].truncated(m), omega[i][j].truncated(m))
        for i in range(6) if not omega[i][j].is_zero()]) for j in range(6))


def _deriv_outcome(derive, row, omega, var):
    try:
        return [_jet_bits(e) for e in derive(row, omega, var)]
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("path", (0, float("inf")))
@pytest.mark.parametrize("case", sorted(CONNECTION_CASES))
def test_cov_deriv_reads_its_row_and_pair_truncated(case, path, monkeypatch):
    """Given every level row and the order-(N-2) pair, `cov_deriv` gives
    the derivative of the row and pair truncated to its own order, bit for
    bit, on the loop and on the kernel product path."""
    monkeypatch.setattr(jets, "KERNEL_AT", path)
    structure, point, mode = CONNECTION_CASES[case]
    for order in range(6, 11):
        js = JetStructure.at(structure, point, order, mode)
        full = invariants._connection_matrices(js.a, js._zero, order - 2)
        for level in js.levels(order - 3):
            for row in level:
                for var, omega in zip("xy", full):
                    want = _deriv_outcome(_truncated_cov_deriv, row, omega,
                                          var)
                    assert _deriv_outcome(cov_deriv, row, omega, var) == want


def test_word_rows_are_iterated_derivatives():
    rng = random.Random(56)
    js = JetStructure.at(_random_structure(rng),
                         (Fraction(1), Fraction(-1, 2)), 8)
    omega = dict(zip("xy", js.connection()))
    for word in ("xxx", "yyy", "xy", "yx", "xyy", "yxx"):
        row = js.row("")
        for ch in word:
            row = cov_deriv(row, omega[ch], ch)
        assert js.row(word) == row


def test_point_ranks_are_cartan_prefix_ranks():
    for path in sorted(INPUTS.glob("*.json")):
        job = load_job(str(path))
        for p in job.points:
            r = analyze_point(job.structure, p, job.order, job.tolerance,
                              job.arithmetic)
            assert r.rank_m == r.cartan_ranks[2], path.name
            assert r.rank_mmax == r.cartan_ranks[5], path.name


def test_sixth_order_pair_on_generic_structure():
    js = JetStructure.at(GENERIC, (Fraction(1), Fraction(1)), 10)
    e1, e2, fallback = sixth_order_E(js)
    assert not fallback
    assert e1 == Fraction(-81594715395600)
    assert e2 == Fraction(41289904553472)


def test_symmetrised_levels_match_iterated_derivatives():
    """Level-2 rows must equal the symmetrised second derivatives."""
    rng = random.Random(55)
    s = _random_structure(rng)
    js = JetStructure.at(s, (Fraction(1), Fraction(2)), 9)
    o1, o2 = js.connection()
    v = js.row("")

    def tr(mat, m):
        return [[e.truncated(m) for e in row] for row in mat]

    n = v[0].order
    dx = cov_deriv(v, tr(o1, n - 1), "x")
    dy = cov_deriv(v, tr(o2, n - 1), "y")
    dxy = cov_deriv(dx, tr(o2, n - 1), "y")
    dyx = cov_deriv(dy, tr(o1, n - 1), "x")
    sym = [(a + b) * Fraction(1, 2) for a, b in zip(dxy, dyx)]

    levels = js.levels(2)
    # level 2 ordering: xx, xy, yy
    row_xy = levels[2][1]
    for a, b in zip(row_xy, sym):
        assert a == b


# ---------------- solution space dimension ----------------

def test_flat_solution_space_is_six():
    js = JetStructure.at(ProjectiveStructure.flat(), ORIGIN, 10)
    c = cartan_stabilize(js)
    assert c.s_dim == 6
    assert c.koenigs_ok


def test_painleve_solution_space_is_one():
    js = JetStructure.at(PAINLEVE, ORIGIN, 10)
    c = cartan_stabilize(js)
    assert c.s_dim == 1
    assert c.ranks[:4] == [1, 2, 3, 4]


def test_liouville_metric_solution_space():
    metric = MetricInput.from_exprs("x+y", "0", "x+y")
    s = ode_from_metric(metric)
    js = JetStructure.at(s, (Fraction(6, 5), Fraction(23, 20)), 10)
    c = cartan_stabilize(js)
    assert c.s_dim == 4
    assert c.koenigs_ok
    assert c.s_dim in (0, 1, 2, 3, 4, 6)  # five never occurs


def test_koenigs_excluded_dimension_on_suite():
    examples = [
        ProjectiveStructure.flat(),
        PAINLEVE,
        GENERIC,
        ProjectiveStructure.from_exprs("0", "y/2", "x", "0"),
    ]
    for s in examples:
        js = JetStructure.at(s, (Fraction(1), Fraction(1)), 10)
        c = cartan_stabilize(js)
        assert c.s_dim != 5


# ---------------- one elimination against one per prefix ----------------
#
# Exact Cartan stacks are eliminated once, row by row, and stop building
# rows at rank 6.  These references rank every prefix stack on its own with
# `linalg.rank_kernel` and take each determinant with `linalg.det`, on every
# row; the order-6 pair's rows are read by index in the stack through level 3.


def _reference_rows(js, words):
    return [[e.value for e in js.row(w)] for w in words]


def _reference_level_words(depth):
    return ["x" * (k - j) + "y" * j
            for k in range(depth + 1) for j in range(k + 1)]


def _reference_cartan(js):
    depth = js.order - 3
    rows = _reference_rows(js, _reference_level_words(depth))
    stacks = [linalg.rank_kernel(rows[:(k + 1) * (k + 2) // 2])
              for k in range(depth + 1)]
    ranks = [res.rank for res in stacks]
    stable = next((k for k in range(depth) if ranks[k] == ranks[k + 1]),
                  None)
    s_dim = None if stable is None else 6 - ranks[stable]
    return (ranks, stable, s_dim, stacks[2].det,
            stacks[5].kernel if depth >= 5 else [])


def _reference_sixth_order(js):
    rows = _reference_rows(js, _reference_level_words(3))
    base = [rows[i] for i in (0, 1, 2, 3, 5)]
    if linalg.rank_kernel(base).rank == 5:
        return (linalg.det(base + [rows[6]]), linalg.det(base + [rows[9]]),
                False)
    chosen = []
    for i, row in enumerate(rows):
        if len(chosen) == 5:
            break
        if linalg.rank_kernel(chosen + [row]).rank == len(chosen) + 1:
            chosen.append(row)
    else:
        return None, None, True
    tops = rows[i:i + 2]
    if len(tops) < 2:
        return None, None, True
    return (linalg.det(chosen + [tops[0]]), linalg.det(chosen + [tops[1]]),
            True)


REFERENCE_STACKS = {
    3: (("", "x", "xx", "xxx", "xxxx", "xxxxx"), ("", "x", "xx")),
    4: (("", "x", "xy", "xx", "xxx", "xxxx"), ("", "x", "y", "xx")),
}


def _reference_stratified(js, rank_case):
    words, guards = REFERENCE_STACKS[rank_case]
    for table in (str.maketrans("", ""), str.maketrans("xy", "yx")):
        guard = _reference_rows(js, [w.translate(table) for w in guards])
        if linalg.rank_kernel(guard).rank == len(guard):
            ws = tuple(w.translate(table) for w in words)
            return linalg.det(_reference_rows(js, ws)), ws
    return None


def _exact_points():
    for path in sorted(INPUTS.glob("*.json")):
        job = load_job(str(path))
        for p in job.points:
            js = JetStructure.at(job.structure, p, job.order, job.arithmetic)
            if js.exact:
                yield "%s@%s,%s" % (path.stem, *p), js
    for name, s in (("painleve", PAINLEVE), ("rank4", RANK4),
                    ("rank4-swapped", RANK4_SWAPPED),
                    ("painleve-swapped", PAINLEVE_SWAPPED)):
        yield name + "@origin", JetStructure.at(s, ORIGIN, 10)


def test_one_elimination_matches_one_per_prefix_on_exact_points():
    seen = 0
    for name, js in _exact_points():
        # fresh jets, so that the elimination builds its own rows first
        ranks, stable, s_dim, det_m, kernel = _reference_cartan(
            JetStructure(js.a))
        c = cartan_stabilize(js)
        assert (c.ranks, c.stabilized_at, c.s_dim) == (ranks, stable,
                                                      s_dim), name
        assert c.det_m == det_m and isinstance(c.det_m, Fraction), name
        assert c.kernel == kernel, name
        assert sixth_order_E(js) == _reference_sixth_order(js), name
        for rank_case in (3, 4):
            assert stratified_obstruction(js, rank_case) \
                == _reference_stratified(js, rank_case), (name, rank_case)
        seen += 1
    assert seen == 13


# ---------------- point transformations ----------------
#
# Metrisability is invariant under point transformations, so a changed
# chart must give the same exact verdict and ranks.  The coefficient trees
# are mapped on their printed form: x and y are replaced as whole words, so
# that `exp` and other names are left alone.

RATIONAL_INPUTS = ("cubic-lambda", "exp-family-c0", "flat",
                   "liouville-metric", "painleve1")
_COORD = re.compile(r"\b([xy])\b")

# Weights of V's six entries under a dilation of the plane.
ENTRY_WEIGHTS = (0, 0, 0, 1, 1, 2)


def _substituted(tree, image):
    """The printed `tree` with x and y replaced at once by `image[x]` and
    `image[y]`."""
    return _COORD.sub(lambda m: "(%s)" % image[m.group(1)],
                      ex.to_string(tree))


@pytest.mark.parametrize("name", RATIONAL_INPUTS)
def test_dilation_scales_each_stack_entry_by_its_weight(name):
    """(x, y) -> (lam x, lam y) maps A_k to lam A_k(lam x, lam y) and a
    point p to p / lam.  Entry j of every derivative row at level k then
    gains exactly the factor lam^(4 + k - w_j)."""
    lam = Fraction(3, 7)
    job = load_job(str(INPUTS / (name + ".json")))
    image = {v: "%s*%s" % (lam, v) for v in "xy"}
    dilated = ProjectiveStructure.from_exprs(*(
        "%s*(%s)" % (lam, _substituted(a, image))
        for a in job.structure.coefficients))
    for x, y in job.points:
        js = JetStructure.at(job.structure, (x, y), job.order, "rational")
        jd = JetStructure.at(dilated, (x / lam, y / lam), job.order,
                             "rational")
        for k, (level, dlevel) in enumerate(zip(js.levels(5),
                                                jd.levels(5))):
            for row, drow in zip(level, dlevel):
                for e, d, w in zip(row, drow, ENTRY_WEIGHTS):
                    assert d.value == e.value * lam ** (4 + k - w)


@pytest.mark.parametrize("name", RATIONAL_INPUTS)
def test_swapping_x_and_y_keeps_exact_verdicts_and_ranks(name):
    """(x, y) -> (y, x) maps A_k(x, y) to -A_{3-k}(y, x).  The level words
    x^(k-j) y^j are not swap-symmetric, so this checks that each prefix
    stack's span, not its choice of words, decides."""
    job = load_job(str(INPUTS / (name + ".json")))
    swapped = ProjectiveStructure.from_exprs(*(
        "-(%s)" % _substituted(a, {"x": "y", "y": "x"})
        for a in reversed(job.structure.coefficients)))
    for x, y in job.points:
        r = analyze_point(job.structure, (x, y), job.order, job.tolerance,
                          "rational")
        s = analyze_point(swapped, (y, x), job.order, job.tolerance,
                          "rational")
        assert ((s.verdict, s.rank_m, s.rank_mmax, s.cartan_ranks, s.s_dim)
                == (r.verdict, r.rank_m, r.rank_mmax, r.cartan_ranks,
                    r.s_dim))


# ---------------- family-specific degree-8 scalar ----------------

def test_degenerate_family_obstruction_hand_cases():
    def jet_of(src, pt, order=7):
        return ex.eval_jet(ex.parse_expr(src), pt, order,
                           "auto")
    assert degenerate_obstruction(
        jet_of("y^3", (Fraction(1), Fraction(2)))) == 0
    assert degenerate_obstruction(
        jet_of("x*y^3", (Fraction(1), Fraction(2)))) == 0
    got = degenerate_obstruction(jet_of("x*sin(y)", (0.5, 0.25)))
    import math
    want = 2 * 0.5 ** 2 * math.sin(0.25)
    assert abs(got - want) < 1e-9


def test_degenerate_family_obstruction_symbolic_oracle():
    """Re-derive the six-term bracket by symbolic differentiation."""
    rng = random.Random(65)
    d = ex.differentiate

    def dxy(tree, i, j):
        for _ in range(i):
            tree = d(tree, "x")
        for _ in range(j):
            tree = d(tree, "y")
        return tree

    for _ in range(4):
        src = "%d*x*y^3 + %d*y^4 + %d*x^2*y^2 + %d*y^5 + %d*x*y^4" % tuple(
            rng.randint(-2, 2) for _ in range(5))
        tree = ex.parse_expr(src)
        pt = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))

        def v(i, j):
            return ex.eval_scalar(dxy(tree, i, j), pt[0], pt[1])

        want = (7 * v(0, 3) * v(0, 4) * v(1, 3)
                - 5 * v(1, 3) * v(0, 5) * v(0, 2)
                - 6 * v(1, 4) * v(0, 3) ** 2
                + 6 * v(0, 5) * v(1, 2) * v(0, 3)
                - 7 * v(0, 4) ** 2 * v(1, 2)
                + 5 * v(1, 4) * v(0, 4) * v(0, 2))
        ja = ex.eval_jet(tree, pt, 7, "rational")
        assert degenerate_obstruction(ja) == want


# ---------------- kernel witness logic ----------------

def test_kernel_witness_pairwise_sums():
    e1 = (Fraction(1), Fraction(0), Fraction(0),
          Fraction(0), Fraction(0), Fraction(0))
    e3 = (Fraction(0), Fraction(0), Fraction(1),
          Fraction(0), Fraction(0), Fraction(0))
    w, marginal = kernel_has_nondegenerate([e1])
    assert w is None and not marginal
    w, marginal = kernel_has_nondegenerate([e1, e3])
    assert w is not None
    assert genericity_P(w) != 0


def test_kernel_witness_float_marginal_band():
    v = (1.0, 0.0, 3e-10, 0.0, 0.0, 0.0)
    w, marginal = kernel_has_nondegenerate([v], tol=1e-9)
    assert w is None
    assert marginal


def test_genericity_quadratic():
    assert genericity_P((1, 0, 1, 9, 9, 9)) == 1
    assert genericity_P((1, 1, 1, 0, 0, 0)) == 0
    assert genericity_P((0, 2, 0, 0, 0, 0)) == -4


@pytest.mark.parametrize("structure, point", [
    (PAINLEVE, ORIGIN), (GENERIC, (Fraction(1), Fraction(1)))])
def test_exact_guard_checks_build_no_kernel(monkeypatch, structure, point):
    """The order-6 pair's standard-row check and the stratified stacks'
    guards read only ranks, so they build no exact kernel."""
    js = JetStructure.at(structure, point, 10)
    assert js.exact
    calls = []
    monkeypatch.setattr(linalg.ExactElimination, "kernel",
                        lambda self: calls.append(self))
    sixth_order_E(js)
    stratified_obstruction(js, 3)
    stratified_obstruction(js, 4)
    assert not calls

"""Point invariants, the obstruction stack, verdicts, and their identities."""

import pathlib
import random
from fractions import Fraction

import pytest

from projmet import expressions as ex
from projmet import invariants
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
    liouville_L,
    matrix_M,
    matrix_Mmax,
    nu5,
    sixth_order_E,
    tresse_I1,
    vector_V,
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
    l1, l2 = liouville_L(js)
    assert l1.value == -12
    assert l2.value == 0


def test_painleve_slope_invariant():
    js = JetStructure.at(PAINLEVE, ORIGIN, 8)
    assert tresse_I1(js, Fraction(5)) == 72
    assert tresse_I1(js, Fraction(0)) == 72  # no slope dependence here


def test_slope_invariant_is_affine_in_slope():
    rng = random.Random(5)
    s = _random_structure(rng)
    js = JetStructure.at(s, (Fraction(1), Fraction(2)), 8)
    l1, l2 = liouville_L(js)
    for slope in (Fraction(0), Fraction(1), Fraction(-3, 2)):
        assert tresse_I1(js, slope) == -6 * l1.value - 6 * l2.value * slope


def test_flat_structure_all_invariants_vanish():
    js = JetStructure.at(ProjectiveStructure.flat(), ORIGIN, 9)
    l1, l2 = liouville_L(js)
    assert l1.is_zero() and l2.is_zero()
    assert nu5(js) == 0
    assert all(v.is_zero() for v in vector_V(js))


def test_painleve_v_row():
    js = JetStructure.at(PAINLEVE, ORIGIN, 8)
    v = vector_V(js)
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
        l1j, l2j = liouville_L(js)
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
        v = vector_V(js)
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
    o1, o2 = js.connection()
    v = vector_V(js)
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
    v = vector_V(js)
    o1, _ = js.connection()
    dv = cov_deriv(v, o1, "x")
    vp = vector_V(JetStructure.at(s, (pt[0] + h, pt[1]), 8, mode="float"))
    vm = vector_V(JetStructure.at(s, (pt[0] - h, pt[1]), 8, mode="float"))
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


@pytest.mark.parametrize("structure, calls", [
    (PAINLEVE, 56), (RANK4, 57), (RANK4_SWAPPED, 57), (PAINLEVE_SWAPPED, 56),
], ids=["painleve", "rank4", "rank4-swapped", "painleve-swapped"])
def test_stratified_stacks_reuse_level_rows(monkeypatch, structure, calls):
    """Levels 1..7 cost 2k covariant derivatives each (56 in all); the
    stratified stacks add one per mixed word and none for pure words."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return cov_deriv(*args)

    monkeypatch.setattr(invariants, "cov_deriv", counted)
    analyze_point(structure, ORIGIN, order=10)
    assert count[0] == calls


def test_word_rows_are_iterated_derivatives():
    rng = random.Random(56)
    js = JetStructure.at(_random_structure(rng),
                         (Fraction(1), Fraction(-1, 2)), 8)
    omega = dict(zip("xy", js.connection()))
    for word in ("xxx", "yyy", "xy", "yx", "xyy", "yxx"):
        row = vector_V(js)
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
    res = sixth_order_E(js)
    assert not res.fallback
    assert res.e1 == Fraction(-81594715395600)
    assert res.e2 == Fraction(41289904553472)


def test_symmetrised_levels_match_iterated_derivatives():
    """Level-2 rows must equal the symmetrised second derivatives."""
    rng = random.Random(55)
    s = _random_structure(rng)
    js = JetStructure.at(s, (Fraction(1), Fraction(2)), 9)
    o1, o2 = js.connection()
    v = vector_V(js)

    def tr(mat, m):
        return [[e.truncated(m) for e in row] for row in mat]

    n = v[0].order
    dx = cov_deriv(v, tr(o1, n), "x")
    dy = cov_deriv(v, tr(o2, n), "y")
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

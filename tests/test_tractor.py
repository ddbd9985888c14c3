"""The independent 6x6 tractor pipeline and its invariance properties."""

import math
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest

from projmet import expressions as ex
from projmet import cli, linalg, tractor
from projmet.invariants import JetStructure, matrix_M
from projmet.jets import InsufficientOrderError, Jet, JetError
from projmet.model import MetricInput, ProjectiveStructure, ode_from_metric
from projmet.tractor import (
    STACK_ORDER,
    STACK_RATIONALS,
    AffineConnection,
    ContractionLayoutError,
    change_connection,
    det_by_contraction,
    projective_change,
    schouten,
    theta_bar,
    theta_values,
    tractor_data,
    tractor_tensors,
)

from jet_reference import Lowering, lifted, lowered

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"

PAINLEVE = ProjectiveStructure.from_exprs("6*y^2+x", "0", "0", "0")
GENERIC = ProjectiveStructure.from_exprs("x^2+y", "y^2", "x*y", "x+1")


def _conn(structure, point, order=11, mode="auto"):
    js = JetStructure.at(structure, point, order, mode)
    return js, AffineConnection.from_structure(js)


def test_connection_is_trace_free():
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(2)), order=8)
    for b in range(2):
        tr = conn.gamma[0][0][b] + conn.gamma[1][1][b]
        assert tr.is_zero()


def _beta(conn):
    """The skew curvature part beta_ab = (R^0_ab0 + R^1_ab1) / 2, with
    R^c_abd = d_a G^c_bd - d_b G^c_ad + G^c_ae G^e_bd - G^c_be G^e_ad."""
    g = conn.gamma
    m = conn.order - 1

    def riem(c, a, b, d):
        acc = g[c][b][d].diff("xy"[a]) - g[c][a][d].diff("xy"[b])
        for e in (0, 1):
            acc = acc + (g[c][a][e] * g[e][b][d]
                         - g[c][b][e] * g[e][a][d]).truncated(m)
        return acc

    return [[(riem(0, a, b, 0) + riem(1, a, b, 1)) / 2 for b in (0, 1)]
            for a in (0, 1)]


def test_beta_vanishes_identically():
    rng = random.Random(71)
    for _ in range(3):
        coeffs = ["%d + %d*x + %d*y + %d*x*y" % tuple(
            rng.randint(-3, 3) for _ in range(4)) for _ in range(4)]
        s = ProjectiveStructure.from_exprs(*coeffs)
        js, conn = _conn(s, (Fraction(1), Fraction(-1)), order=8)
        beta = _beta(conn)
        assert all(e.is_zero() for row in beta for e in row)
    # a shift by the non-closed form y dx makes beta skew and nonzero
    point = (Fraction(1), Fraction(-1))
    js, conn = _conn(GENERIC, point, order=8)
    w = (ex.eval_jet(ex.parse_expr("y"), point, 8, "rational"), 0)
    gamma = tuple(tuple(tuple(
        conn.gamma[c][a][b] + (w[b] if c == a else 0)
        + (w[a] if c == b else 0) for b in (0, 1)) for a in (0, 1))
        for c in (0, 1))
    beta = _beta(AffineConnection(gamma, conn.s))
    assert [[e.value for e in row] for row in beta] == [
        [0, Fraction(-3, 2)], [Fraction(3, 2), 0]]


def test_schouten_is_symmetric():
    js, conn = _conn(GENERIC, (Fraction(2), Fraction(1)), order=8)
    p = lifted(schouten(lowered(conn.gamma)))
    assert p[0][1] == p[1][0]


def _y1(conn):
    """The contracted Cotton tensor Y_c of an exact connection, by its
    formula on jets."""
    return lifted(tractor_tensors(lowered(conn.gamma), Lowering(conn.s),
                                  STACK_RATIONALS)[3])


def test_y1_is_minus_liouville():
    js, conn = _conn(PAINLEVE, (Fraction(1), Fraction(2)), order=10)
    y1 = _y1(conn)
    l1, l2 = js.liouville()
    m = y1[0].order
    assert y1[0] == -(l1.truncated(m))
    assert y1[1] == -(l2.truncated(m))


def test_y1_is_minus_liouville_generic():
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(1)), order=10)
    y1 = _y1(conn)
    l1, l2 = js.liouville()
    m = y1[0].order
    assert y1[0] == -(l1.truncated(m))
    assert y1[1] == -(l2.truncated(m))


def test_theta_order_bookkeeping():
    js, conn = _conn(GENERIC, (Fraction(0), Fraction(0)), order=11)
    theta = theta_bar(tractor_data(conn))
    assert theta[0][0].order == conn.order - 5
    assert theta[0][0].is_zero()  # the corner entry vanishes by construction


def test_low_order_rejected():
    js, conn = _conn(GENERIC, (Fraction(0), Fraction(0)), order=6)
    with pytest.raises(InsufficientOrderError):
        tractor_data(AffineConnection(
            tuple(tuple(tuple(e.truncated(2) for e in r) for r in pl)
                  for pl in conn.gamma),
            conn.s.truncated(2)))


def test_determinant_vanishes_on_painleve():
    js, conn = _conn(PAINLEVE, (Fraction(0), Fraction(0)), order=11)
    vals = theta_values(theta_bar(tractor_data(conn)))
    assert linalg.det(vals) == 0


def test_determinant_vanishes_for_metric_structure():
    metric = MetricInput.from_exprs("x+y", "0", "x+y")
    s = ode_from_metric(metric)
    js, conn = _conn(s, (Fraction(1), Fraction(1)), order=11)
    vals = theta_values(theta_bar(tractor_data(conn)))
    assert linalg.det(vals) == 0


def test_determinant_vanishes_on_degenerate_family_member():
    s = ProjectiveStructure.from_exprs("0", "y/2", "x", "0")
    js, conn = _conn(s, (Fraction(1), Fraction(2)), order=11)
    vals = theta_values(theta_bar(tractor_data(conn)))
    assert linalg.det(vals) == 0


def test_determinant_nonzero_on_generic_structure():
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(1)), order=11)
    vals = theta_values(theta_bar(tractor_data(conn)))
    assert linalg.det(vals) != 0


def test_volume_scale_exponent_is_six():
    """Rescaling the parallel volume section by lam multiplies the
    determinant by lam^6; pinned once, asserted forever."""
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(1)), order=11)
    d1 = linalg.det(theta_values(theta_bar(tractor_data(conn))))
    d2 = linalg.det(theta_values(theta_bar(tractor_data(
        conn.rescaled(Fraction(2))))))
    assert d2 == d1 * 2 ** 6
    d3 = linalg.det(theta_values(theta_bar(tractor_data(
        conn.rescaled(Fraction(1, 3))))))
    assert d3 == d1 * Fraction(1, 3) ** 6


# ---------------- det Θ̄ = -270 det M ----------------
#
# The tractor stack's determinant is a fixed multiple of the direct route's
# det M at the same jets, so the report's D = det_theta / 4320 is -det M / 16.

def _stack_dets(structure, point, mode):
    js = JetStructure.at(structure, point, STACK_ORDER, mode)
    theta = theta_values(theta_bar(tractor_data(
        AffineConnection.from_structure(js))))
    return js.exact, linalg.det(matrix_M(js)), linalg.det(theta)


def _random_poly(rng):
    return "+".join("(%s)*x^%d*y^%d" % (
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        rng.randint(0, 3), rng.randint(0, 3))
        for _ in range(rng.randint(0, 3))) or "0"


def test_tractor_determinant_is_minus_270_det_m_exactly():
    rng = random.Random(270)
    nonzero = 0
    for _ in range(40):
        s = ProjectiveStructure.from_exprs(
            *(_random_poly(rng) for _ in range(4)))
        p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(2))
        exact, det_m, det_theta = _stack_dets(s, p, "rational")
        assert exact and det_theta == -270 * det_m, (s, p)
        nonzero += det_m != 0
    assert nonzero >= 30
    exact_points = 0
    for path in sorted(INPUTS.glob("*.json")):
        job = cli.load_job(str(path))
        for p in job.points:
            exact, det_m, det_theta = _stack_dets(job.structure, p, "auto")
            if exact:
                assert det_theta == -270 * det_m, (path.name, p)
                exact_points += 1
    assert exact_points == 9


@pytest.mark.parametrize("name", ["mixed-exactness", "one-parameter-ode",
                                  "selftest-rank6"])
def test_tractor_determinant_is_minus_270_det_m_in_floats(name):
    job = cli.load_job(str(INPUTS / ("%s.json" % name)))
    for p in job.points:
        exact, det_m, det_theta = _stack_dets(job.structure, p, "float")
        assert not exact and det_m != 0
        assert abs(det_theta + 270 * det_m) <= 1e-9 * abs(270 * det_m)


# ---------------- contraction cross-check ----------------

def test_contraction_equals_determinant_random():
    rng = random.Random(81)
    for _ in range(25):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
              for _ in range(6)] for _ in range(6)]
        m[0][0] = Fraction(0)
        assert det_by_contraction(m) == linalg.det(m)


def test_contraction_float_matrices():
    rng = random.Random(91)
    for _ in range(10):
        m = [[rng.uniform(-3, 3) for _ in range(6)] for _ in range(6)]
        m[0][0] = 0.0
        want = linalg.det(m)
        got = det_by_contraction(m)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_float_contraction_matches_fraction_weights_bit_for_bit():
    # a Fraction weight times a float is the float weight times it
    rng = random.Random(93)
    for _ in range(20):
        m = [[rng.choice((-1, 1)) * 10.0 ** rng.uniform(-6, 6)
              for _ in range(6)] for _ in range(6)]
        m[0][0] = 0.0
        want = tractor._contract(m, tractor._BRACKET_WEIGHTS)
        assert det_by_contraction(m).hex() == want.hex()


def test_contraction_requires_zero_corner():
    m = [[Fraction(1)] * 6 for _ in range(6)]
    with pytest.raises(ContractionLayoutError):
        det_by_contraction(m)


def test_contraction_on_actual_stack():
    js, conn = _conn(GENERIC, (Fraction(2), Fraction(-1)), order=11)
    vals = theta_values(theta_bar(tractor_data(conn)))
    assert det_by_contraction(vals) == linalg.det(vals)


# ---------------- projective change ----------------

def test_projective_change_with_zero_is_identity():
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(1)), order=11)
    theta = theta_bar(tractor_data(conn))
    t = theta[0][0].order
    zero = ex.eval_jet(ex.ZERO, (Fraction(1), Fraction(1)), t, "rational")
    changed = projective_change(theta, (zero, zero))
    for i in range(6):
        for j in range(6):
            assert changed[i][j] == theta[i][j]


def test_projective_change_preserves_determinant():
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(1)), order=11)
    theta = theta_bar(tractor_data(conn))
    t = theta[0][0].order
    pt = (Fraction(1), Fraction(1))
    for f_src in ("x+y", "x*y", "x^2-3*y"):
        f = ex.parse_expr(f_src)
        omega = (ex.eval_jet(ex.differentiate(f, "x"), pt, t, "rational"),
                 ex.eval_jet(ex.differentiate(f, "y"), pt, t, "rational"))
        changed = projective_change(theta, omega)
        assert linalg.det(theta_values(changed)) == \
            linalg.det(theta_values(theta))


def test_change_routes_agree_entrywise():
    """Row/column operations on the original stack against a full recompute
    with the changed connection: equal up to the parallel-section factor
    e^{-3f} at the base point."""
    pt = (0.5, -0.25)
    for f_src in ("x+y", "x*y"):
        js = JetStructure.at(GENERIC, pt, 11, mode="float")
        conn = AffineConnection.from_structure(js)
        theta = theta_bar(tractor_data(conn))
        t = theta[0][0].order
        f = ex.parse_expr(f_src)
        omega = (ex.eval_jet(ex.differentiate(f, "x"), pt, t, "float"),
                 ex.eval_jet(ex.differentiate(f, "y"), pt, t, "float"))
        route_a = theta_values(projective_change(theta, omega))

        f_jet = ex.eval_jet(f, pt, conn.order + 1, "float")
        conn_b = change_connection(conn, f_jet)
        assert conn_b.order == conn.order
        route_b = theta_values(theta_bar(tractor_data(conn_b)))

        factor = math.exp(-3.0 * ex.eval_scalar(f, pt[0], pt[1]))
        scale = max(abs(v) for row in route_a for v in row)
        for i in range(6):
            for j in range(6):
                want = float(route_a[i][j]) * factor
                assert abs(route_b[i][j] - want) <= 1e-9 * max(scale, 1.0)


def test_change_routes_determinant_scaling():
    pt = (0.5, -0.25)
    js = JetStructure.at(GENERIC, pt, 11, mode="float")
    conn = AffineConnection.from_structure(js)
    theta = theta_bar(tractor_data(conn))
    d0 = linalg.det(theta_values(theta))
    f = ex.parse_expr("x+y")
    conn_b = change_connection(conn,
                               ex.eval_jet(f, pt, conn.order + 1, "float"))
    assert conn_b.order == conn.order
    d_b = linalg.det(theta_values(theta_bar(tractor_data(conn_b))))
    fval = ex.eval_scalar(f, pt[0], pt[1])
    want = d0 * math.exp(-18.0 * fval)
    assert abs(d_b - want) <= 1e-9 * max(1.0, abs(want))


def test_change_connection_is_float_for_an_exact_connection():
    pt = (Fraction(1, 2), Fraction(-1, 4))
    js, conn = _conn(GENERIC, pt, order=8)
    assert js.exact
    f_jet = ex.eval_jet(ex.parse_expr("x*y/3 - y^2/5"), pt, conn.order + 1,
                        "float")
    changed = change_connection(conn, f_jet)
    by_hand = change_connection(AffineConnection(
        tuple(tuple(tuple(e.to_float() for e in r) for r in plane)
              for plane in conn.gamma),
        conn.s.to_float(),
    ), f_jet)
    entries = [e for plane in changed.gamma for r in plane for e in r]
    expected = [e for plane in by_hand.gamma for r in plane for e in r]
    assert not any(e.exact for e in entries + [changed.s])
    assert entries == expected
    assert changed.s == by_hand.s
    assert changed.order == conn.order


# The change acts by unit block-triangular operations on the slots
# (scalar 0, vector 1 + c, tensor (c, d)): the result is L(w) theta R(w).
# In L, vector row 1 + c subtracts 2 w_c times row 0, and tensor row (c, d)
# subtracts (w_c row 1 + d + w_d row 1 + c) / 2 and adds w_c w_d row 0.
# R is the mirror image on columns.  Exact entries make the check entrywise
# and independent of summation order; a stack with a zero corner keeps it.

F12 = Fraction(1, 2)
_TENSOR_SLOTS = ((3, 0, 0), (4, 0, 1), (5, 1, 1))


def _change_matrices(w, zero, one):
    left = [[one if i == j else zero for j in range(6)] for i in range(6)]
    for c in (0, 1):
        left[1 + c][0] = -2 * w[c]
    for r, c, d in _TENSOR_SLOTS:
        left[r][0] = w[c] * w[d]
        left[r][1 + d] = left[r][1 + d] - F12 * w[c]
        left[r][1 + c] = left[r][1 + c] - F12 * w[d]
    right = [[left[j][i] for j in range(6)] for i in range(6)]
    return left, right


def _matmul(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(6)), zero)
             for j in range(6)] for i in range(6)]


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _assert_change_is_block_product(theta, w, zero, one):
    left, right = _change_matrices(w, zero, one)
    want = _matmul(_matmul(left, theta, zero), right, zero)
    got = projective_change(theta, w)
    for i in range(6):
        for j in range(6):
            assert got[i][j] == want[i][j], (i, j)


def test_projective_change_is_the_block_product_on_fractions():
    rng = random.Random(131)
    for _ in range(30):
        theta = [[_random_rational(rng) for _ in range(6)] for _ in range(6)]
        theta[0][0] = Fraction(0)
        w = (_random_rational(rng), _random_rational(rng))
        _assert_change_is_block_product(theta, w, Fraction(0), Fraction(1))


def test_projective_change_is_the_block_product_on_exact_jets():
    rng = random.Random(137)
    base = (Fraction(1, 2), Fraction(-1))

    def jet():
        return Jet(base, 2, [[_random_rational(rng) for _ in range(3 - i)]
                             for i in range(3)])

    zero, one = Jet.constant(0, base, 2), Jet.constant(1, base, 2)
    for _ in range(5):
        theta = [[jet() for _ in range(6)] for _ in range(6)]
        theta[0][0] = zero
        _assert_change_is_block_product(theta, (jet(), jet()), zero, one)


# ---------------- the stack at its constant term ----------------
#
# Every command reads the stack at target order 0, where theta_bar runs its
# block formulas on values.  Those must be the constant terms of the jet
# route bit for bit: the same type, and the same float down to the sign of
# a zero.

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHANGE = "x*y/3 - y^2/5"


def _same_scalar(a, b):
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def _input_structures():
    for path in sorted((ROOT / "inputs").glob("*.json")):
        job = cli.load_job(str(path))
        for p in job.points:
            for mode in ("rational", "float", "auto"):
                try:
                    js = JetStructure.at(job.structure, p, STACK_ORDER + 1,
                                         mode)
                except (ex.ExprError, JetError):
                    continue  # transcendental coefficients in rational mode
                yield "%s %s %s" % (path.stem, p, mode), p, js


def test_values_route_is_the_jet_route_bit_for_bit():
    f = ex.parse_expr(CHANGE)
    seen = 0
    for label, p, js in _input_structures():
        low = JetStructure(tuple(a.truncated(STACK_ORDER) for a in js.a))
        vals = theta_bar(tractor_data(AffineConnection.from_structure(low)))
        jets = theta_bar(tractor_data(AffineConnection.from_structure(js)))
        assert jets[0][0].order == 1
        mode = "auto" if js.exact else "float"
        omega_jets = [ex.eval_jet(ex.differentiate(f, v), p, 1, mode)
                      for v in "xy"]
        omega_vals = [ex.eval_jet(ex.differentiate(f, v), p, 0, mode).value
                      for v in "xy"]
        changed_vals = projective_change(vals, omega_vals)
        changed_jets = projective_change(jets, omega_jets)
        for want, got in ((jets, vals), (changed_jets, changed_vals)):
            for i in range(6):
                for j in range(6):
                    assert _same_scalar(got[i][j], want[i][j].value), \
                        (label, i, j, got[i][j], want[i][j].value)
                    seen += 1
    assert seen >= 2000


def test_values_route_keeps_the_sign_of_zero():
    # plain products of zeros with negatives are -0.0 where jet products
    # are 0.0 + a * b; no entry may show it, the corner included
    rng = random.Random(149)
    cells = (-0.0, 0.0, 0.0, -1.5, 2.0, 0.5)
    base = (Fraction(0), Fraction(0))

    def jet(n, table):
        return Jet(base, n, [row[:n - i + 1] for i, row in
                             enumerate(table[:n + 1])])

    for _ in range(40):
        n = STACK_ORDER + 1
        tables = [[[rng.choice(cells) for _ in range(n - i + 1)]
                   for i in range(n + 1)] for _ in range(7)]
        tables[6][0][0] = rng.choice((1.0, -2.0))
        omega = [[[rng.choice(cells), rng.choice(cells)], [rng.choice(cells)]]
                 for _ in range(2)]
        stacks = []
        for m in (STACK_ORDER, n):
            a, b, c, d, e, f, s = (jet(m, t) for t in tables)
            conn = AffineConnection((((a, b), (b, c)), ((d, e), (e, f))), s)
            theta = theta_bar(tractor_data(conn))
            w = [jet(m - STACK_ORDER, t) for t in omega]
            if m == STACK_ORDER:
                w = [wi.value for wi in w]
            stacks.append((theta, projective_change(theta, w)))
        for got, want in zip(stacks[0], stacks[1]):
            for i in range(6):
                for j in range(6):
                    assert _same_scalar(got[i][j], want[i][j].value), (i, j)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_stack_at_stack_order_holds_scalars(mode):
    js = JetStructure.at(GENERIC, (Fraction(1, 2), Fraction(-1, 3)),
                         STACK_ORDER, mode)
    vals = theta_bar(tractor_data(AffineConnection.from_structure(js)))
    cells = [e for row in vals for e in row]
    scalar = Fraction if mode == "rational" else float
    assert all(type(e) is scalar for e in cells)
    assert _same_scalar(vals[0][0], scalar(0))
    assert theta_values(vals) == vals
    assert all(a is b for a, b in zip(
        (e for row in theta_values(vals) for e in row), cells))
    if mode == "rational":
        det = det_by_contraction(vals)
        assert isinstance(det, Fraction)
        assert det == linalg.det(vals)


def test_theta_values_reads_a_jet_stack():
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(1)), order=STACK_ORDER + 2)
    theta = theta_bar(tractor_data(conn))
    assert theta[0][0].order == 2
    assert theta_values(theta) == [[e.value for e in row] for row in theta]


# ---------------- one covariant derivative for every rank ----------------
#
# `tractor._covd` differentiates a tensor of any rank by one rule.  Exact
# arithmetic does not depend on the order of its pairs, so the Leibniz rule
# on outer products of rank-1 jets pins it down at ranks 2 and 3, and the
# rank-1 formula pins down the factors.  It runs on jets as `Lowering`s.


def _covd(t, g):
    return lifted(tractor._covd(lowered(t), lowered(g)))

COVD_ORDER = 4


def _exact_connections():
    for path in sorted((ROOT / "inputs").glob("*.json")):
        job = cli.load_job(str(path))
        for p in job.points:
            try:
                js = JetStructure.at(job.structure, p, COVD_ORDER, "rational")
            except (ex.ExprError, JetError):
                continue  # transcendental coefficients
            yield "%s %s" % (path.stem, p), p, js


def _leaves(t, depth=0):
    if isinstance(t, Jet):
        yield depth, t
    else:
        assert len(t) == 2
        for e in t:
            yield from _leaves(e, depth + 1)


def test_covd_obeys_the_leibniz_rule_exactly():
    rng = random.Random(151)
    n, m = COVD_ORDER, COVD_ORDER - 1
    seen = 0
    for label, p, js in _exact_connections():
        g = AffineConnection.from_structure(js).gamma

        def vector():
            return [Jet(p, n, [[_random_rational(rng)
                                for _ in range(n - i + 1)]
                               for i in range(n + 1)]) for _ in (0, 1)]

        u, v, w = vector(), vector(), vector()
        du, dv, dw = (_covd(t, g) for t in (u, v, w))
        for a in (0, 1):
            for b in (0, 1):
                want = u[b].diff("xy"[a]) - sum(
                    (g[e][a][b].truncated(m) * u[e].truncated(m)
                     for e in (0, 1)), Jet.constant(0, p, m))
                assert du[a][b] == want, (label, a, b)
        uv = [[u[i] * v[j] for j in (0, 1)] for i in (0, 1)]
        uvw = [[[u[i] * v[j] * w[k] for k in (0, 1)] for j in (0, 1)]
               for i in (0, 1)]
        ut, vt, wt = ([e.truncated(m) for e in t] for t in (u, v, w))
        duv, duvw = _covd(uv, g), _covd(uvw, g)
        for rank, result in ((1, du), (2, duv), (3, duvw)):
            leaves = list(_leaves(result))
            assert len(leaves) == 2 ** (rank + 1), (label, rank)
            assert all(depth == rank + 1 and leaf.order == m and leaf.exact
                       for depth, leaf in leaves), (label, rank)
        for a, i, j in product((0, 1), repeat=3):
            assert duv[a][i][j] == du[a][i] * vt[j] + ut[i] * dv[a][j], \
                (label, a, i, j)
            for k in (0, 1):
                assert duvw[a][i][j][k] == (
                    du[a][i] * vt[j] * wt[k] + ut[i] * dv[a][j] * wt[k]
                    + ut[i] * vt[j] * dw[a][k]), (label, a, i, j, k)
                seen += 1
    assert seen >= 16 * 7  # the seven exact points of the committed inputs

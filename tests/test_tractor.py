"""The independent 6x6 tractor pipeline and its invariance properties."""

import math
import random
from fractions import Fraction

import pytest

from projmet import expressions as ex
from projmet import linalg, tractor
from projmet.invariants import JetStructure, liouville_L
from projmet.jets import InsufficientOrderError
from projmet.model import MetricInput, ProjectiveStructure, ode_from_metric
from projmet.tractor import (
    AffineConnection,
    ContractionLayoutError,
    change_connection,
    det_by_contraction,
    projective_change,
    schouten,
    theta_bar,
    theta_values,
    tractor_data,
)

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
    p = schouten(conn)
    assert p[0][1] == p[1][0]


def test_y1_is_minus_liouville():
    js, conn = _conn(PAINLEVE, (Fraction(1), Fraction(2)), order=10)
    td = tractor_data(conn)
    l1, l2 = liouville_L(js)
    m = td.y1[0].order
    assert td.y1[0] == -(l1.truncated(m))
    assert td.y1[1] == -(l2.truncated(m))


def test_y1_is_minus_liouville_generic():
    js, conn = _conn(GENERIC, (Fraction(1), Fraction(1)), order=10)
    td = tractor_data(conn)
    l1, l2 = liouville_L(js)
    m = td.y1[0].order
    assert td.y1[0] == -(l1.truncated(m))
    assert td.y1[1] == -(l2.truncated(m))


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

        f_jet = ex.eval_jet(f, pt, conn.order, "float")
        conn_b = change_connection(conn, f_jet)
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
    conn_b = change_connection(conn, ex.eval_jet(f, pt, conn.order, "float"))
    d_b = linalg.det(theta_values(theta_bar(tractor_data(conn_b))))
    fval = ex.eval_scalar(f, pt[0], pt[1])
    want = d0 * math.exp(-18.0 * fval)
    assert abs(d_b - want) <= 1e-9 * max(1.0, abs(want))

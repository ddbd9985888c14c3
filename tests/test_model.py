"""Input routes (ODE / metric / cubic polynomial) and the residual system."""

import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from projmet import expressions as ex
from projmet.invariants import JetStructure
from projmet.jets import InsufficientOrderError
from projmet.model import (
    DegenerateMetricError,
    LambdaPoly,
    MetricInput,
    NotCubicError,
    ProjectiveStructure,
    geodesic_coefficients,
    liouville_residual,
    ode_from_lambda,
    ode_from_metric,
    section_to_metric,
)

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


def test_flat_metric_gives_flat_ode():
    metric = MetricInput.from_exprs("1", "0", "1")
    s = ode_from_metric(metric)
    for pt in ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-3))):
        assert s.values_at(pt) == (0, 0, 0, 0)


def test_constant_multiple_of_flat_metric_is_flat():
    metric = MetricInput.from_exprs("5", "0", "5")
    s = ode_from_metric(metric)
    assert s.values_at((Fraction(1), Fraction(7))) == (0, 0, 0, 0)


def test_exponential_family_ode_coefficients():
    """E = e^{xy}, F = 0, G = 1 must give the known cubic coefficients
    (x/2) e^{xy}, y/2, x, 0."""
    metric = MetricInput.from_exprs("exp(x*y)", "0", "1")
    s = ode_from_metric(metric)
    rng = random.Random(7)
    for _ in range(5):
        x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        a0, a1, a2, a3 = s.values_at((x0, y0))
        assert abs(a0 - 0.5 * x0 * math.exp(x0 * y0)) < 1e-12
        assert abs(a1 - 0.5 * y0) < 1e-12
        assert abs(a2 - x0) < 1e-12
        assert abs(a3) < 1e-12


def test_liouville_metric_ode_values():
    # E = G = x + y, F = 0 at (1, 1)
    metric = MetricInput.from_exprs("x+y", "0", "x+y")
    s = ode_from_metric(metric)
    vals = s.values_at((Fraction(1), Fraction(1)))
    assert vals == (Fraction(1, 4), Fraction(-1, 4),
                    Fraction(1, 4), Fraction(-1, 4))
    assert s.provenance == "from-metric"


def _committed_metric(name):
    data = json.loads((INPUTS / ("%s.json" % name)).read_text())
    return data["E"], data.get("F", "0"), data["G"]


# A0..A3 of each metric's geodesic ODE as printed trees: the association
# of every sum and product is part of what is pinned, since float
# evaluation of a tree rounds as it is associated
@pytest.mark.parametrize("efg, want", [
    (_committed_metric("exp-family-c1"), (
        "exp(x*y)*(exp(x*y)*x)/(2*exp(x*y))",
        "exp(x*y)*y/(2*exp(x*y))",
        "2*(exp(x*y)*x)/(2*exp(x*y))",
        "0")),
    (_committed_metric("liouville-metric"), (
        "(x+y)/(2*((x+y)*(x+y)))",
        "(x+y-2*(x+y))/(2*((x+y)*(x+y)))",
        "(2*(x+y)-(x+y))/(2*((x+y)*(x+y)))",
        "-(x+y)/(2*((x+y)*(x+y)))")),
    (("1+x^2*y", "x*y", "2+y^3"), (
        "((1+x^2*y)*x^2-2*((1+x^2*y)*y)+x*y*(2*x*y))"
        "/(2*((1+x^2*y)*(2+y^3)-x*y*(x*y)))",
        "(3*(x*y*x^2)+(2+y^3)*(2*x*y)-2*(x*y*y))"
        "/(2*((1+x^2*y)*(2+y^3)-x*y*(x*y)))",
        "(2*(x*y*x)+2*((2+y^3)*x^2)-(1+x^2*y)*(3*y^2))"
        "/(2*((1+x^2*y)*(2+y^3)-x*y*(x*y)))",
        "(2*((2+y^3)*x)-x*y*(3*y^2))"
        "/(2*((1+x^2*y)*(2+y^3)-x*y*(x*y)))")),
    (("2+sin(x)", "x*y/3", "1+y^2"), (
        "(-(2*((2+sin(x))*(y/3)))+x*y/3*cos(x))"
        "/(2*((2+sin(x))*(1+y^2)-x*y/3*(x*y/3)))",
        "((1+y^2)*cos(x)-2*(x*y/3*(y/3)))"
        "/(2*((2+sin(x))*(1+y^2)-x*y/3*(x*y/3)))",
        "(2*(x*y/3*(x/3))-(2+sin(x))*(2*y))"
        "/(2*((2+sin(x))*(1+y^2)-x*y/3*(x*y/3)))",
        "(2*((1+y^2)*(x/3))-x*y/3*(2*y))"
        "/(2*((2+sin(x))*(1+y^2)-x*y/3*(x*y/3)))")),
], ids=["exp-family-c1", "liouville-metric", "rational", "sin"])
def test_metric_ode_trees_are_pinned(efg, want):
    s = ode_from_metric(MetricInput.from_exprs(*efg))
    assert tuple(map(ex.to_string, s.coefficients)) == want


@pytest.mark.parametrize("efg", [
    ("1+x^2*y", "x*y", "2+y^3"),
    ("x+y", "0", "x+y"),
    ("1/(1+x^2)", "x-y/2", "3+x*y^2"),
])
def test_geodesic_coefficients_on_jets_equal_the_trees_jets(efg):
    """The formula on exact jets of E, F, G one order up, differentiated,
    gives exactly the jets of `ode_from_metric`'s trees."""
    metric = MetricInput.from_exprs(*efg)
    trees = ode_from_metric(metric).coefficients
    n = 4
    for pt in ((Fraction(1), Fraction(2)), (Fraction(-1, 3), Fraction(2, 5))):
        memo = {}
        up = [ex.eval_jet(t, pt, n + 1, "rational", memo)
              for t in (metric.e, metric.f, metric.g)]
        got = geodesic_coefficients([j.truncated(n) for j in up],
                                    [j.diff("x") for j in up],
                                    [j.diff("y") for j in up])
        memo = {}
        want = [ex.eval_jet(a, pt, n, "rational", memo) for a in trees]
        assert list(got) == want


def test_degenerate_metric_rejected_at_check_point():
    metric = MetricInput.from_exprs("x", "0", "x")  # vanishes on x = 0
    with pytest.raises(DegenerateMetricError):
        ode_from_metric(metric, check_points=((Fraction(0), Fraction(1)),))
    # fine away from the degeneracy
    s = ode_from_metric(metric, check_points=((Fraction(1), Fraction(1)),))
    assert s.values_at((Fraction(1), Fraction(1)))[1] == Fraction(-1, 2)


def test_lambda_route_matches_direct_odes():
    lam = LambdaPoly.from_exprs(("6*y^2+x", "0", "0", "0"))
    s = ode_from_lambda(lam)
    direct = ProjectiveStructure.from_exprs("6*y^2+x", "0", "0", "0")
    pt = (Fraction(1), Fraction(2))
    assert s.values_at(pt) == direct.values_at(pt)
    assert s.provenance == "from-lambda"


def test_lambda_route_trims_literal_zero_top():
    lam = LambdaPoly.from_exprs(("1", "x", "y", "x*y", "0"))
    s = ode_from_lambda(lam)
    assert s.values_at((Fraction(2), Fraction(3)))[3] == 6


def test_lambda_route_rejects_quartic():
    lam = LambdaPoly.from_exprs(("1", "x", "y", "x*y", "x"))
    with pytest.raises(NotCubicError):
        ode_from_lambda(lam)


def test_lambda_route_pads_short_lists():
    lam = LambdaPoly.from_exprs(("x", "1"))
    s = ode_from_lambda(lam)
    assert s.values_at((Fraction(3), Fraction(5))) == (3, 1, 0, 0)


def _section_jets(psi, pt, order):
    return [ex.eval_jet(ex.as_expr(p), pt, order, "rational") for p in psi]


def test_flat_section_has_zero_residuals():
    pt = (Fraction(0), Fraction(0))
    a = JetStructure.at(ProjectiveStructure.flat(), pt, 2).a
    res = liouville_residual(_section_jets(("1", "0", "1"), pt, 3), a)
    assert all(r.is_zero() and r.order == 2 for r in res)


def test_residuals_vanish_for_metric_built_sections():
    """Any metric's own section must solve the metrisability system.

    Random polynomial sections are converted to a metric, the metric to its
    geodesic cubic, and the residuals evaluated back on the section: all four
    must vanish identically, in exact arithmetic.
    """
    rng = random.Random(99)
    pt = (Fraction(1), Fraction(1))
    done = 0
    while done < 6:
        def poly():
            return "%d + %d*x + %d*y + %d*x*y" % tuple(
                rng.randint(-3, 3) for _ in range(4))
        p1, p2, p3 = poly(), poly(), poly()
        e1, e2, e3 = (ex.parse_expr(p) for p in (p1, p2, p3))
        d = (ex.eval_scalar(e1, *pt) * ex.eval_scalar(e3, *pt)
             - ex.eval_scalar(e2, *pt) ** 2)
        if d == 0:
            continue
        em, fm, gm = section_to_metric(e1, e2, e3)
        metric = MetricInput(em, fm, gm)
        s = ode_from_metric(metric, check_points=(pt,))
        res = liouville_residual(_section_jets((e1, e2, e3), pt, 3),
                                 JetStructure.at(s, pt, 2, "rational").a)
        assert all(r.is_zero() for r in res)
        done += 1


def test_structure_jets_at_orders():
    s = ProjectiveStructure.from_exprs("6*y^2+x", "0", "0", "0")
    ja = JetStructure.at(s, (Fraction(0), Fraction(0)), 4).a
    a0 = ja[0]
    assert a0.partial(0, 2) == 12
    assert a0.partial(1, 0) == 1
    assert ja[1].is_zero() and ja[2].is_zero() and ja[3].is_zero()


def test_residual_order_validation():
    pt = (Fraction(0), Fraction(0))
    flat = ProjectiveStructure.flat()
    with pytest.raises(ValueError):
        liouville_residual(_section_jets(("1", "0", "1"), pt, 0),
                           JetStructure.at(flat, pt, 0).a)
    # the coefficients must reach order n - 1
    with pytest.raises(InsufficientOrderError):
        liouville_residual(_section_jets(("1", "0", "1"), pt, 3),
                           JetStructure.at(flat, pt, 1).a)


@pytest.mark.parametrize("psi", [("2+x*y", "x-y", "3+y^2"),
                                 ("1+x^2", "x*y-1", "2-x+y^3")])
def test_one_section_to_metric_for_trees_jets_and_floats(psi):
    """The metric of a section, taken on exact jets one order up and fed to
    `geodesic_coefficients`, is the ODE of the metric built from the
    section's trees, exactly; on floats it agrees with the exact value
    within round-off."""
    pt = (Fraction(1, 3), Fraction(2, 5))
    n = 3
    trees = [ex.parse_expr(p) for p in psi]
    efg = section_to_metric(*_section_jets(trees, pt, n + 1))
    a = geodesic_coefficients([j.truncated(n) for j in efg],
                              [j.diff("x") for j in efg],
                              [j.diff("y") for j in efg])
    metric = MetricInput(*section_to_metric(*trees))
    assert a == JetStructure.at(ode_from_metric(metric), pt, n,
                                "rational").a
    exact = [j.value for j in efg]
    fpt = tuple(map(float, pt))
    floats = section_to_metric(*(ex.eval_scalar(t, *fpt) for t in trees))
    for f, q in zip(floats, exact):
        assert isinstance(f, float)
        assert f == pytest.approx(float(q), rel=1e-14, abs=0)

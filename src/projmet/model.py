"""Projective structures on a surface patch and their input routes.

A projective structure is presented by the second-order ODE

    y'' = A3(x,y) y'^3 + A2(x,y) y'^2 + A1(x,y) y' + A0(x,y)

whose solutions are the unparametrised geodesics.  It can be entered
directly, induced from a metric E dx^2 + 2F dxdy + G dy^2, or read off a
polynomial  Lambda(x, y, p)  of degree <= 3 in the slope p.

The metrisability problem asks for a (pseudo-)metric whose geodesics
reproduce the ODE; `liouville_residual` evaluates the equivalent linear
first-order system on the substitution

    psi1 = E (EG - F^2)^(-2/3),  psi2 = F (...),  psi3 = G (...),

so a candidate (psi1, psi2, psi3) solves the metrisability problem iff all
four residuals vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expressions as ex
from .expressions import as_expr, differentiate, eval_jet, eval_scalar


class NotCubicError(ValueError):
    """The slope polynomial has degree above three."""


class DegenerateMetricError(ValueError):
    """EG - F^2 vanishes at a requested point."""

    def __init__(self, point):
        super().__init__(
            "metric is degenerate (EG - F^2 = 0) at (%s, %s)" % point
        )
        self.point = point


@dataclass(frozen=True)
class ProjectiveStructure:
    """The four ODE coefficients as expression trees."""

    a0: object
    a1: object
    a2: object
    a3: object
    provenance: str = "direct"

    @classmethod
    def from_exprs(cls, a0, a1, a2, a3, provenance="direct"):
        return cls(as_expr(a0), as_expr(a1), as_expr(a2), as_expr(a3),
                   provenance)

    @classmethod
    def flat(cls):
        return cls(ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO, "direct")

    @property
    def coefficients(self):
        return (self.a0, self.a1, self.a2, self.a3)

    def values_at(self, point):
        return tuple(
            eval_scalar(c, point[0], point[1]) for c in self.coefficients
        )


@dataclass(frozen=True)
class MetricInput:
    """A metric E dx^2 + 2F dxdy + G dy^2 given by expression trees."""

    e: object
    f: object
    g: object

    @classmethod
    def from_exprs(cls, e, f, g):
        return cls(as_expr(e), as_expr(f), as_expr(g))

    def values_at(self, point):
        return (
            eval_scalar(self.e, point[0], point[1]),
            eval_scalar(self.f, point[0], point[1]),
            eval_scalar(self.g, point[0], point[1]),
        )

    def discriminant_at(self, point):
        e, f, g = self.values_at(point)
        return e * g - f * f


@dataclass(frozen=True)
class LambdaPoly:
    """Coefficients (c0, ..., cd) of a polynomial sum ck p^k in the slope."""

    coeffs: tuple

    @classmethod
    def from_exprs(cls, coeffs):
        return cls(tuple(as_expr(c) for c in coeffs))


def ode_from_lambda(lam):
    """Read the ODE coefficients off a slope polynomial.

    Trailing literal-zero coefficients are dropped; anything of genuine
    degree > 3 cannot define a projective structure.
    """
    coeffs = list(lam.coeffs)
    while len(coeffs) > 1 and isinstance(coeffs[-1], ex.Num) \
            and coeffs[-1].value == 0:
        coeffs.pop()
    if len(coeffs) > 4:
        raise NotCubicError(
            "slope polynomial has degree %d; a projective structure needs "
            "degree at most 3" % (len(coeffs) - 1)
        )
    while len(coeffs) < 4:
        coeffs.append(ex.ZERO)
    return ProjectiveStructure(coeffs[0], coeffs[1], coeffs[2], coeffs[3],
                               "from-lambda")


def geodesic_coefficients(efg, d_x, d_y):
    """A0..A3 of the geodesic ODE of E dx^2 + 2F dxdy + G dy^2 from the
    values (E, F, G) and their x and y derivatives.  The formula is written
    once for trees, jets and floats; its association is what float
    evaluation of `ode_from_metric`'s trees rounds by."""
    e, f, g = efg
    ex_, fx, gx = d_x
    ey, fy, gy = d_y
    den = 2 * (e * g - f * f)
    return (
        (e * ey - 2 * (e * fx) + f * ex_) / den,
        (3 * (f * ey) + g * ex_ - (2 * (f * fx) + 2 * (e * gx))) / den,
        (2 * (f * fy) + 2 * (g * ey) - (3 * (f * gx) + e * gy)) / den,
        (2 * (g * fy) - (g * gx + f * gy)) / den,
    )


def ode_from_metric(metric, check_points=()):
    """Geodesic ODE of a metric, as explicit expression trees.

    Optionally verifies nondegeneracy of the metric at sample points first.
    """
    for p in check_points:
        if metric.discriminant_at(p) == 0:
            raise DegenerateMetricError((p[0], p[1]))

    efg = (metric.e, metric.f, metric.g)
    return ProjectiveStructure(*geodesic_coefficients(
        efg, *([differentiate(t, v) for t in efg] for v in "xy")),
        "from-metric")


def section_to_metric_exprs(psi1, psi2, psi3):
    """Inverse substitution E = psi1 / Delta^2 etc., Delta = psi1 psi3 - psi2^2,
    as expression trees."""
    p1, p2, p3 = as_expr(psi1), as_expr(psi2), as_expr(psi3)
    delta = ex.sub(ex.mul(p1, p3), ex.mul(p2, p2))
    d2 = ex.powi(delta, 2)
    return (ex.div(p1, d2), ex.div(p2, d2), ex.div(p3, d2))


# Residuals of the metrisability system, written LHS - RHS so that a
# solution gives four identical zeros.

_F23 = Fraction(2, 3)
_F43 = Fraction(4, 3)


def liouville_residual(psi, structure, point, order=1, mode="auto"):
    """Evaluate the four residuals of the metrisability system at a point.

    `psi` is a triple of expressions; jets of the stated order are used for
    the derivatives (order >= 1 required), all in the one arithmetic that
    `mode` gives psi and the coefficients at the point.  Returns a 4-tuple
    of jets truncated to order - 1.
    """
    if order < 1:
        raise ValueError("residual evaluation needs jets of order >= 1")
    trees = [as_expr(p) for p in psi] + list(structure.coefficients)
    kind = ex.choose_arithmetic(trees, point, mode)
    memo = {}
    p1, p2, p3, a0, a1, a2, a3 = (
        eval_jet(t, point, order, kind, memo) for t in trees)
    m = order - 1
    p1d, p2d, p3d = p1.truncated(m), p2.truncated(m), p3.truncated(m)
    a0d, a1d, a2d, a3d = (
        a.truncated(m) for a in (a0, a1, a2, a3)
    )

    r1 = p1.diff("x") - _F23 * a1d * p1d + 2 * a0d * p2d
    r2 = p3.diff("y") - 2 * a3d * p2d + _F23 * a2d * p3d
    r3 = (
        p1.diff("y") + 2 * p2.diff("x")
        - _F43 * a2d * p1d + _F23 * a1d * p2d + 2 * a0d * p3d
    )
    r4 = (
        p3.diff("x") + 2 * p2.diff("y")
        - 2 * a3d * p1d + _F43 * a1d * p3d - _F23 * a2d * p2d
    )
    return (r1, r2, r3, r4)

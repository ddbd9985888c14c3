"""Projective structures on a surface patch and their input routes.

A projective structure is presented by the second-order ODE

    y'' = A3(x,y) y'^3 + A2(x,y) y'^2 + A1(x,y) y' + A0(x,y)

whose solutions are the unparametrised geodesics.  It can be entered
directly, induced from a metric E dx^2 + 2F dxdy + G dy^2, or read off a
polynomial  Lambda(x, y, p)  of degree <= 3 in the slope p.

The metrisability problem asks for a (pseudo-)metric whose geodesics
reproduce the ODE.  Liouville's substitution

    psi1 = E (EG - F^2)^(-2/3),  psi2 = F (...),  psi3 = G (...)

turns it into a linear first-order system for the section psi, whose four
residuals `liouville_residual` evaluates on jets; a nondegenerate solution
gives the metric back by `section_to_metric`.  `geodesic_coefficients` and
`section_to_metric` are written once for trees, jets and floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expressions as ex
from .expressions import as_expr, differentiate, eval_scalar
from .invariants import F23, F43, genericity_P


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
        return genericity_P(self.values_at(point))


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
    den = 2 * genericity_P(efg)
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


def section_to_metric(psi1, psi2, psi3):
    """Undo the substitution: E, F, G = psi / Delta^2 with Delta = psi1 psi3
    - psi2^2, for trees, jets and floats alike."""
    delta = genericity_P((psi1, psi2, psi3))
    d2 = delta * delta
    return (psi1 / d2, psi2 / d2, psi3 / d2)


def liouville_residual(psi, a):
    """The four residuals of the metrisability system, LHS - RHS, at the
    jets' base point.  `psi` holds three jets of order n >= 1 and `a` the
    four coefficient jets of order >= n - 1; the residuals are jets of order
    n - 1, all zero iff psi solves the system to that order."""
    (p1x, p1y), (p2x, p2y), (p3x, p3y) = (
        (p.diff("x"), p.diff("y")) for p in psi)
    m = p1x.order
    p1, p2, p3 = (p.truncated(m) for p in psi)
    a0, a1, a2, a3 = (c.truncated(m) for c in a)
    return (
        p1x - F23 * a1 * p1 + 2 * a0 * p2,
        p3y - 2 * a3 * p2 + F23 * a2 * p3,
        p1y + 2 * p2x - F43 * a2 * p1 + F23 * a1 * p2 + 2 * a0 * p3,
        p3x + 2 * p2y - 2 * a3 * p1 + F43 * a1 * p3 - F23 * a2 * p2,
    )

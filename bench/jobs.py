"""Seeded job generation for the three benchmark workloads.

A workload is a fixed, ordered list of `Spec`s built from the seed alone.
Each spec is one job file (the JSON the `projmet` CLI reads), the commands
run on it, the arithmetic mode they run in, and what the benchmark expects
of the answer.  One pass of a workload runs every command of every spec
once, in order.

Generated structures keep a fixed shape (which monomials, which functions)
and draw only small nonzero coefficients and sample points from the seed,
so that jobs of one kind cost about the same for every seed.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("decide-exact", "decide-float", "recover-grid")

DECIDE_COMMANDS = ("check", "invariants", "tractor")

# The exact-capable committed inputs, and every committed input.
COMMITTED_EXACT = ("painleve1", "cubic-lambda", "liouville-metric",
                   "exp-family-c0", "flat")
COMMITTED_ALL = COMMITTED_EXACT + ("exp-family-c1", "one-parameter-ode",
                                   "single-coefficient-a")
COMMITTED_RECOVER = ("exp-family-c1",)

# The projective change every tractor job verifies invariance under.
CHANGE = "x*y/3 - y^2/5"

# The polynomial structure of `projmet selftest`, a known scale-sensitive
# case for float rank decisions.
SELFTEST_ODE = {"A0": "x^2+y", "A1": "y^2", "A2": "x*y", "A3": "x+1"}

# Dilation factors are drawn log-uniformly from 10^-LOG10_LAMBDA to
# 10^LOG10_LAMBDA.
LOG10_LAMBDA = 3.0

GRID = {"h": 0.05, "n": 9, "substeps": 4}

METRISABLE = "Metrisable"
NOT_METRISABLE = "NotMetrisable"


@dataclass
class Spec:
    """One job file plus what to run on it and what to expect."""

    name: str
    data: dict
    commands: tuple
    mode: str                      # "rational" or "float"
    expect_verdict: str = None     # exact verdict the structure must have
    expect_rank_m: int = None      # exact rank of M, where known
    frozen: str = None             # key into frozen.json


# ---------------- expression helpers ----------------


def _coef(rng):
    return rng.choice((-4, -3, -2, 2, 3, 4, 5))


def _poly(terms):
    """Format [(coefficient, monomial), ...] as an expression string; an
    empty monomial is a constant term."""
    out = []
    for c, mono in terms:
        c = Fraction(c)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else "%s*%s" % (mag, mono)
        else:
            body = str(mag)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out) if out else "0"


def _rational_point(rng):
    def coord():
        return "%d/%d" % (rng.choice((-3, -2, -1, 1, 2, 3)),
                          rng.choice((2, 3, 5)))
    return [coord(), coord()]


def _float_point(rng):
    return [round(rng.uniform(-0.5, 0.5), 3), round(rng.uniform(-0.5, 0.5), 3)]


def _lambda(rng):
    """A dilation factor with four significant digits, written without an
    exponent so the expression grammar reads it."""
    lam = 10.0 ** rng.uniform(-LOG10_LAMBDA, LOG10_LAMBDA)
    digits = max(0, 3 - math.floor(math.log10(lam)))
    text = "%.*f" % (digits, lam)
    return float(text), text


_COORD = re.compile(r"\b([xy])\b")


def _substitute(src, lam_text):
    return _COORD.sub(lambda m: "(%s*%s)" % (lam_text, m.group(1)), src)


def dilate(data, lam, lam_text):
    """The pull-back of a job's structure under (x, y) -> (lam x, lam y).

    The ODE coefficients become lam * A_k(lam x, lam y), a metric becomes
    g(lam x, lam y) (a constant factor does not change the geodesics), and
    each sample point p becomes p / lam, so the dilated job samples the same
    geometric points.  A projective change f becomes f(lam x, lam y).
    Metrisability cannot change."""
    out = {k: v for k, v in data.items() if k not in ("points", "grid")}
    if "change" in data:
        out["change"] = _substitute(data["change"], lam_text)
    if data["kind"] == "metric":
        for k in ("E", "F", "G"):
            if k in data:
                out[k] = _substitute(data[k], lam_text)
    elif data["kind"] == "ode":
        for k in ("A0", "A1", "A2", "A3"):
            out[k] = "%s*(%s)" % (lam_text, _substitute(data.get(k, "0"),
                                                         lam_text))
    else:
        out["p_coeffs"] = ["%s*(%s)" % (lam_text, _substitute(c, lam_text))
                           for c in data["p_coeffs"]]
    out["points"] = [[float(Fraction(str(p[0]))) / lam,
                      float(Fraction(str(p[1]))) / lam]
                     for p in data["points"]]
    return out


# ---------------- structure generators ----------------


def seeded_ode(rng):
    """Generic polynomial ODE with the monomial pattern of the selftest
    structure: rank M = 6, not metrisable."""
    c = [_coef(rng) for _ in range(8)]
    return {
        "kind": "ode",
        "A0": _poly([(c[0], "x^2"), (c[1], "y")]),
        "A1": _poly([(c[2], "y^2"), (c[3], "x")]),
        "A2": _poly([(c[4], "x*y"), (c[5], "")]),
        "A3": _poly([(c[6], "x"), (c[7], "")]),
    }


def seeded_metric(rng):
    """Generic polynomial metric, positive definite for |x|, |y| < 1:
    metrisable with a one-dimensional solution space."""
    return {
        "kind": "metric",
        "E": _poly([(rng.randint(9, 12), ""), (_coef(rng), "x"),
                    (1, "y^2")]),
        "F": _poly([(Fraction(_coef(rng), 7), "x*y")]),
        "G": _poly([(rng.randint(9, 12), ""), (1, "x^2"),
                    (_coef(rng), "y")]),
    }


def seeded_liouville_metric(rng):
    """Liouville-type metric (X(x) + Y(y)) (dx^2 + dy^2): metrisable with a
    two-dimensional solution space."""
    a = rng.randint(10, 14)
    b = rng.choice((2, 3, 4))
    return {
        "kind": "metric",
        "E": _poly([(a, ""), (b, "x"), (1, "y^2")]),
        "F": "0",
        "G": _poly([(a, ""), (b, "x"), (1, "y^2")]),
    }


def seeded_transcendental_ode(rng):
    c = [_coef(rng) for _ in range(6)]
    return {
        "kind": "ode",
        "A0": "%d*sin(%d*x + %d*y)" % (c[0], c[1], c[2]),
        "A1": "%d*exp(x/%d)" % (c[3], abs(c[4])),
        "A2": _poly([(c[5], "x*y")]),
        "A3": "cos(y)",
    }


def seeded_transcendental_metric(rng):
    return {
        "kind": "metric",
        "E": "%d + exp(x*y/%d)" % (rng.randint(3, 6), rng.choice((2, 3, 5))),
        "F": "sin(x)/%d" % rng.choice((5, 7, 9)),
        "G": "%d + x^2 + exp(y/%d)" % (rng.randint(3, 6),
                                       rng.choice((2, 3, 5))),
    }


# ---------------- workloads ----------------


def _seeded_structures(rng):
    """The structures decide-exact and decide-float share: three generic
    ODEs, one generic metric and one Liouville-type metric."""
    out = []
    for i in range(3):
        out.append(("ode-%d" % i, seeded_ode(rng), NOT_METRISABLE, 6))
    out.append(("metric-0", seeded_metric(rng), METRISABLE, None))
    out.append(("liouville-0", seeded_liouville_metric(rng), METRISABLE,
                None))
    return out


def decide_exact(seed, committed):
    rng = random.Random("decide:%d" % seed)
    specs = []
    for name in COMMITTED_EXACT:
        specs.append(Spec(name, dict(committed[name], change=CHANGE),
                          DECIDE_COMMANDS, "rational",
                          frozen="%s/rational" % name))
    for name, data, verdict, rank in _seeded_structures(rng):
        data = dict(data, points=[_rational_point(rng)], order=10,
                    change=CHANGE)
        specs.append(Spec(name, data, DECIDE_COMMANDS, "rational",
                          expect_verdict=verdict, expect_rank_m=rank))
    return specs


def _exact_verdict(name, frozen):
    """The frozen exact verdict of a committed input; for the transcendental
    ones, which have no exact mode, the frozen float verdict."""
    mode = "rational" if name in COMMITTED_EXACT else "float"
    return frozen["%s/%s" % (name, mode)]["check"]["verdict"]


def decide_float(seed, committed, frozen):
    """Every committed input in float mode (gated against frozen float
    results), then the decide-exact structures, more of the same kinds,
    transcendental ones, and the committed exact inputs plus the selftest
    structure, each dilated by a seeded factor."""
    rng = random.Random("decide:%d" % seed)
    specs = []
    for name in COMMITTED_ALL:
        specs.append(Spec(name, dict(committed[name], change=CHANGE),
                          DECIDE_COMMANDS, "float",
                          expect_verdict=_exact_verdict(name, frozen),
                          frozen="%s/float" % name))
    structures = [(name, dict(data, points=[_rational_point(rng)],
                              order=10), verdict)
                  for name, data, verdict, _ in _seeded_structures(rng)]
    extra = random.Random("decide-float:%d" % seed)
    for i in range(3, 6):
        structures.append(("ode-%d" % i, dict(
            seeded_ode(extra), points=[_rational_point(extra)], order=10),
            NOT_METRISABLE))
    structures.append(("metric-1", dict(
        seeded_metric(extra), points=[_rational_point(extra)], order=10),
        METRISABLE))
    for i in range(3):
        structures.append(("sin-exp-ode-%d" % i, dict(
            seeded_transcendental_ode(extra), points=[_float_point(extra)],
            order=10), NOT_METRISABLE))
    for i in range(2):
        structures.append(("exp-metric-%d" % i, dict(
            seeded_transcendental_metric(extra),
            points=[_float_point(extra)], order=10), METRISABLE))
    structures.append(("selftest", dict(SELFTEST_ODE, kind="ode",
                                        points=[[1, 1]], order=10),
                       NOT_METRISABLE))
    for name in COMMITTED_EXACT + ("one-parameter-ode",
                                   "single-coefficient-a"):
        structures.append((name, dict(committed[name]),
                           _exact_verdict(name, frozen)))
    for name, data, verdict in structures:
        lam, text = _lambda(extra)
        job = dilate(dict(data, change=CHANGE), lam, text)
        job["arithmetic"] = "float"
        specs.append(Spec("%s@%s" % (name, text), job, DECIDE_COMMANDS,
                          "float", expect_verdict=verdict))
    return specs


def seeded_recover_metric(rng):
    """Small generic polynomial metric, positive definite for |x|, |y| <
    1, cheap enough to recover on a grid in a few seconds."""
    return {
        "kind": "metric",
        "E": _poly([(rng.randint(8, 11), ""), (_coef(rng), "x*y")]),
        "F": _poly([(Fraction(1, rng.choice((5, 7, 9))), "x")]),
        "G": _poly([(rng.randint(8, 11), ""), (_coef(rng), "y")]),
    }


def recover_grid(seed, committed):
    """`recover` on the committed exp(xy) job and on a seeded polynomial
    metric, on a 9 x 9 grid with 4 RK4 substeps around a float centre."""
    rng = random.Random("recover:%d" % seed)
    specs = []
    for name in COMMITTED_RECOVER:
        specs.append(Spec(name, dict(committed[name]), ("recover",), "float",
                          frozen="%s/recover" % name))
    centre = _float_point(rng)
    data = dict(seeded_recover_metric(rng), points=[centre], order=10,
                arithmetic="float", grid=dict(GRID, center=centre))
    specs.append(Spec("metric-0", data, ("recover",), "float",
                      expect_verdict=METRISABLE))
    return specs


def build(workload, seed, committed, frozen):
    if workload == "decide-exact":
        return decide_exact(seed, committed)
    if workload == "decide-float":
        return decide_float(seed, committed, frozen)
    if workload == "recover-grid":
        return recover_grid(seed, committed)
    raise ValueError("unknown workload %r" % workload)

"""Command line front end: JSON job in, deterministic JSON report out.

Subcommands:

  invariants   point invariants (L1, L2, the slope-linear invariant, nu5,
               the obstruction vector V, det M)
  check        full metrisability verdict over the sample points
  tractor      the 6x6 tractor stack: determinant, contraction cross-check,
               optional projective-change invariance block
  recover      transport a witness and reconstruct a metric on a grid
  selftest     quick internal consistency run, no input file

Exit codes: 0 metrisable (or informational command succeeded), 1 not
metrisable / degenerate / recovery refusal, 2 inconclusive, 3 bad input
or an unwritable --output path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from . import expressions as ex
from . import invariants
from . import linalg
from .expressions import ExprError, parse_expr
from .invariants import (
    MATRIX_M_ORDER,
    JetStructure,
    VERDICT_DEGENERATE,
    VERDICT_FLAT,
    VERDICT_INCONCLUSIVE,
    VERDICT_METRISABLE,
    VERDICT_NOT,
    decide_metrisability,
    matrix_M,
)
from .jets import JetError, SingularEvaluationError, to_scalar
from .model import (
    DegenerateMetricError,
    MetricInput,
    NotCubicError,
    ProjectiveStructure,
    ode_from_lambda,
    ode_from_metric,
)
from .recovery import (
    GridSpec,
    RecoveryError,
    recover_metric,
)
from .tractor import (
    STACK_ORDER,
    AffineConnection,
    det_by_contraction,
    projective_change,
    tractor_data,
    theta_bar,
    theta_values,
    change_connection,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

# Size caps on a job, checked before any jet work: the invariants cost
# about order^4 jet operations and a recovery grid n^2 substeps nodes.  In
# exact arithmetic every operation also grows with the bits of the numbers
# it multiplies, which a point or literal brings in and each factor of a
# product multiplies, so the degree of a coefficient and the bits of an
# exact numerator or denominator are capped too.  Each sample point costs
# a full analysis, so their number is capped; and a tree deeper than
# MAX_DEPTH would overflow the recursion of the walks over it.
MAX_ORDER = 16
MAX_GRID_N = 201
MAX_SUBSTEPS = 64
MAX_DEGREE = 16
MAX_EXACT_BITS = 64
MAX_POINTS = 64
MAX_DEPTH = 256

# The most digits of an exact report value's numerator or denominator;
# Python prints 4300 at most unless `sys.set_int_max_str_digits` lifts it.
MAX_DIGITS = 4000
_DIGITS_BOUND = 10 ** MAX_DIGITS


class InputError(Exception):
    pass


def to_jsonable(obj):
    if isinstance(obj, Fraction):
        if max(abs(obj.numerator), obj.denominator) >= _DIGITS_BOUND:
            raise InputError("the report holds an exact value of more than "
                             "%d digits" % MAX_DIGITS)
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _scalar_in(v, what):
    """A number or rational string of the job; JSON reads 1e400 as inf,
    so a non-finite float is refused here."""
    try:
        if isinstance(v, (int, float, str)):
            value = to_scalar(v)
            if isinstance(value, Fraction) or math.isfinite(value):
                return value
    except (ValueError, TypeError, ZeroDivisionError):
        pass
    raise InputError("%s: expected a finite number or a rational string, "
                     "got %r" % (what, v))


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _exact_in(v, what):
    """A job number that exact arithmetic may carry into every jet."""
    value = _scalar_in(v, what)
    if isinstance(value, Fraction) and _bits(value) > MAX_EXACT_BITS:
        raise InputError("%s: %r has a numerator or denominator of more "
                         "than %d bits" % (what, v, MAX_EXACT_BITS))
    return value


def _depth(t):
    """The levels of tree t, counted without recursion up to MAX_DEPTH + 1."""
    depth, level = 0, [t]
    while level and depth <= MAX_DEPTH:
        depth += 1
        level = [c for n in level for c in ex._parts(n)[1]]
    return depth


def _expr_sizes(t):
    """The degree of a tree, counting a quotient's factors like a
    product's, a function call as its argument and a power of a constant
    as its exponent, and the most bits of a literal's numerator or
    denominator."""
    if isinstance(t, ex.Num):
        return 0, _bits(t.value)
    if isinstance(t, ex.Pow):
        degree, bits = _expr_sizes(t.base)
        return abs(t.exponent) * max(degree, 1), bits
    if isinstance(t, ex.BinOp):
        (d1, b1), (d2, b2) = _expr_sizes(t.left), _expr_sizes(t.right)
        return (d1 + d2 if t.op in "*/" else max(d1, d2)), max(b1, b2)
    if isinstance(t, (ex.Neg, ex.Call)):
        return _expr_sizes(t.arg)
    return 1, 0


def _float_in(v, what):
    try:
        return float(_scalar_in(v, what))
    except OverflowError:
        raise InputError("%s: %r is out of float range" % (what, v)) from None


def _is_int(v):
    """A JSON integer: not a bool, a float or a string."""
    return isinstance(v, int) and not isinstance(v, bool)


class Job:
    def __init__(self, data):
        if not isinstance(data, dict):
            raise InputError("job file must hold a JSON object")
        self.data = data
        self.kind = data.get("kind")
        if self.kind not in ("ode", "metric", "lambda"):
            raise InputError('"kind" must be "ode", "metric", or "lambda"')
        try:
            structure = self._build_structure(data)
            self.points = self._build_points(data)
            if isinstance(structure, MetricInput):
                structure = ode_from_metric(structure,
                                            check_points=self.points)
        except (NotCubicError, DegenerateMetricError) as err:
            raise InputError(str(err)) from err
        self.structure = structure
        self.order = data.get("order", 10)
        if not _is_int(self.order) or self.order < 5:
            raise InputError('"order" must be an integer >= 5')
        if self.order > MAX_ORDER:
            raise InputError('"order" must be at most %d' % MAX_ORDER)
        self.tolerance = data.get("tolerance", 1e-9)
        if (isinstance(self.tolerance, bool)
                or not isinstance(self.tolerance, (int, float))
                or not 0 < self.tolerance < math.inf):
            raise InputError('"tolerance" must be a positive finite number')
        self.arithmetic = data.get("arithmetic", "auto")
        if self.arithmetic not in ("auto", "rational", "float"):
            raise InputError(
                '"arithmetic" must be "auto", "rational", or "float"')

    def _parse(self, src, what):
        if not isinstance(src, str):
            raise InputError("%s must be an expression string" % what)
        try:
            tree = parse_expr(src)
        except ExprError as err:
            raise InputError("%s: %s" % (what, err)) from err
        if _depth(tree) > MAX_DEPTH:
            raise InputError("%s: nested more than %d levels deep"
                             % (what, MAX_DEPTH))
        degree, bits = _expr_sizes(tree)
        if degree > MAX_DEGREE:
            raise InputError("%s: degree %d, more than %d"
                             % (what, degree, MAX_DEGREE))
        if bits > MAX_EXACT_BITS:
            raise InputError("%s: a number has a numerator or denominator "
                             "of more than %d bits" % (what, MAX_EXACT_BITS))
        return tree

    def _build_structure(self, data):
        """The structure of an ode or lambda job; a metric job's metric,
        whose ODE `__init__` derives once the points are parsed."""
        if self.kind == "ode":
            coeffs = [
                self._parse(data.get(k, "0"), k)
                for k in ("A0", "A1", "A2", "A3")
            ]
            return ProjectiveStructure(*coeffs)
        if self.kind == "metric":
            for k in ("E", "G"):
                if k not in data:
                    raise InputError(
                        'metric jobs need "E" and "G" (and optional "F")')
            return MetricInput(
                self._parse(data["E"], "E"),
                self._parse(data.get("F", "0"), "F"),
                self._parse(data["G"], "G"),
            )
        coeffs = data.get("p_coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise InputError('lambda jobs need a non-empty "p_coeffs" list')
        return ode_from_lambda([
            self._parse(c, "p_coeffs[%d]" % i) if isinstance(c, str)
            else ex.num(_exact_in(c, "p_coeffs[%d]" % i))
            for i, c in enumerate(coeffs)
        ])

    def _build_points(self, data):
        pts = data.get("points")
        if not isinstance(pts, list) or not pts:
            raise InputError('"points" must be a non-empty list of [x, y]')
        if len(pts) > MAX_POINTS:
            raise InputError('"points" holds more than %d points' % MAX_POINTS)
        out = []
        for p in pts:
            if not isinstance(p, list) or len(p) != 2:
                raise InputError("each point must be a two-element list")
            out.append((
                _exact_in(p[0], "point x"),
                _exact_in(p[1], "point y"),
            ))
        return out


def load_job(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError("cannot read %s: %s" % (path, err)) from err
    except ValueError as err:  # also bytes not UTF-8, or a huge integer
        raise InputError("invalid JSON in %s: %s" % (path, err)) from err
    return Job(data)


def _verdict_exit(verdict):
    if verdict in (VERDICT_METRISABLE, VERDICT_FLAT):
        return EXIT_OK
    if verdict in (VERDICT_NOT, VERDICT_DEGENERATE):
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def cmd_invariants(job, mode):
    slope = _exact_in(job.data.get("slope", 0), "slope")
    points = []
    for p in job.points:
        # every value is a constant term
        r = invariants.analyze_point(job.structure, p, MATRIX_M_ORDER,
                                     job.tolerance, mode)
        points.append({
            "point": [p[0], p[1]],
            "mode": r.mode,
            "L1": r.l1,
            "L2": r.l2,
            "I1_coeffs": r.i1_coeffs,
            "I1_at_slope": r.i1_coeffs[0] + r.i1_coeffs[1] * slope,
            "nu5": r.nu5,
            "V": r.v_row,
            "det_M": r.det_m,
        })
    report = {
        "command": "invariants",
        "order": job.order,
        "slope": slope,
        "points": points,
    }
    return report, EXIT_OK


def cmd_check(job, mode):
    rep = decide_metrisability(
        job.structure, job.points, job.order, job.tolerance, mode
    )
    report = {"command": "check", "report": rep}
    return report, _verdict_exit(rep.verdict)


def cmd_tractor(job, mode):
    change = job.data.get("change")
    f_expr = None if change is None else job._parse(change, '"change"')
    points = []
    for p in job.points:
        js = JetStructure.at(job.structure, p, STACK_ORDER, mode)
        conn = AffineConnection.from_structure(js)
        # at STACK_ORDER the stack holds the values themselves
        theta = theta_bar(tractor_data(conn))
        det_direct = linalg.det(theta)
        contraction = det_by_contraction(theta)
        entry = {
            "point": [p[0], p[1]],
            "mode": "exact" if js.exact else "float",
            "det_M": linalg.rank_kernel(matrix_M(js), job.tolerance).det,
            "det_theta": det_direct,
            "D": det_direct / 4320,
            "contraction": contraction,
            "contraction_agrees": _close(contraction, det_direct),
        }
        if f_expr is not None:
            entry["change"] = _change_block(conn, theta, det_direct,
                                            f_expr, p)
        points.append(entry)
    report = {"command": "tractor", "order": job.order, "points": points}
    return report, EXIT_OK


def _change_block(conn, theta, det_theta, f_expr, point):
    # omega's values are read from order-0 jets, so they round as eval_jet
    # rounds, not as eval_scalar does
    df = [ex.differentiate(f_expr, v) for v in "xy"]
    kind = ex.choose_arithmetic(df, point,
                                "auto" if conn.s.exact else "float")
    memo = {}
    wx, wy = (ex.eval_jet(t, point, 0, kind, memo).value for t in df)
    theta_a = projective_change(theta, (wx, wy))
    det_a = linalg.det(theta_a)

    # omega costs f one derivative
    f_jet = ex.eval_jet(f_expr, point, conn.order + 1, "float")
    theta_b = theta_bar(tractor_data(change_connection(conn, f_jet)))
    det_b = linalg.det(theta_b)
    fval = float(ex.eval_scalar(f_expr, point[0], point[1]))
    # below the normal range the recomputed determinant, which carries the
    # scale, underflows with it and the invariance check compares 0 with 0
    try:
        scale = math.exp(-18.0 * fval)
    except OverflowError:
        scale = math.inf
    if not sys.float_info.min <= scale < math.inf:
        raise SingularEvaluationError(
            "the change's scale exp(-18 f) leaves the float range", point)
    return {
        "f": ex.to_string(f_expr),
        "det_after_ops": det_a,
        "det_ops_equals_original": _close(det_a, det_theta),
        "det_recomputed": det_b,
        "scale": scale,
        "invariance_agrees": _close(det_b, float(det_a) * scale),
    }


def _close(a, b):
    """Fractions agree only when equal; anything else within 1e-9 of the
    larger magnitude, or of 1."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    ref = max(1.0, abs(float(a)), abs(float(b)))
    return abs(float(a) - float(b)) <= 1e-9 * ref


def _grid_in(job):
    gspec = job.data.get("grid", {})
    if not isinstance(gspec, dict):
        raise InputError('"grid" must be an object')
    center = gspec.get("center")
    if center is None:
        center = [float(job.points[0][0]), float(job.points[0][1])]
    if not isinstance(center, list) or len(center) != 2:
        raise InputError('"grid.center" must be [x, y]')
    n = gspec.get("n", 9)
    substeps = gspec.get("substeps", 4)
    if not (_is_int(n) and _is_int(substeps)):
        raise InputError('"grid.n" and "grid.substeps" must be integers')
    grid = GridSpec(
        center=(_float_in(center[0], "grid.center"),
                _float_in(center[1], "grid.center")),
        h=_float_in(gspec.get("h", 0.1), "grid.h"),
        n=n,
        substeps=substeps,
    )
    if grid.n < 2 or grid.substeps < 1 or not grid.h > 0:
        raise InputError("grid needs n >= 2, substeps >= 1, h > 0")
    if grid.n > MAX_GRID_N or grid.substeps > MAX_SUBSTEPS:
        raise InputError("grid needs n <= %d and substeps <= %d"
                         % (MAX_GRID_N, MAX_SUBSTEPS))
    return grid


def _centre_witness(job, rep, centre):
    """The kernel witness at the grid centre: from the report of the sample
    point there, or from analysing the centre, a float point, in floats
    when no sample point is."""
    at = next((r for r in rep.points
               if (float(r.point[0]), float(r.point[1])) == centre), None)
    if at is None:
        at = invariants.analyze_point(job.structure, centre, job.order,
                                      job.tolerance, "float")
    if at.witness is None:
        # flat below order 8: every vector is parallel, pick a definite one
        return (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return at.witness


def _witness_in(job):
    witness = job.data.get("witness")
    if witness is None:
        return None
    if not isinstance(witness, list) or len(witness) != 6:
        raise InputError('"witness" must be a list of six numbers')
    return tuple(_float_in(v, "witness") for v in witness)


def cmd_recover(job, mode):
    grid = _grid_in(job)
    witness = _witness_in(job)
    rep = decide_metrisability(
        job.structure, job.points, job.order, job.tolerance, mode
    )
    code = _verdict_exit(rep.verdict)
    if code != EXIT_OK:
        return {
            "command": "recover",
            "verdict": rep.verdict,
            "refused": True,
            "reason": "structure is not metrisable at the sample points"
            if code == EXIT_NEGATIVE else "verdict inconclusive",
        }, code

    if witness is None:
        witness = _centre_witness(job, rep, grid.center)

    try:
        result = recover_metric(job.structure, witness, grid)
    except RecoveryError as err:
        return {
            "command": "recover",
            "verdict": rep.verdict,
            "refused": True,
            "reason": str(err),
        }, EXIT_NEGATIVE

    nodes = [
        {
            "node": [k[0], k[1]],
            "point": list(result.section.grid.point(*k)),
            "E": v[0], "F": v[1], "G": v[2],
            "delta": v[3],
            "signature": v[4],
        }
        for k, v in sorted(result.metric.nodes.items())
    ]
    report = {
        "command": "recover",
        "verdict": rep.verdict,
        "witness": list(witness),
        "grid": {
            "center": list(grid.center), "h": grid.h, "n": grid.n,
            "substeps": grid.substeps,
        },
        "transport_defect": result.section.defect,
        "roundtrip_residual": result.residual,
        "signature": result.metric.signature,
        "excluded_nodes": [list(k) for k in result.metric.excluded],
        "nodes": nodes,
    }
    return report, EXIT_OK


def cmd_selftest(_job, _mode):
    import random  # here, so that no other command loads it

    rng = random.Random(20240811)
    checks = 0

    # flat structure: everything vanishes
    flat = ProjectiveStructure.flat()
    js = JetStructure.at(flat, (0, 0), 8)
    l1, l2 = js.liouville()
    assert l1.is_zero() and l2.is_zero()
    assert linalg.det(matrix_M(js)) == 0
    checks += 1

    # the canonical degenerate example: rank facts and kernel vector
    pain = ProjectiveStructure.from_exprs("6*y^2+x", "0", "0", "0")
    repp = invariants.analyze_point(pain, (0, 0), order=10)
    assert repp.l1 == -12 and repp.l2 == 0
    assert repp.rank_m == 3 and repp.det_m == 0
    assert repp.verdict == VERDICT_DEGENERATE
    checks += 1

    # contraction equals the determinant on a random exact stack
    mat = [[Fraction(rng.randint(-9, 9)) for _ in range(6)]
           for _ in range(6)]
    mat[0][0] = Fraction(0)
    assert det_by_contraction(mat) == linalg.det(mat)
    checks += 1

    # tractor determinant vanishes with det M on a polynomial structure
    poly = ProjectiveStructure.from_exprs("x^2+y", "y^2", "x*y", "x+1")
    js = JetStructure.at(poly, (1, 1), 10)
    td = tractor_data(AffineConnection.from_structure(js))
    vals = theta_values(theta_bar(td))
    detm = linalg.det(matrix_M(js))
    dett = linalg.det(vals)
    assert (detm == 0) == (dett == 0)
    checks += 1

    return {"command": "selftest", "status": "ok", "checks": checks}, EXIT_OK


COMMANDS = {
    "invariants": cmd_invariants,
    "check": cmd_check,
    "tractor": cmd_tractor,
    "recover": cmd_recover,
    "selftest": cmd_selftest,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="projmet",
        description="Decide metrisability of a plane projective structure "
                    "and reconstruct compatible metrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("invariants", "point invariants and det M"),
        ("check", "metrisability verdict over sample points"),
        ("tractor", "tractor-stack cross-check"),
        ("recover", "reconstruct a metric on a grid"),
        ("selftest", "internal consistency checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "selftest":
            p.add_argument("--input", required=True,
                           help="JSON job description")
        p.add_argument("--output", help="write the report here instead of "
                                        "stdout")
        p.add_argument("--mode", choices=("auto", "rational", "float"),
                       help="override the job's arithmetic mode")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    job = None
    try:
        job = load_job(args.input) if getattr(args, "input", None) else None
        mode = args.mode or (job.arithmetic if job else "auto")
        report, code = COMMANDS[args.command](job, mode)
        report = to_jsonable(report)  # it may refuse a value
    except (InputError, ExprError, JetError) as err:
        report, code = {"error": str(err)}, EXIT_INPUT
    report["version"] = __version__
    if job is not None:
        report["input"] = job.data
    if args.timing:
        report["timing_seconds"] = round(time.perf_counter() - started, 6)
    text = json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as err:
            error = "cannot write %s: %s" % (args.output, err.strerror or err)
            text = json.dumps({"error": error, "version": __version__},
                              indent=2, sort_keys=True) + "\n"
            code = EXIT_INPUT
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

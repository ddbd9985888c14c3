"""Correctness checks on every command output, run outside the timed region.

Two kinds:

* the gate: for the committed `inputs/*.json` jobs, the fields `frozen_fields`
  extracts must equal the values frozen in `frozen.json` from the seed
  commit (verdicts, exit codes, ranks, S, Cartan ranks, exact determinants,
  the tractor agreement flags);
* oracles, for every job: identities that hold whatever the input (exit code
  matches verdict, S in {0, 1, 2, 3, 4, 6}, the tractor determinant vanishes
  exactly when det M does, contraction equals the direct determinant, the
  three commands agree on det M, exact verdicts match how the structure was
  built, recovery defect and residual within bounds).

A violated check is a failure.  Float-mode answers on dilated structures are
not gated, nor is the one float comparison of an exact `tractor` run
(`invariance_agrees`): how often they end Inconclusive, contradict the exact
verdict, or flip a float tractor flag is counted and reported instead (see
NOTES.md).
"""

from __future__ import annotations

import math
from fractions import Fraction

S_VALUES = (0, 1, 2, 3, 4, 6)
DEFECT_BOUND = 1e-7
RESIDUAL_BOUND = 1e-6

VERDICT_EXIT = {
    "Metrisable": 0, "MetrisableFlat": 0,
    "NotMetrisable": 1, "DegenerateKernel": 1,
    "Inconclusive": 2,
}


def frozen_fields(command, payload, code, exact):
    """The fields of one command's JSON report that the gate freezes.
    Exact determinants are kept only in exact mode."""
    out = {"exit_code": code}
    if command == "check":
        rep = payload["report"]
        out["verdict"] = rep["verdict"]
        out["points"] = [
            dict({"rank_m": p["rank_m"], "rank_mmax": p["rank_mmax"],
                  "s_dim": p["s_dim"], "cartan_ranks": p["cartan_ranks"]},
                 **({"det_m": p["det_m"]} if exact else {}))
            for p in rep["points"]
        ]
    elif command == "invariants":
        out["points"] = [{"det_M": p["det_M"]} if exact else {}
                         for p in payload["points"]]
    elif command == "tractor":
        out["points"] = [
            dict({"contraction_agrees": p["contraction_agrees"],
                  "invariance_agrees": p["change"]["invariance_agrees"]},
                 **({"det_M": p["det_M"], "det_theta": p["det_theta"]}
                    if exact else {}))
            for p in payload["points"]
        ]
    elif command == "recover":
        out["verdict"] = payload["verdict"]
        out["signature"] = payload.get("signature")
    return out


def _diff(path, want, got, out):
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            _diff("%s.%s" % (path, k), want.get(k), got.get(k), out)
    elif isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _diff("%s[%d]" % (path, i), w, g, out)
    elif want != got:
        out.append("%s: frozen %r, got %r" % (path, want, got))


class Tally:
    """Float-mode agreement counts over a run."""

    def __init__(self):
        self.float_checks = 0
        self.inconclusive = 0
        self.contradiction = 0
        self.float_flags = 0
        self.float_flags_false = 0

    def fracs(self):
        def frac(a, b):
            return a / b if b else 0.0
        return {
            "inconclusive_frac": frac(self.inconclusive, self.float_checks),
            "contradiction_frac": frac(self.contradiction,
                                       self.float_checks),
            "float_flag_fail_frac": frac(self.float_flags_false,
                                         self.float_flags),
        }


class Checker:
    def __init__(self, frozen):
        self.frozen = frozen
        self.tally = Tally()
        self._det_m = {}       # spec name -> det M per point, this pass

    def new_pass(self):
        self._det_m = {}

    def problems(self, spec, command, payload, code):
        """Every violated check for one command output (empty when all
        hold)."""
        out = []
        exact = spec.mode == "rational"
        if spec.frozen is not None:
            want = self.frozen.get(spec.frozen, {}).get(command)
            if want is None:
                out.append("no frozen values for %s %s"
                           % (spec.frozen, command))
            else:
                _diff(command, want,
                      frozen_fields(command, payload, code, exact), out)
        getattr(self, "_" + command)(spec, payload, code, exact, out)
        return out

    def _check(self, spec, payload, code, exact, out):
        rep = payload["report"]
        verdict = rep["verdict"]
        if VERDICT_EXIT.get(verdict) != code:
            out.append("exit code %r for verdict %r" % (code, verdict))
        for p in rep["points"]:
            s = p["s_dim"]
            if s not in S_VALUES and not (s is None and not exact):
                out.append("S = %r" % (s,))
        if exact:
            self._det_m[spec.name] = [p["det_m"] for p in rep["points"]]
            if spec.expect_verdict and verdict != spec.expect_verdict:
                out.append("exact verdict %s, structure is %s"
                           % (verdict, spec.expect_verdict))
            if spec.expect_rank_m is not None and any(
                    p["rank_m"] != spec.expect_rank_m for p in rep["points"]):
                out.append("rank M %r, expected %d"
                           % ([p["rank_m"] for p in rep["points"]],
                              spec.expect_rank_m))
        elif spec.expect_verdict:
            t = self.tally
            t.float_checks += 1
            if verdict == "Inconclusive":
                t.inconclusive += 1
            elif verdict != spec.expect_verdict:
                t.contradiction += 1

    def _same_det_m(self, spec, dets, out, what):
        want = self._det_m.get(spec.name)
        if want is not None and want != dets:
            out.append("%s det M %r differs from check's %r"
                       % (what, dets, want))

    def _invariants(self, spec, payload, code, exact, out):
        if code != 0:
            out.append("invariants exit code %r" % (code,))
        if exact:
            self._same_det_m(spec, [p["det_M"] for p in payload["points"]],
                             out, "invariants")

    def _tractor(self, spec, payload, code, exact, out):
        if code != 0:
            out.append("tractor exit code %r" % (code,))
        points = payload["points"]
        for p in points:
            flags = (p["contraction_agrees"],
                     p["change"]["invariance_agrees"],
                     p["change"]["det_ops_equals_original"])
            if exact:
                det_theta = Fraction(p["det_theta"])
                if Fraction(p["contraction"]) != det_theta:
                    out.append("contraction %s != det theta %s"
                               % (p["contraction"], p["det_theta"]))
                if (det_theta == 0) != (Fraction(p["det_M"]) == 0):
                    out.append("det theta %s and det M %s disagree on zero"
                               % (p["det_theta"], p["det_M"]))
                if not (flags[0] and flags[2]):
                    out.append("exact tractor flags %r" % (flags,))
                # invariance_agrees compares a float recomputation even in
                # exact mode, so it is a float-tolerance flag like the rest.
                flags = flags[1:2]
            if spec.frozen is None:
                self.tally.float_flags += len(flags)
                self.tally.float_flags_false += flags.count(False)
        if exact:
            self._same_det_m(spec, [p["det_M"] for p in points], out,
                             "tractor")

    def _recover(self, spec, payload, code, exact, out):
        if code != 0 or payload.get("refused"):
            out.append("recover refused (exit %r): %s"
                       % (code, payload.get("reason")))
            return
        if payload["verdict"] not in ("Metrisable", "MetrisableFlat"):
            out.append("recover verdict %r" % payload["verdict"])
        defect = payload["transport_defect"]
        if not (isinstance(defect, float) and defect <= DEFECT_BOUND):
            out.append("transport defect %r exceeds %g"
                       % (defect, DEFECT_BOUND))
        res = payload["roundtrip_residual"]
        if not (isinstance(res, float) and math.isfinite(res)
                and res <= RESIDUAL_BOUND):
            out.append("round-trip residual %r exceeds %g"
                       % (res, RESIDUAL_BOUND))
        if payload["signature"] == "mixed":
            out.append("recovered metric has mixed signature")

"""Sound check of a query's output against the reference frozen for it.

Both the reference and a later answer are certified, so they must agree
wherever both are definite; a later answer may be tighter.  ``problems``
returns why an output fails, or an empty list.  A honest outcome (the
library declined to certify) on either side leaves nothing to compare.
Integer answers with no enclosure (extension indices, witness cut indices)
are not compared with the reference, since a tighter certificate may move
them; they still change the output fingerprint.
"""

from __future__ import annotations

import math

from workloads import TOL

CYCLE_TOL = 1e-6

# definite classify verdicts that can hold for one point at once: an endpoint
# (within tol) may also be certified escaping, or sit on an exact cycle
_COMPATIBLE = {frozenset(("endpoint", "escape_certified")),
               frozenset(("endpoint", "non_escaping"))}


def _num(x) -> float:
    return {"inf": math.inf, "-inf": -math.inf}.get(x, x) if isinstance(x, str) else float(x)


def overlaps(a: dict, b: dict) -> bool:
    """Whether two serialized intervals share a point."""
    alo, ahi, blo, bhi = _num(a["lo"]), _num(a["hi"]), _num(b["lo"]), _num(b["hi"])
    lo = max(alo, blo)
    lo_open = (alo == lo and a["lo_open"]) or (blo == lo and b["lo_open"])
    hi = min(ahi, bhi)
    hi_open = (ahi == hi and a["hi_open"]) or (bhi == hi and b["hi_open"])
    return lo < hi or (lo == hi and not lo_open and not hi_open)


def width(a: dict) -> float:
    return _num(a["hi"]) - _num(a["lo"])


def _interval(out: dict, ref: dict, key: str, what: str) -> list[str]:
    return [] if overlaps(out[key], ref[key]) else [f"{what} misses the reference enclosure"]


def _classify(out: dict, ref: dict) -> list[str]:
    v, r = out["verdict"], ref["verdict"]
    if "unknown" in (v, r) or v == r:
        if v == r == "endpoint":
            return _interval(out, ref, "evidence", "endpoint evidence")
        return []
    if frozenset((v, r)) in _COMPATIBLE:
        return []
    return [f"verdict {v} contradicts reference {r}"]


def _strata(q: dict, out: dict, ref: dict) -> list[str]:
    errs = []
    if {out["member"], ref["member"]} == {"true", "false"}:
        errs.append(f"membership {out['member']} contradicts reference {ref['member']}")
    ext = out.get("extension")
    if ext is not None and ext <= (q["alpha"][-1] if q["alpha"] else -1):
        errs.append(f"extension {ext} does not extend the index {q['alpha']}")
    return errs


def _witness(q: dict, out: dict, ref: dict) -> list[str]:
    reports = out["reports"]
    if len(reports) != q["count"]:
        return [f"{len(reports)} witnesses for count {q['count']}"]
    bound = 3.0 * len(q["alpha"])
    errs = []
    last_m, last_d = -1, math.inf
    by_cut = {(r["m"], repr(r["witness"])): r for r in ref["reports"]}
    for rep in reports:
        c1, c2 = rep["claim1_margin"], rep["claim2_bound"]
        if not _num(c2["hi"]) <= bound:
            errs.append(f"claim two {c2} above {bound}")
        c1_lo = _num(c1["lo"])
        if not (c1_lo > bound - 1.0 or (c1_lo == bound - 1.0 and c1["lo_open"])):
            errs.append(f"claim one {c1} not above {bound - 1.0}")
        if rep["m"] <= last_m or rep["distance"] >= last_d:
            errs.append("cut indices must rise and distances fall")
        last_m, last_d = rep["m"], rep["distance"]
        same = by_cut.get((rep["m"], repr(rep["witness"])))
        if same is not None:
            for key in ("claim1_margin", "claim2_bound", "height"):
                errs += _interval(rep, same, key, f"witness {key}")
    return errs


def _cycle(out: dict, ref: dict) -> list[str]:
    if out["kind"] != ref["kind"] or out["period"] != ref["period"]:
        return [f"cycle {out['kind']}/{out['period']} differs from {ref['kind']}/{ref['period']}"]
    far = [p for p, r in zip(out["points"], ref["points"])
           if abs(complex(*p) - complex(*r)) > CYCLE_TOL]
    return [f"cycle points moved: {far}"] if far else []


def problems(q: dict, out: dict) -> list[str]:
    """Reasons the output of query ``q`` fails the reference check (empty when it passes)."""
    ref = q["ref"]
    if "honest" in out or "honest" in ref:
        return []
    op = q["op"]
    try:
        if op == "tstar":
            return _interval(out, ref, "tstar", "potential")
        if op == "tmin":
            errs = _interval(out, ref, "tmin", "endpoint height")
            if out["converged"] and not width(out["tmin"]) <= TOL:
                errs.append(f"converged endpoint height wider than tol {TOL}")
            return errs
        if op == "classify":
            return _classify(out, ref)
        if op == "strata":
            return _strata(q, out, ref)
        if op == "witness":
            return _witness(q, out, ref)
        if op == "render":
            return [] if out["hash"] == ref["hash"] else ["render sha256 differs from the reference"]
        if op == "cycle":
            return _cycle(out, ref)
    except (KeyError, TypeError, ValueError) as e:
        return [f"malformed output: {e!r}"]
    return [f"unknown op {op!r}"]

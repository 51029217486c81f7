"""Per-layer metrics: span wrappers, interval and entry microbenchmarks, derivation.

Layers are the modules of ``src/expbouquet``: intervals, sequences, model,
strata, plane and cli (import, cold start, JSON emission).  ``verify`` is
left out: no user workload runs the self-check suite.
"""

from __future__ import annotations

import operator
import random
import statistics
import time
from fractions import Fraction

from spans import Tracer

CLASSES = ("attracting", "parabolic", "repelling")

# (name, unit, better); every traced run reports each of them, 0 where the
# workload never reaches the layer
PER_LAYER = [
    ("intervals.add_ns", "ns", "lower"),
    ("intervals.ln1p_ns", "ns", "lower"),
    ("intervals.growth_ns", "ns", "lower"),
    ("intervals.from_fraction_ns", "ns", "lower"),
    ("sequences.from_json.busy_s", "s", "lower"),
    ("sequences.from_json.calls", "count", "lower"),
    ("sequences.entry_us", "us", "lower"),
    ("model.potential.calls", "count", "lower"),
    ("model.potential.busy_s", "s", "lower"),
    ("model.endpoint_height.calls", "count", "lower"),
    ("model.endpoint_height.busy_s", "s", "lower"),
    ("model.endpoint_height.nonconverged", "count", "lower"),
    ("model.classify.calls", "count", "lower"),
    ("model.classify.busy_s", "s", "lower"),
    ("model.classify.unknown", "count", "lower"),
    ("strata.in_stratum.busy_s", "s", "lower"),
    ("strata.in_stratum.unknown", "count", "lower"),
    ("strata.extension_index.busy_s", "s", "lower"),
    ("strata.witness_family.busy_s", "s", "lower"),
    ("strata.witness_family.failed", "count", "lower"),
    ("strata.witness_family.reports", "count", "higher"),
    *[(f"plane.escape_times.{c}.busy_s", "s", "lower") for c in CLASSES],
    *[(f"plane.retained_share.{c}", "share", "lower") for c in CLASSES],
    ("plane.pixel_iters", "count", "lower"),
    ("plane.ns_per_pixel_iter", "ns", "lower"),
    ("plane.encode.busy_s", "s", "lower"),
    ("plane.find_cycle.busy_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("cli.cold_start_s.tstar", "s", "lower"),
    ("cli.cold_start_s.tmin", "s", "lower"),
    ("cli.cold_start_s.render", "s", "lower"),
    ("cli.emit_us", "us", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def _escape_stats(times, args) -> dict:
    max_iter = args[2]
    return {"pixel_iters": int(times.sum()), "retained": int((times == max_iter).sum()),
            "pixels": int(times.size)}


def install(tracer: Tracer, api) -> None:
    """Wrap the public functions each workload's queries call."""
    m, st, pl = api.model, api.strata, api.plane
    tracer.wrap(api.sequences.SymbolSeq, "from_json", "sequences.from_json")
    tracer.wrap(m, "potential", "model.potential")
    tracer.wrap(m, "endpoint_height", "model.endpoint_height")
    tracer.wrap(m, "classify", "model.classify", lambda r, a: {"verdict": r.verdict.value})
    tracer.wrap(st, "in_stratum", "strata.in_stratum", lambda r, a: {"label": r.label()})
    tracer.wrap(st, "extension_index", "strata.extension_index")
    tracer.wrap(st, "witness_family", "strata.witness_family", lambda r, a: {"reports": len(r)})
    tracer.wrap(pl, "escape_times", "plane.escape_times", _escape_stats)
    tracer.wrap(pl, "render_escape", "plane.render_escape")
    tracer.wrap(pl, "find_cycle", "plane.find_cycle")


# -- microbenchmarks ---------------------------------------------------------


def _ns_per_item(fn, *operands, repeats: int = 5) -> float:
    """Median over repeats of ns per element of ``map(fn, *operands)``."""
    n = len(operands[0])
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in map(fn, *operands):
            pass
        runs.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(runs)


def interval_ns(api, seed: int, n: int = 2000) -> dict:
    """ns per Interval add, ln1p, growth and from_fraction on workload-like operands.

    Operands: enclosures from 1e-3 to 1e3 (nesting states and entries),
    growth arguments in [0, 5] (heights), and ramp arguments k/q with
    q in [20, 500].
    """
    Interval = api.intervals.Interval
    rng = random.Random(seed)

    def iv(lo):
        return Interval(lo, lo * (1.0 + rng.uniform(0.0, 1e-12)))

    a = [iv(10 ** rng.uniform(-3, 3)) for _ in range(n)]
    b = [iv(10 ** rng.uniform(-3, 3)) for _ in range(n)]
    g = [iv(rng.uniform(1e-3, 5.0)) for _ in range(n)]
    fr = []
    for _ in range(n):
        q = rng.randint(20, 500)
        fr.append(Fraction(rng.randint(q, 80 * q), q))
    return {
        "intervals.add_ns": _ns_per_item(operator.add, a, b),
        "intervals.ln1p_ns": _ns_per_item(Interval.ln1p, a),
        "intervals.growth_ns": _ns_per_item(Interval.growth, g),
        "intervals.from_fraction_ns": _ns_per_item(Interval.from_fraction, fr),
    }


def nesting_levels(api, seq) -> int:
    """The level ``endpoint_height`` starts its backward nesting from.

    Constant and periodic tails start at the prefix end, tower tails where
    the tower passes TOWER_PIN, ramp tails where the ramp argument reaches
    PIN_ARG; the nesting then walks every level down to 1.
    """
    ivs, seqs = api.intervals, api.sequences
    tail, p = seq.tail, len(seq.prefix)
    if isinstance(tail, seqs.ExpTowerTail):
        anchor, g = tail.resolved_anchor(p), 1
        while ivs.growth_net(tail.c, g + 1).lo < ivs.TOWER_PIN:
            g += 1
        return max(p - 1, anchor + g, 0)
    if isinstance(tail, seqs.LinExpTail):
        n = max(p, 1)
        while tail.arg(n) < api.model.PIN_ARG:
            n += 1
        return n - 1
    return p


def entry_us(api, descriptors: list, max_seqs: int = 12, max_levels: int = 2000) -> float:
    """µs per ``SymbolSeq.entry(n)`` over the levels each query's nesting walks."""
    total_ns, count = 0, 0
    for desc in descriptors[:max_seqs]:
        seq = api.sequences.SymbolSeq.from_json(desc)
        top = nesting_levels(api, seq)
        levels = range(1, top + 1, max(1, top // max_levels))
        t0 = time.perf_counter_ns()
        for n in levels:
            seq.entry(n)
        total_ns += time.perf_counter_ns() - t0
        count += len(levels)
    return total_ns / count / 1e3 if count else 0.0


# -- derivation from spans ---------------------------------------------------


def from_spans(tracer: Tracer, queries: list) -> dict:
    """Per-layer metrics read off the traced run's spans."""
    summary = tracer.summary()

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def count(name, pred):
        return sum(1 for s in tracer.spans if s[0] == name and pred(s[5] or {}))

    def attr_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in tracer.spans if s[0] == name)

    out = {
        "sequences.from_json.busy_s": stat("sequences.from_json", "busy_s"),
        "sequences.from_json.calls": stat("sequences.from_json", "calls"),
        "model.endpoint_height.nonconverged": count(
            "model.endpoint_height", lambda a: a.get("error") == "NonConvergenceError"),
        "model.classify.unknown": count("model.classify", lambda a: a.get("verdict") == "unknown"),
        "strata.in_stratum.busy_s": stat("strata.in_stratum", "busy_s"),
        "strata.in_stratum.unknown": count("strata.in_stratum", lambda a: a.get("label") == "unknown"),
        "strata.extension_index.busy_s": stat("strata.extension_index", "busy_s"),
        "strata.witness_family.busy_s": stat("strata.witness_family", "busy_s"),
        "strata.witness_family.failed": count("strata.witness_family", lambda a: "error" in a),
        "strata.witness_family.reports": attr_sum("strata.witness_family", "reports"),
        "plane.find_cycle.busy_s": stat("plane.find_cycle", "busy_s"),
    }
    for fn in ("potential", "endpoint_height", "classify"):
        out[f"model.{fn}.calls"] = stat(f"model.{fn}", "calls")
        out[f"model.{fn}.busy_s"] = stat(f"model.{fn}", "busy_s")

    for c in CLASSES:
        mine = [s for s in tracer.spans
                if s[0] == "plane.escape_times" and queries[s[4]].get("class") == c]
        pixels = sum(s[5]["pixels"] for s in mine)
        out[f"plane.escape_times.{c}.busy_s"] = sum(s[2] - s[1] for s in mine) / 1e9
        out[f"plane.retained_share.{c}"] = (
            sum(s[5]["retained"] for s in mine) / pixels if pixels else 0.0)
    iters = attr_sum("plane.escape_times", "pixel_iters")
    esc_busy = stat("plane.escape_times", "busy_s")
    out["plane.pixel_iters"] = iters
    out["plane.ns_per_pixel_iter"] = esc_busy * 1e9 / iters if iters else 0.0
    out["plane.encode.busy_s"] = stat("plane.render_escape", "busy_s") - esc_busy
    emits = stat("cli.emit", "calls")
    out["cli.emit_us"] = stat("cli.emit", "busy_s") * 1e6 / emits if emits else 0.0
    return out

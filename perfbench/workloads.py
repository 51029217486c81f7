"""Workload pools, seeded query streams and the CLI-equivalent query chain.

Each workload is a frozen pool of queries grouped into cells (one cell per
kind of query the workload mixes), stored with its reference output in
``reference/<workload>.json``.  A run draws a stream from the pool: round
after round, each cell contributes its weight in queries, taken from a
seed-permuted cycle of the cell's instances, in a seed-shuffled order.
Because every round holds the same mix, metrics depend little on the
seed; the seed still decides which inputs run and in which order.

A query is what one ``expbouquet`` invocation does, minus argparse and
printing: ``SymbolSeq.from_json``, the library call, then ``to_json`` and
``json.dumps``.  Functions are looked up on their modules at call time so
that a tracer can wrap them.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import speed

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# CLI defaults: --tol and --budget; classify caps its budget at 4096.
TOL = 1e-9
BUDGET = 100000
CLASSIFY_BUDGET = 4096
TILE_PX = 200

# seconds one round's queries take at the reference commit, at the speed
# gauge's reference speed (see speed.py); a run does the whole rounds that
# fill the part of --seconds the gauge leaves, so every run of a workload
# has the same number of queries (a faster program finishes sooner) and the
# tail percentile stays put
ROUND_SECONDS = {"certify": 0.27, "ramp": 10.0, "render": 1.5}
# rounds in one cycle of the workload's costliest cell (24 witness queries;
# 6 viewports per render cell); a run of at least one cycle does whole
# cycles, so which costly queries it holds does not depend on the seed
CYCLE = {"certify": 24, "ramp": 1, "render": 6}
# rounds of the stream that one traced run replays (untraced, then traced)
TRACE_ROUNDS = {"certify": 20, "ramp": 1, "render": 3}
# rounds of other workloads a traced run adds, so that every layer is
# measured in every run: plane for certify and ramp, extension and witness
# search for ramp, the model side for render
COMPLEMENT = {"certify": [("render", 1)], "ramp": [("render", 1), ("certify", 2)],
              "render": [("certify", 2)]}


def load(name: str) -> dict:
    """The frozen pool of a workload: {"cells": {cell: {"weight", "queries"}}, ...}."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        raise SystemExit(f"unknown workload {name!r}: no {path.name} in {REFERENCE_DIR}")
    with open(path) as fh:
        return json.load(fh)


def rounds_for(name: str, seconds: float) -> int:
    n = max(1, round(seconds * (1.0 - speed.SHARE) / ROUND_SECONDS[name]))
    return n if n < CYCLE[name] else n - n % CYCLE[name]


def take(pool: dict, seed: int, n_rounds: int) -> list:
    """The queries of the first ``n_rounds`` rounds of the stream."""
    return [q for batch in itertools.islice(rounds(pool, seed), n_rounds) for q in batch]


def rounds(pool: dict, seed: int):
    """Endless seeded stream of rounds; each round is a list of queries."""
    rng = random.Random(seed)
    cells = sorted(pool["cells"])
    orders = {}
    for c in cells:
        idx = list(range(len(pool["cells"][c]["queries"])))
        rng.shuffle(idx)
        orders[c] = idx
    drawn = {c: 0 for c in cells}
    while True:
        batch = []
        for c in cells:
            cell = pool["cells"][c]
            for _ in range(cell["weight"]):
                order = orders[c]
                batch.append(cell["queries"][order[drawn[c] % len(order)]])
                drawn[c] += 1
        rng.shuffle(batch)
        yield batch


class Api:
    """The expbouquet modules a query calls, imported once from the checkout."""

    def __init__(self, out_dir: Path):
        from expbouquet import intervals, model, plane, sequences, strata

        self.intervals, self.sequences, self.model = intervals, sequences, model
        self.strata, self.plane = strata, plane
        # documented honest outcomes: an answer the library declines to certify
        self.honest = (model.NonConvergenceError, model.BudgetExceededError,
                       strata.IncomparableTailsError, plane.NoConvergenceError)
        self.tile_path = str(out_dir / "tile.ppm")


def _call(api: Api, q: dict):
    """The library part of a query; returns (result object, certified)."""
    op = q["op"]
    m, st, pl = api.model, api.strata, api.plane
    if op in ("render", "cycle"):
        a = complex(*q["a"])
        if op == "render":
            vp = pl.Viewport(*q["viewport"], TILE_PX, TILE_PX)
            return pl.render_escape(a, vp, q["max_iter"], api.tile_path), True
        return pl.find_cycle(a, q["period"], complex(*q["seed"])), True

    seq = api.sequences.SymbolSeq.from_json(q["seq"])
    if op == "tstar":
        return (m.potential(seq, q["shift"]), q["shift"]), True
    if op == "tmin":
        try:
            return (m.endpoint_height(seq, TOL), True), True
        except m.NonConvergenceError as e:
            return (e.enclosure, False), False
    if op == "classify":
        res = m.classify(m.ModelPoint(q["t"], seq), budget=CLASSIFY_BUDGET, tol=TOL)
        return res, res.verdict is not m.Verdict.UNKNOWN
    alpha = st.AlphaIndex(tuple(q["alpha"]))
    height = m.endpoint_height_enclosure(seq, TOL)
    if op == "strata":
        point = m.ModelPoint(max(height.mid, 0.0), seq)
        member = st.in_stratum(alpha, point, TOL, BUDGET)
        ext = None
        if member.is_true:
            ext = st.extension_index(alpha, point, 0, TOL, BUDGET)
        return (alpha, point, member, ext), not member.is_unknown
    if op == "witness":
        point = m.ModelPoint(height.mid, seq)
        reports = st.witness_family(point, alpha, q["n"], q["count"], TOL, BUDGET)
        return (alpha, q["n"], reports), True
    raise ValueError(f"unknown query op {op!r}")


def _payload(op: str, res) -> dict:
    """The JSON object the CLI prints for this query (``to_json`` calls)."""
    if op == "tstar":
        iv, shift = res
        return {"tstar": iv.to_json(), "shift": shift}
    if op == "tmin":
        iv, converged = res
        return {"tmin": iv.to_json(), "converged": converged}
    if op == "strata":
        alpha, point, member, ext = res
        out = {"alpha": alpha.to_json(), "t": point.t, "member": member.label()}
        if member.evidence is not None:
            out["evidence"] = member.evidence.to_json()
        out["extension"] = ext
        return out
    if op == "witness":
        alpha, n, reports = res
        return {"alpha": alpha.to_json(), "n": n, "reports": [r.to_json() for r in reports]}
    out = res.to_json()
    if op == "render":
        out.pop("path")  # where the tile was written, not what it holds
    return out


def execute(api: Api, q: dict, tracer=None) -> tuple[dict, str, bool]:
    """Run one query; returns (output, emitted JSON text, certified).

    A documented honest outcome is returned as {"honest": <exception name>};
    any other exception propagates and counts as a failed query.
    """
    try:
        res, certified = _call(api, q)
    except api.honest as e:
        out = {"honest": type(e).__name__}
        return out, json.dumps(out, sort_keys=True), False
    span = tracer.begin("cli.emit") if tracer else None
    out = _payload(q["op"], res)
    text = json.dumps(out, sort_keys=True)
    if span is not None:
        tracer.end(span)
    return out, text, certified

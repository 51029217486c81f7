"""Generate the workload pools and freeze their reference outputs.

    python3 perfbench/freeze.py [certify|ramp|render ...]

Run from the repository root against the commit whose outputs become the
reference; it rewrites ``perfbench/reference/<workload>.json``.  Generation
uses the library only to place inputs (classify heights around the endpoint,
witness extension indices) and to record each query's output.  A query that
raises anything but a documented honest outcome is not kept, so every
workload runs without failures at the reference commit.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

POOL_SEED = 20201026
STRIP = [-2.0, 4.0, -math.pi, math.pi]  # the CLI's default render viewport


def _prefix(rng: random.Random) -> list:
    """0-3 small integers, sometimes with one symbolic tower or ramp entry."""
    out = [rng.randint(-20, 20) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        if rng.random() < 0.5:
            e = {"kind": "floor_tower", "c": rng.randint(1, 10), "h": rng.randint(3, 5)}
        else:
            e = {"kind": "ceil_exp", "arg": f"{rng.randint(40 * 7, 150 * 7)}/7"}
        out.insert(rng.randint(0, len(out)), e)
    return out


def _tail(rng: random.Random, rule: str) -> dict:
    if rule == "const":
        return {"kind": "const", "c": rng.randint(-12, 12)}
    if rule == "periodic":
        return {"kind": "periodic", "pattern": [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]}
    if rule == "fexp":
        return {"kind": "fexp", "c": rng.randint(1, 10)}
    num, den = rng.choice([(1, 4), (1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (3, 1)])
    return {"kind": "linexp", "c": f"{num}/{den}"}


class Freezer:
    def __init__(self):
        self.api = workloads.Api(HERE / "out")
        (HERE / "out").mkdir(exist_ok=True)

    def height(self, desc: dict) -> float | None:
        m = self.api.model
        enc = m.endpoint_height_enclosure(self.api.sequences.SymbolSeq.from_json(desc), workloads.TOL)
        return enc.mid if math.isfinite(enc.mid) else None

    def keep(self, q: dict) -> dict | None:
        """The query with its reference output, or None when it fails at this commit."""
        try:
            out, _, _ = workloads.execute(self.api, q)
        except Exception:
            return None
        return dict(q, ref=out)

    def fill(self, make, count: int, rng: random.Random) -> list:
        kept = []
        for _ in range(50 * count):
            if len(kept) == count:
                return kept
            q = make(rng)
            q = q and self.keep(q)
            if q is not None:
                kept.append(q)
        raise RuntimeError(f"could not generate {count} passing queries")


def _classify_t(fz: Freezer, desc: dict, where: str, rng: random.Random) -> float | None:
    t = fz.height(desc)
    if t is None:
        return None
    delta = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
    t = {"at": t, "above": t + delta, "below": t - delta}[where]
    return t if t >= 0.0 else None


def certify(fz: Freezer) -> dict:
    """Millisecond queries over all four tail rules, plus a few witness families."""
    rng = random.Random(POOL_SEED)
    cells = {}
    for rule in ("const", "periodic", "fexp", "linexp"):
        def seq(r, rule=rule):
            return {"prefix": _prefix(r), "tail": _tail(r, rule)}

        def tstar(r):
            return {"op": "tstar", "seq": seq(r), "shift": r.randint(0, 3)}

        def tmin(r):
            return {"op": "tmin", "seq": seq(r)}

        def classify(r):
            d = seq(r)
            t = _classify_t(fz, d, r.choice(["below", "at", "above"]), r)
            return t is not None and {"op": "classify", "seq": d, "t": t}

        def strata(r):
            depth = r.randint(0, 3)
            return {"op": "strata", "seq": seq(r), "alpha": sorted(r.sample(range(6), depth))}

        for op, make in (("tstar", tstar), ("tmin", tmin), ("classify", classify),
                         ("strata", strata)):
            cells[f"{rule}.{op}"] = {"weight": 2, "queries": fz.fill(make, 100, rng)}

    def witness(r):
        if r.random() < 0.7:
            tail = {"kind": "fexp", "c": r.randint(3, 10)}
        else:
            tail = {"kind": "linexp", "c": r.choice(["1/1", "3/2", "2/1"])}
        d = {"prefix": [r.randint(0, 5) for _ in range(r.randint(0, 2))], "tail": tail}
        alpha = [0] + sorted(r.sample(range(1, 5), r.randint(0, 2)))
        m, st = fz.api.model, fz.api.strata
        s = fz.api.sequences.SymbolSeq.from_json(d)
        point = m.ModelPoint(m.endpoint_height_enclosure(s, workloads.TOL).mid, s)
        try:
            n = st.extension_index(st.AlphaIndex(tuple(alpha)), point)
        except Exception:
            return None
        return {"op": "witness", "seq": d, "alpha": alpha, "n": n, "count": r.randint(3, 10)}

    cells["witness"] = {"weight": 1, "queries": fz.fill(witness, 24, rng)}
    return cells


RAMP_BANDS = 6  # rate 1/q, q log-spaced from 20 to 500 in six bands


def ramp(fz: Freezer) -> dict:
    """Slow linexp ramps, one query per (rate band, query kind).

    Each query sits at the centre of its band.  A run repeats the whole
    pool in several rounds, so every latency is sampled a few times and the
    median and tail do not hang on one noisy measurement; the seed changes
    the order of the queries, not the mix.  ``strata`` asks for depth-1
    membership, which runs the floor scan and the explicit shifted
    potentials without the much longer extension search.
    """
    rng = random.Random(POOL_SEED + 1)
    cells = {}
    for band in range(RAMP_BANDS):
        def seq(r, band=band):
            q = round(20 * 25 ** ((band + 0.5) / RAMP_BANDS) * math.exp(r.uniform(-0.03, 0.03)))
            return {"prefix": [r.randint(0, 9) for _ in range(r.randint(0, 3))],
                    "tail": {"kind": "linexp", "c": f"1/{q}"}}

        def classify(r, where):
            d = seq(r)
            t = _classify_t(fz, d, where, r)
            return t is not None and {"op": "classify", "seq": d, "t": t}

        makers = {
            "tstar": lambda r: {"op": "tstar", "seq": seq(r), "shift": r.randint(0, 2)},
            "tmin": lambda r: {"op": "tmin", "seq": seq(r)},
            "classify_at": lambda r: classify(r, "at"),
            "classify_above": lambda r: classify(r, "above"),
            "strata": lambda r: {"op": "strata", "seq": seq(r), "alpha": [0]},
        }
        for op, make in makers.items():
            cells[f"band{band}.{op}"] = {"weight": 1, "queries": fz.fill(make, 1, rng)}
    return cells


# parameter classes named by the fixed point find_cycle reports there
RENDER_PARAMS = {
    "attracting": [(-2.0, 0.0), (-0.5, 1.0)],
    "parabolic": [(-1.0, 0.0)],
    "repelling": [(0.3, 0.2)],
}
CYCLE_SEEDS = {(-2.0, 0.0): (-1.84, 0.0), (-0.5, 1.0): (-0.52, 1.6),
               (-1.0, 0.0): (0.0, 0.0), (0.3, 0.2): (1.0, 1.0)}


def render(fz: Freezer) -> dict:
    """200x200 escape-time tiles per parameter and max_iter, plus a few cycle searches."""
    rng = random.Random(POOL_SEED + 2)
    cells = {}
    for cls, params in RENDER_PARAMS.items():
        for a in params:
            for max_iter in (100, 200):
                views = [STRIP]
                while len(views) < 6:
                    zoom = math.exp(rng.uniform(math.log(2.0), math.log(8.0)))
                    cr, ci = rng.uniform(-2.0, 3.0), rng.uniform(-math.pi, math.pi)
                    hw, hh = 3.0 / zoom, math.pi / zoom
                    views.append([cr - hw, cr + hw, ci - hh, ci + hh])
                qs = [fz.keep({"op": "render", "class": cls, "a": list(a),
                               "viewport": v, "max_iter": max_iter}) for v in views]
                qs = [q for q in qs if q is not None]
                cells[f"render.{cls}.{a[0]:+g}{a[1]:+g}i.{max_iter}"] = {"weight": 1, "queries": qs}

    def cycle(r):
        cls = r.choice(sorted(RENDER_PARAMS))
        a = r.choice(RENDER_PARAMS[cls])
        s = CYCLE_SEEDS[a]
        seed = [s[0] + r.uniform(-0.1, 0.1), s[1] + r.uniform(-0.1, 0.1)]
        return {"op": "cycle", "class": cls, "a": list(a), "period": 1, "seed": seed}

    qs = [q for q in fz.fill(cycle, 40, rng) if q["ref"].get("kind") == q["class"]]
    cells["cycle"] = {"weight": 1, "queries": qs}
    return cells


BUILDERS = {"certify": certify, "ramp": ramp, "render": render}


def main(names: list[str]) -> None:
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or "unknown"
    fz = Freezer()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(BUILDERS):
        cells = BUILDERS[name](fz)
        pool = {"workload": name, "frozen_against": sha, "pool_seed": POOL_SEED,
                "cells": cells}
        path = workloads.REFERENCE_DIR / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(pool, fh, sort_keys=True, separators=(",", ":"))
        n = sum(len(c["queries"]) for c in cells.values())
        print(f"{name}: {len(cells)} cells, {n} queries -> {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])

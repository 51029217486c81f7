"""Exact work counts, printed as lines, then as one JSON line with the same numbers: run
``PYTHONPATH=src:perfbench:tests python tests/workcount.py`` from the repository root.
Model work is the calls of ``src/expbouquet`` functions but ``__eq__`` (dict probes call it a
number of times set by hash and address layout), under ``cProfile`` with gc off; plane work is
the points passed to ``_Trap.holds``.  Each part starts from emptied memos, so counts repeat."""

import cProfile
import gc
import json
import os
import pstats
import sys
from pathlib import Path

import numpy as np

from conftest import RULE_MEMOS
from expbouquet import plane
from test_source import UNCOUNTED_MEMOS

SRC, BASIS = os.path.join("src", "expbouquet", ""), "calls of src/expbouquet functions but __eq__"
MEMOS = RULE_MEMOS + UNCOUNTED_MEMOS


def empty_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()


def work(fn, *args):
    """``fn(*args)``, the calls it makes of ``src/expbouquet`` functions but ``__eq__`` and
    the number of points it passes to ``_Trap.holds``."""
    prof, holds, sizes = cProfile.Profile(), plane._Trap.holds, []
    plane._Trap.holds = lambda trap, c, r: sizes.append(np.size(c)) or holds(trap, c, r)
    gc.disable()
    try:
        out = prof.runcall(fn, *args)
    finally:
        gc.enable()
        plane._Trap.holds = holds
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, calls, tt, ct, callers)
    return out, sum(s[1] for f, s in stats.items() if SRC in f[0] and f[2] != "__eq__"), sum(sizes)


def main() -> None:
    import workloads
    pool, api = workloads.load("certify"), workloads.Api(Path(os.devnull))  # it renders no tile
    queries, witness = workloads.take(pool, 8, 24), pool["cells"]["witness"]["queries"]
    out = {"python": "%d.%d.%d" % sys.version_info[:3], "trap": {}}
    empty_memos()
    n = sum(work(workloads.execute, api, q)[1] for q in queries)
    print(f"certify work, first 24 rounds at seed 8: {n} {BASIS} over {len(queries)} queries")
    memos = {f"{memo.__module__}.{memo.__qualname__}": memo.cache_info()[:2] for memo in MEMOS}
    print("\n".join(f"- {name}: {hit} hits, {miss} misses" for name, (hit, miss) in memos.items()))
    out["certify"] = {"calls": n, "queries": len(queries), "memos": memos}
    empty_memos()
    calls, members = {}, {}  # the fexp families together, each other family by its address
    for q in witness:
        (res, _, _), n, _ = work(workloads.execute, api, q)
        fexp = q["seq"]["tail"]["kind"] == "fexp"
        key = "the fexp families" if fexp else json.dumps(q["seq"], sort_keys=True)
        calls[key] = calls.get(key, 0) + n
        members[key] = members.get(key, 0) + len(res.get("reports", ()))
    n, m = sum(calls.values()), sum(members.values())
    print(f"witness work, the certify pool witness queries: {n} {BASIS} over "
          f"{len(witness)} queries and {m} members, {n / m:.1f} per member")
    print("\n".join(f"- {key}: {calls[key] / members[key]:.1f} per member" for key in calls))
    out["witness"] = {"calls": calls, "members": members}
    empty_memos()
    v = plane.Viewport(-2.0, 4.0, -np.pi, np.pi, 1000, 997)
    for a in ("0.3+0.2j", "-0.5+1j", "1.6-2.2j", "-1", "-2"):
        n = out["trap"][a] = work(plane.escape_times, complex(a), v, 200)[2]
        print(f"trap work, render a = {a}, 1000x997, max-iter 200: {n} _Trap.holds tests")
    src = Path(plane.__file__).parent.glob("*.py")
    out["src_lines"] = sum(p.read_text().count("\n") for p in src)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()

"""Golden scalar outputs of the plane layer, bit for bit.

``plane_golden.json`` holds exact floats (``float.hex``) of ``find_cycle``
on the render pool's 40 cycle queries and a few more (their inputs are kept
in the file) and of ``exp_orbit`` and ``strip_itinerary`` on a few points.
A refactor of the scalar orbit code must keep every one of them.

Its ``trap`` key holds, for 410 parameters (the render parameters, the
attracting cycles of period 2 to 8, the render parameters -2 and 0.3+0.2i
again and 400 seeded random |a| < 10), the level and disks of
``_basin_trap`` and the centres and radii of ``_trap_chain``.  A refactor of
the trap must keep every level and disk count, every centre within 1e-12 and
every radius within 1e-12 of it.

    PYTHONPATH=src python tests/test_plane_golden.py

rewrites the file from the current code; do that only for an intended change.
"""

import cmath
import json
import math
import random
from pathlib import Path

import pytest

from expbouquet.orbits import NoConvergenceError, exp_orbit, find_cycle, strip_itinerary
from expbouquet.plane import _basin_trap, _trap_chain

GOLDEN = Path(__file__).resolve().parent / "plane_golden.json"
RENDER_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "render.json"

RENDER_PARAMS = [-0.5 + 1j, -2.0 + 0j, -1.0 + 0j, 0.3 + 0.2j]
# attracting cycles of period 2, 3, 4 and 8
CYCLE_PARAMS = [1.6 - 2.2j, 0.7 - 0.7j, 0.2 - 0.2j, 0.3 - 0.5j]
EXTRA_CYCLES = [(1.0 + 0j, 1, 0.5 + 0j), (0.3 + 0.2j, 4, 0.3 + 0.2j), (-1.0 + 0j, 1, 0.1 + 0j),
                (-2.0 + 0.3j, 1, -2.0 + 0j), (0.2 - 0.2j, 2, 0.2 - 0.2j)]
# a = -2 and 0.3+0.2i again, which keeps each random parameter at its index
# in the file, then the random parameters
TRAP_CASES = RENDER_PARAMS + CYCLE_PARAMS + [-2.0 + 0j, 0.3 + 0.2j]
_rng = random.Random(1972)
TRAP_CASES += [cmath.rect(_rng.uniform(0.0, 9.999), _rng.uniform(-math.pi, math.pi))
               for _ in range(400)]
ORBIT_POINTS = [(-1.0 + 0j, 0.5 + 0j, 12), (-1.0 + 0j, 10 + 0j, 5), (-2.0 + 0j, 3 - 1j, 20),
                (0.3 + 0.2j, 0j, 40), (-0.5 + 1j, 1 + 7j, 30), (-1.0 + 0j, 0.5 - 4j * math.pi, 3),
                (-2.0 + 0j, -800 + 0j, 4)]


def _hex(z: complex) -> list[str]:
    return [z.real.hex(), z.imag.hex()]


def _cycle(a: complex, period: int, seed: complex) -> dict:
    try:
        info = find_cycle(a, period, seed)
    except NoConvergenceError:
        return {"raises": "NoConvergenceError"}
    return {"points": [_hex(p) for p in info.points], "multiplier": _hex(info.multiplier),
            "kind": info.kind}


def _pool_cycles() -> list[tuple[complex, int, complex]]:
    with open(RENDER_POOL) as fh:
        queries = json.load(fh)["cells"]["cycle"]["queries"]
    return [(complex(*q["a"]), q["period"], complex(*q["seed"])) for q in queries]


def _unhex(pair: list[str]) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def _disks(disks) -> list[list]:
    return [[_hex(c), r.hex()] for c, r in disks]


def _trap(a: complex) -> dict:
    trap = _basin_trap(a)
    return {"level": None if trap is None else trap.level.hex(),
            "disks": [] if trap is None else _disks(trap.disks),
            "chain": _disks(_trap_chain(a))}


def record(cycles: list[tuple[complex, int, complex]]) -> dict:
    """Every golden output of the current code, ``find_cycle`` on the given queries."""
    return {
        "find_cycle": [{"a": _hex(a), "period": period, "seed": _hex(seed),
                        "out": _cycle(a, period, seed)} for a, period, seed in cycles],
        "exp_orbit": [[_hex(w) for w in exp_orbit(a, z, n)] for a, z, n in ORBIT_POINTS],
        "strip_itinerary": [strip_itinerary(a, z, n) for a, z, n in ORBIT_POINTS],
        "trap": [_trap(a) for a in TRAP_CASES],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def now(golden) -> dict:
    return record([(_unhex(c["a"]), c["period"], _unhex(c["seed"])) for c in golden["find_cycle"]])


@pytest.mark.parametrize("key", ["find_cycle", "exp_orbit", "strip_itinerary"])
def test_plane_scalar_outputs_match_the_golden_file(golden, now, key):
    assert len(now[key]) == len(golden[key])
    for i, (got, want) in enumerate(zip(now[key], golden[key])):
        assert got == want, f"{key}[{i}]"


def _assert_disks_close(got: list[list], want: list[list], where: str):
    assert len(got) == len(want), where
    for (c, r), (c0, r0) in zip(got, want):
        assert abs(_unhex(c) - _unhex(c0)) <= 1e-12, where
        assert abs(float.fromhex(r) - float.fromhex(r0)) <= 1e-12 * float.fromhex(r0), where


def test_traps_match_the_golden_file(golden, now):
    assert len(now["trap"]) == len(golden["trap"]) == len(TRAP_CASES)
    for i, (got, want) in enumerate(zip(now["trap"], golden["trap"])):
        assert got["level"] == want["level"], f"trap[{i}]"
        _assert_disks_close(got["disks"], want["disks"], f"trap[{i}] disks")
        _assert_disks_close(got["chain"], want["chain"], f"trap[{i}] chain")


def test_golden_file_covers_periods_and_failures(golden):
    # chains up to period 8, a failed Newton search and every pool query are in
    assert max(len(t["chain"]) for t in golden["trap"]) == 8
    assert {"raises": "NoConvergenceError"} in [c["out"] for c in golden["find_cycle"]]
    assert len(golden["find_cycle"]) == 40 + len(EXTRA_CYCLES)


def test_newton_refuses_an_orbit_left_of_the_overflow_guard():
    # refused at the first step; Newton from there would also fail, later
    with pytest.raises(NoConvergenceError, match="left the computable range"):
        find_cycle(0, 1, -800)


if __name__ == "__main__":
    # one line per output
    lists = record(_pool_cycles() + EXTRA_CYCLES).items()
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: [\n" + ",\n".join(json.dumps(x) for x in v) + "\n]"
        for k, v in lists) + "\n}\n")

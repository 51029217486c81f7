"""Golden witness addresses: ``witness_sequence`` output, byte for byte.

``witness_golden.json`` holds ``witness_sequence(base, alpha, m).to_json()``
(or ``"incomparable"`` where the thinning min cannot be certified) for every
base below, alphas of depth 1 to 3 and cuts m from 0 to 8.  The bases cover
prefixes that run past the cut (integer, ``floor_tower`` and ``ceil_exp``
entries, one tower entry equal to its cap), ramps at rates 1/2, 2 and 3
whose crossover comes after thinned entries, and towers that take the cap,
keep their own tail or equal the cap.  No benchmark pool witness query has
a prefix that runs past its cut, so this file is what pins that path.

    PYTHONPATH=src python tests/test_witness_golden.py

rewrites the file from the current code; do that only for an intended change.
"""

import json
from pathlib import Path

import pytest

from expbouquet import AlphaIndex, IncomparableTailsError, SymbolSeq, witness_sequence

GOLDEN = Path(__file__).resolve().parent / "witness_golden.json"


def _fexp(c: int, **extra) -> dict:
    return {"kind": "fexp", "c": c, **extra}


def _linexp(rate: str, **extra) -> dict:
    return {"kind": "linexp", "c": rate, **extra}


def _tower(c: int, h: int) -> dict:
    return {"kind": "floor_tower", "c": c, "h": h}


BASES = [
    # prefixes past the cut; index 3 of the third equals its depth-1 cap at m = 0
    {"prefix": [5, 0, 7, -3, 40, _tower(2, 3), 1, 100000, 2], "tail": _fexp(10)},
    {"prefix": [2, _tower(3, 2), 0, -9, {"kind": "ceil_exp", "arg": "7/2"}, 30, 30],
     "tail": _linexp("2")},
    {"prefix": [0, 0, 0, _tower(3, 3), 4], "tail": _fexp(10)},
    # ramps whose crossover with the cap comes after thinned entries
    {"prefix": [30, 30, 30, 30, 30], "tail": _linexp("3")},
    {"prefix": [], "tail": _linexp("1/2")},
    {"prefix": [3], "tail": _linexp("2")},
    {"prefix": [], "tail": _linexp("3")},
    {"prefix": [], "tail": _linexp("2", offset=3)},
    # towers above the cap, below it, and (c = 9 at m = 1, depth 3) equal to it
    {"prefix": [], "tail": _fexp(10)},
    {"prefix": [0, 5], "tail": _fexp(9)},
    {"prefix": [], "tail": _fexp(1)},
    {"prefix": [1], "tail": _fexp(2)},
    {"prefix": [], "tail": _fexp(4, anchor=-1)},
    {"prefix": [], "tail": _fexp(6)},
]
ALPHAS = [(0,), (0, 1), (0, 2, 5)]
CUTS = range(9)


def _witness(base: dict, alpha: tuple, m: int):
    try:
        return witness_sequence(SymbolSeq.from_json(base), AlphaIndex(alpha), m).to_json()
    except IncomparableTailsError:
        return "incomparable"


def record() -> list:
    return [{"base": base, "alpha": list(alpha), "m": m, "witness": _witness(base, alpha, m)}
            for base in BASES for alpha in ALPHAS for m in CUTS]


@pytest.fixture(scope="module")
def golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_witness_sequences_match_the_golden_file(golden):
    assert [(g["base"], g["alpha"], g["m"]) for g in golden] == [
        (base, list(alpha), m) for base in BASES for alpha in ALPHAS for m in CUTS]
    for g in golden:
        now = _witness(g["base"], tuple(g["alpha"]), g["m"])
        assert json.dumps(now, sort_keys=True) == json.dumps(g["witness"], sort_keys=True), g


def test_golden_file_covers_every_thinning_path(golden):
    def cases(kind):
        return [g for g in golden
                if g["base"]["tail"]["kind"] == kind and g["witness"] != "incomparable"]

    # a thinned prefix entry past the cut, and a ramp entry thinned before the crossover
    assert any(len(g["base"]["prefix"]) > g["m"] + 1 for g in cases("fexp"))
    assert any(len(g["witness"]["prefix"]) > max(len(g["base"]["prefix"]), g["m"] + 1)
               for g in cases("linexp"))
    # towers that take the cap and towers that keep their own
    assert any(g["witness"]["tail"]["c"] == 3 * len(g["alpha"]) != g["base"]["tail"]["c"]
               for g in cases("fexp"))
    assert any(g["witness"]["tail"]["c"] == g["base"]["tail"]["c"] != 3 * len(g["alpha"])
               for g in cases("fexp"))
    # a prefix entry and a tower tail equal to their caps take the cap
    def witness(base, alpha, m):
        return next(g["witness"] for g in golden if (g["base"], g["alpha"], g["m"]) == (base, alpha, m))

    assert witness(BASES[2], [0], 0)["prefix"][3] == _tower(3, 3)
    assert witness(BASES[9], [0, 2, 5], 1)["tail"] == _fexp(9, anchor=1)
    # an entry past double range against a different saturated cap stays undecided
    failed = [g for g in golden if g["witness"] == "incomparable"]
    assert failed and all(g["base"] == BASES[2] for g in failed)


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in record()) + "\n]\n")

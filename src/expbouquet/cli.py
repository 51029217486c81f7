"""Command-line surface.

Subcommands: tstar, tmin, classify, strata, witness, render, cycle, verify.
Exit codes: 0 success, 2 usage or parse error, 1 verification failure, an
answer not certified within ``--budget`` or ``--tol`` (a thinning comparison
among them), or a stdout closed before the report was written (``error: ...``
on stderr).
Sequence descriptors are JSON objects, e.g.

    {"prefix": [0], "tail": {"kind": "fexp", "c": 3}}

passed as a string argument.  Each subcommand returns its report and exit code, and
``main`` prints the report as one JSON line on stdout; only ``render`` writes a file.
Numeric defaults are the library's constants, which RunConfig and the parser read.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .intervals import DEFAULT_TOL, Frozen, _set_slot, check_tolerance
from .model import (
    CLASSIFY_BUDGET,
    BudgetExceededError,
    ModelPoint,
    NonConvergenceError,
    classify,
    endpoint_height,
    endpoint_height_enclosure,
    potential,
)
from .sequences import IncomparableTailsError, SymbolSeq
from .strata import (DEFAULT_BUDGET, AlphaIndex, WitnessRefutedError, extension_index,
                     in_stratum, witness_family)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class RunConfig(Frozen):
    """Numeric defaults shared by the subcommands: interval tolerance,
    iteration budget and the seed of the sampled suites."""

    __slots__ = _fields = ("tolerance", "budget", "seed")

    def __init__(self, tolerance: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
                 seed: int = 0):
        check_tolerance(tolerance)
        if budget < 1:
            raise ValueError("budget must be >= 1")
        _set_slot(self, "tolerance", tolerance)
        _set_slot(self, "budget", budget)
        _set_slot(self, "seed", seed)


_DEFAULTS = RunConfig()  # the parser's defaults, and what a subcommand without the flag runs with


def _parse_seq(text: str) -> SymbolSeq:
    try:
        return SymbolSeq.from_json(json.loads(text))
    # JSON and descriptor errors are ValueErrors; RecursionError is nesting past the stack
    except (ValueError, RecursionError) as e:
        raise ValueError(f"bad sequence descriptor: {e}") from e


def _parse_alpha(text: str) -> AlphaIndex:
    text = text.strip()
    if not text:
        return AlphaIndex(())
    try:
        return AlphaIndex(tuple(int(v) for v in text.split(",")))
    except ValueError as e:
        raise ValueError(f"bad stratum index: {e}") from e


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as e:
        raise ValueError(f"bad complex number {text!r}") from e


def _add_common(parser: argparse.ArgumentParser, *read: str) -> None:
    """Those of --tol, --budget, --seed and --out that the subcommand takes,
    named in ``read``.  Each is read, except --out on tstar and tmin, which
    the cold starts of ``perfbench/probes.py`` still pass."""
    for flag, kind, default, text in (("tol", float, _DEFAULTS.tolerance, "interval tolerance"),
                                      ("budget", int, _DEFAULTS.budget, "iteration budget"),
                                      ("seed", int, _DEFAULTS.seed, "seed for sampled suites"),
                                      ("out", str, os.curdir, "output directory")):
        if flag in read:
            parser.add_argument(f"--{flag}", type=kind, default=default, help=text)


def _config(args) -> RunConfig:
    return RunConfig(getattr(args, "tol", _DEFAULTS.tolerance),
                     getattr(args, "budget", _DEFAULTS.budget),
                     getattr(args, "seed", _DEFAULTS.seed))


# argparse reads a token that starts with "-" as an option unless it is a
# plain negative number, so values such as "-2,4,-3,3" or "-0.5+1j" would be
# lost; such a token right after a long option is joined to it as "--opt=val"
_SIGNED_VALUE = re.compile(r"-[\d.]")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no abbreviated flags, which would read "cycle --seed" as --seed-point
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for tok in sys.argv[1:] if args is None else args:
            prev = joined[-1] if joined else ""
            if (_SIGNED_VALUE.match(tok) and prev.startswith("--") and len(prev) > 2
                    and "=" not in prev):
                joined[-1] = f"{prev}={tok}"
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expbouquet",
        description="Certified Cantor-bouquet model numerics and exponential plane dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tstar", help="certified potential of an address")
    p.add_argument("seq", help="sequence descriptor (JSON)")
    p.add_argument("--shift", type=int, default=0)
    _add_common(p, "out")
    p.set_defaults(run=_cmd_tstar)

    p = sub.add_parser("tmin", help="certified endpoint height of an address")
    p.add_argument("seq")
    _add_common(p, "tol", "out")
    p.set_defaults(run=_cmd_tmin)

    p = sub.add_parser("classify", help="classify a model point")
    p.add_argument("seq")
    p.add_argument("--t", type=float, required=True)
    _add_common(p, "tol", "budget")
    p.set_defaults(run=_cmd_classify, budget=CLASSIFY_BUDGET)

    p = sub.add_parser("strata", help="stratum membership (and optional extension)")
    p.add_argument("seq")
    p.add_argument("--alpha", default="", help="comma-separated index entries")
    p.add_argument("--t", type=float, default=None,
                   help="height (defaults to the endpoint height)")
    p.add_argument("--extend", action="store_true",
                   help="also search the least extension index")
    p.add_argument("--nfloor", type=int, default=0)
    _add_common(p, "tol", "budget")
    p.set_defaults(run=_cmd_strata)

    p = sub.add_parser("witness", help="nowhere-density witness family")
    p.add_argument("seq", help="base sequence descriptor (JSON)")
    p.add_argument("--alpha", default="", help="parent stratum index")
    p.add_argument("--n", type=int, required=True, help="child extension index")
    p.add_argument("--count", type=int, default=3)
    _add_common(p, "tol", "budget")
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("render", help="escape-time image for exp(z) + a")
    p.add_argument("--a", required=True, help="parameter a (complex literal)")
    p.add_argument("--viewport", default="-2,4,-3.141592653589793,3.141592653589793",
                   help="re_min,re_max,im_min,im_max")
    p.add_argument("--px", default="200x200", help="WIDTHxHEIGHT")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--path", default=None, help="output file (default out dir/escape.ppm)")
    _add_common(p, "out")
    p.set_defaults(run=_cmd_render)

    p = sub.add_parser("cycle", help="Newton search for a periodic cycle")
    p.add_argument("--a", required=True)
    p.add_argument("--period", type=int, default=1)
    p.add_argument("--seed-point", required=True, help="Newton seed (complex literal)")
    _add_common(p, "budget")
    p.set_defaults(run=_cmd_cycle)

    p = sub.add_parser("verify", help="run every invariant suite")
    _add_common(p, "tol", "budget", "seed")
    p.set_defaults(run=_cmd_verify)

    return parser


def _cmd_tstar(args, cfg: RunConfig) -> tuple[dict, int]:
    seq = _parse_seq(args.seq)
    return {"tstar": potential(seq, args.shift).to_json(), "shift": args.shift}, EXIT_OK


def _cmd_tmin(args, cfg: RunConfig) -> tuple[dict, int]:
    seq = _parse_seq(args.seq)
    try:
        return {"tmin": endpoint_height(seq, cfg.tolerance).to_json(), "converged": True}, EXIT_OK
    except NonConvergenceError as e:
        return {"tmin": e.enclosure.to_json(), "converged": False}, EXIT_FAIL


def _cmd_classify(args, cfg: RunConfig) -> tuple[dict, int]:
    if cfg.budget > CLASSIFY_BUDGET:
        raise ValueError(f"classify's --budget is at most {CLASSIFY_BUDGET}, got {cfg.budget}")
    seq = _parse_seq(args.seq)
    return classify(ModelPoint(args.t, seq), cfg.budget, cfg.tolerance).to_json(), EXIT_OK


def _cmd_strata(args, cfg: RunConfig) -> tuple[dict, int]:
    seq = _parse_seq(args.seq)
    alpha = _parse_alpha(args.alpha)
    # without --t, the midpoint of the height enclosure, which the sandwich keeps at or above 0
    point = ModelPoint(args.t if args.t is not None
                       else endpoint_height_enclosure(seq, cfg.tolerance).mid, seq)
    member = in_stratum(alpha, point, cfg.tolerance, cfg.budget)
    payload: dict = {"alpha": alpha.to_json(), "t": point.t, "member": member.label()}
    if member.evidence is not None:
        payload["evidence"] = member.evidence.to_json()
    if args.extend:
        payload["extension"] = extension_index(alpha, point, args.nfloor, cfg.tolerance,
                                               cfg.budget) if member.is_true else None
    return payload, EXIT_OK


def _cmd_witness(args, cfg: RunConfig) -> tuple[dict, int]:
    seq = _parse_seq(args.seq)
    alpha = _parse_alpha(args.alpha)
    point = ModelPoint(endpoint_height_enclosure(seq, cfg.tolerance).mid, seq)
    reports = witness_family(point, alpha, args.n, args.count, cfg.tolerance, cfg.budget)
    return {"alpha": alpha.to_json(), "n": args.n,
            "reports": [r.to_json() for r in reports]}, EXIT_OK


def _cmd_render(args, cfg: RunConfig) -> tuple[dict, int]:
    from .plane import Viewport, render_escape
    a = _parse_complex(args.a)
    try:
        parts = [float(v) for v in args.viewport.split(",")]
        if len(parts) != 4:
            raise ValueError("need four viewport bounds")
        w, h = args.px.lower().split("x")
        viewport = Viewport(parts[0], parts[1], parts[2], parts[3], int(w), int(h))
    except ValueError as e:
        raise ValueError(f"bad viewport: {e}") from e
    path = args.path or os.path.join(args.out, "escape.ppm")
    try:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        return render_escape(a, viewport, args.max_iter, path).to_json(), EXIT_OK
    except OSError as e:  # e.g. the path names a directory, or its directory a file
        raise ValueError(f"cannot write {path!r}: {e}") from e
    except MemoryError as e:  # a tile too large to allocate
        raise ValueError(f"cannot allocate a {args.px} tile: {e}") from e


def _cmd_cycle(args, cfg: RunConfig) -> tuple[dict, int]:
    from .orbits import NoConvergenceError, find_cycle
    a = _parse_complex(args.a)
    seed = _parse_complex(args.seed_point)
    # each of up to 200 Newton steps walks the whole period
    if args.period > cfg.budget:
        raise ValueError(f"period {args.period} exceeds the budget {cfg.budget}")
    try:
        return find_cycle(a, args.period, seed).to_json(), EXIT_OK
    except NoConvergenceError as e:
        return {"error": "no_convergence", "detail": str(e)}, EXIT_FAIL


def _cmd_verify(args, cfg: RunConfig) -> tuple[dict, int]:
    from .verify import run_all
    report = run_all(cfg)
    return report, EXIT_OK if report["passed"] else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        payload, code = args.run(args, _config(args))
        print(json.dumps(payload, sort_keys=True))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # a closed stdout: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the report was written", file=sys.stderr)
        return EXIT_FAIL
    # only endpoint_height raises NonConvergenceError; its callers, tmin and verify, catch it;
    # an IncomparableTailsError is a ValueError, so it is caught before the usage errors
    except (BudgetExceededError, IncomparableTailsError, WitnessRefutedError) as e:
        print(f"error: {e}", file=sys.stderr)  # undecided, or certainly false
        return EXIT_FAIL
    except ValueError as e:  # descriptor and usage errors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

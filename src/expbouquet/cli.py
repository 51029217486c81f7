"""Command-line surface.

Subcommands: tstar, tmin, classify, strata, witness, render, cycle, verify.
Exit codes: 0 success, 2 usage or parse error, 1 verification failure or an
answer not certified within ``--budget`` or ``--tol`` (``error: ...`` on stderr).
Sequence descriptors are JSON objects, e.g.

    {"prefix": [0], "tail": {"kind": "fexp", "c": 3}}

passed as a string argument.  Reports are JSON by default (``--format text``
for a plain rendering); all numeric defaults live in one RunConfig.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

from .intervals import DEFAULT_TOL, check_tolerance
from .model import (
    BudgetExceededError,
    Classification,
    ModelPoint,
    NonConvergenceError,
    classify,
    endpoint_height,
    endpoint_height_enclosure,
    potential,
)
from .sequences import DescriptorError, SymbolSeq
from .strata import AlphaIndex, extension_index, in_stratum, witness_family

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Numeric defaults shared by every subcommand."""

    tolerance: float = DEFAULT_TOL
    budget: int = 100000
    seed: int = 0
    fmt: str = "json"
    out_dir: str = field(default_factory=lambda: os.environ.get("EXPBOUQUET_OUT", "."))

    def __post_init__(self):
        check_tolerance(self.tolerance)
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


def _parse_seq(text: str) -> SymbolSeq:
    try:
        return SymbolSeq.from_json(json.loads(text))
    # JSON and descriptor errors are ValueErrors; RecursionError is nesting past the stack
    except (ValueError, TypeError, KeyError, RecursionError) as e:
        raise _UsageError(f"bad sequence descriptor: {e}") from e


def _parse_alpha(text: str) -> AlphaIndex:
    text = text.strip()
    if not text:
        return AlphaIndex(())
    try:
        return AlphaIndex(tuple(int(v) for v in text.split(",")))
    except ValueError as e:
        raise _UsageError(f"bad stratum index: {e}") from e


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as e:
        raise _UsageError(f"bad complex number {text!r}") from e


def _emit(payload: dict, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")


def _ensure_dir(directory: str) -> None:
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as e:
        raise _UsageError(f"cannot use output directory {directory!r}: {e}") from e


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=RunConfig.tolerance, help="interval tolerance")
    parser.add_argument("--budget", type=int, default=RunConfig.budget, help="iteration budget")
    parser.add_argument("--seed", type=int, default=RunConfig.seed, help="seed for sampled suites")
    parser.add_argument("--format", choices=("json", "text"), default=RunConfig.fmt)
    parser.add_argument("--out", default=None, help="output directory override")


def _config(args) -> RunConfig:
    kwargs = {"tolerance": args.tol, "budget": args.budget, "seed": args.seed,
              "fmt": args.format}
    if args.out is not None:
        kwargs["out_dir"] = args.out
    return RunConfig(**kwargs)


# argparse reads a token that starts with "-" as an option unless it is a
# plain negative number, so values such as "-2,4,-3,3" or "-0.5+1j" would be
# lost; such a token right after a long option is joined to it as "--opt=val"
_SIGNED_VALUE = re.compile(r"-[\d.]")


class _Parser(argparse.ArgumentParser):
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
    _add_common(p)

    p = sub.add_parser("tmin", help="certified endpoint height of an address")
    p.add_argument("seq")
    _add_common(p)

    p = sub.add_parser("classify", help="classify a model point")
    p.add_argument("seq")
    p.add_argument("--t", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("strata", help="stratum membership (and optional extension)")
    p.add_argument("seq")
    p.add_argument("--alpha", default="", help="comma-separated index entries")
    p.add_argument("--t", type=float, default=None,
                   help="height (defaults to the endpoint height)")
    p.add_argument("--extend", action="store_true",
                   help="also search the least extension index")
    p.add_argument("--nfloor", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("witness", help="nowhere-density witness family")
    p.add_argument("seq", help="base sequence descriptor (JSON)")
    p.add_argument("--alpha", default="", help="parent stratum index")
    p.add_argument("--n", type=int, required=True, help="child extension index")
    p.add_argument("--count", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("render", help="escape-time image for exp(z) + a")
    p.add_argument("--a", required=True, help="parameter a (complex literal)")
    p.add_argument("--viewport", default="-2,4,-3.141592653589793,3.141592653589793",
                   help="re_min,re_max,im_min,im_max")
    p.add_argument("--px", default="200x200", help="WIDTHxHEIGHT")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--escape-re", type=float, default=50.0)
    p.add_argument("--path", default=None, help="output file (default out dir/escape.ppm)")
    _add_common(p)

    p = sub.add_parser("cycle", help="Newton search for a periodic cycle")
    p.add_argument("--a", required=True)
    p.add_argument("--period", type=int, default=1)
    p.add_argument("--seed-point", required=True, help="Newton seed (complex literal)")
    _add_common(p)

    p = sub.add_parser("verify", help="run every invariant suite")
    _add_common(p)

    return parser


def _cmd_tstar(args, cfg: RunConfig) -> int:
    seq = _parse_seq(args.seq)
    if args.shift < 0:
        raise _UsageError("shift must be >= 0")
    # the shifted descriptor must be one the parser accepts (a linexp offset
    # within double range), so a shift beyond it exits 2 like that descriptor
    _parse_seq(json.dumps(seq.shift(args.shift).to_json()))
    iv = potential(seq, args.shift)
    _emit({"tstar": iv.to_json(), "shift": args.shift}, cfg)
    return EXIT_OK


def _cmd_tmin(args, cfg: RunConfig) -> int:
    seq = _parse_seq(args.seq)
    converged = True
    try:
        iv = endpoint_height(seq, cfg.tolerance)
    except NonConvergenceError as e:
        iv = e.enclosure
        converged = False
    _emit({"tmin": iv.to_json(), "converged": converged}, cfg)
    return EXIT_OK if converged else EXIT_FAIL


def _check_height(t: float) -> float:
    if t < 0 or not math.isfinite(t):
        raise _UsageError("--t must be a finite nonnegative height")
    return t


def _cmd_classify(args, cfg: RunConfig) -> int:
    seq = _parse_seq(args.seq)
    _check_height(args.t)
    result: Classification = classify(ModelPoint(args.t, seq),
                                      budget=min(cfg.budget, 4096), tol=cfg.tolerance)
    _emit(result.to_json(), cfg)
    return EXIT_OK


def _cmd_strata(args, cfg: RunConfig) -> int:
    seq = _parse_seq(args.seq)
    alpha = _parse_alpha(args.alpha)
    if args.t is not None:
        t = _check_height(args.t)
    else:
        # only the computed midpoint is clamped: an enclosure may reach below 0
        t = max(endpoint_height_enclosure(seq, cfg.tolerance).mid, 0.0)
    point = ModelPoint(t, seq)
    member = in_stratum(alpha, point, cfg.tolerance, cfg.budget)
    payload: dict = {"alpha": alpha.to_json(), "t": point.t, "member": member.label()}
    if member.evidence is not None:
        payload["evidence"] = member.evidence.to_json()
    if args.extend:
        if member.is_true:
            n = extension_index(alpha, point, args.nfloor, cfg.tolerance, cfg.budget)
            payload["extension"] = n
        else:
            payload["extension"] = None
    _emit(payload, cfg)
    return EXIT_OK


def _cmd_witness(args, cfg: RunConfig) -> int:
    seq = _parse_seq(args.seq)
    alpha = _parse_alpha(args.alpha)
    height = endpoint_height_enclosure(seq, cfg.tolerance)
    point = ModelPoint(height.mid, seq)
    reports = witness_family(point, alpha, args.n, args.count, cfg.tolerance, cfg.budget)
    _emit({"alpha": alpha.to_json(), "n": args.n,
           "reports": [r.to_json() for r in reports]}, cfg)
    return EXIT_OK


def _cmd_render(args, cfg: RunConfig) -> int:
    from .plane import Viewport, render_escape
    a = _parse_complex(args.a)
    try:
        parts = [float(v) for v in args.viewport.split(",")]
        if len(parts) != 4:
            raise ValueError("need four viewport bounds")
        w, h = args.px.lower().split("x")
        viewport = Viewport(parts[0], parts[1], parts[2], parts[3], int(w), int(h))
    except ValueError as e:
        raise _UsageError(f"bad viewport: {e}") from e
    path = args.path
    if path is None:
        path = os.path.join(cfg.out_dir, "escape.ppm")
    _ensure_dir(os.path.dirname(path) or os.curdir)
    try:
        summary = render_escape(a, viewport, args.max_iter, path, args.escape_re)
    except OSError as e:  # e.g. the path names a directory
        raise _UsageError(f"cannot write {path!r}: {e}") from e
    except MemoryError as e:  # a tile too large to allocate
        raise _UsageError(f"cannot allocate a {args.px} tile: {e}") from e
    _emit(summary.to_json(), cfg)
    return EXIT_OK


def _cmd_cycle(args, cfg: RunConfig) -> int:
    from .plane import NoConvergenceError, find_cycle
    a = _parse_complex(args.a)
    seed = _parse_complex(args.seed_point)
    # each of up to 200 Newton steps walks the whole period
    if args.period > cfg.budget:
        raise _UsageError(f"period {args.period} exceeds the budget {cfg.budget}")
    try:
        info = find_cycle(a, args.period, seed)
    except NoConvergenceError as e:
        _emit({"error": "no_convergence", "detail": str(e)}, cfg)
        return EXIT_FAIL
    _emit(info.to_json(), cfg)
    return EXIT_OK


def _cmd_verify(args, cfg: RunConfig) -> int:
    from .verify import run_all
    _ensure_dir(cfg.out_dir)
    report = run_all(cfg)
    if cfg.fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for suite in report["suites"]:
            mark = "pass" if suite["passed"] else "FAIL"
            print(f"{mark}  {suite['name']}")
        print("overall:", "pass" if report["passed"] else "FAIL")
    return EXIT_OK if report["passed"] else EXIT_FAIL


_COMMANDS = {
    "tstar": _cmd_tstar,
    "tmin": _cmd_tmin,
    "classify": _cmd_classify,
    "strata": _cmd_strata,
    "witness": _cmd_witness,
    "render": _cmd_render,
    "cycle": _cmd_cycle,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        cfg = _config(args)
        return _COMMANDS[args.command](args, cfg)
    except (_UsageError, ValueError, DescriptorError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, NonConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

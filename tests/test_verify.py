"""Each ``verify`` suite fails when its invariant breaks.

The seeded ``verify`` run passes every suite, so its failure reports are
never read there.  Each case here replaces a name that a suite reads inside
``expbouquet.verify`` so that its invariant fails, and checks that the suite
reports ``passed: False`` with its failures.  Most break it grossly; the near
misses break it by 1e-7 only, a gap that certain enclosures still show: each
suite that decides its cases by interval relations counts such a case as
refuted, where a comparison of midpoints with a slack would let it pass.
"""

import itertools
import math

import pytest

from expbouquet import model, strata, verify
from expbouquet.cli import RunConfig
from expbouquet.intervals import Interval, TriBool, growth_net
from expbouquet.model import BudgetExceededError, NonConvergenceError, endpoint_height_enclosure
from expbouquet.sequences import fexp_seq


def _cycling(*values):
    """A stand-in returning the given values in turn, forever."""
    it = itertools.cycle(values)
    return lambda *args, **kwargs: next(it)


def _real_once(name, value):
    """A stand-in calling the real ``verify.<name>`` once, then returning value."""
    real, calls = getattr(verify, name), itertools.count()
    return lambda *args: real(*args) if next(calls) == 0 else value


def _reversed_witnesses(*args, **kwargs):
    # distances and height gaps then grow along the family
    return list(reversed(_REAL_WITNESS_FAMILY(*args, **kwargs)))


def _raise(*args, **kwargs):
    raise ValueError("no extension")


def _stalled(*args):
    raise NonConvergenceError(Interval(0.0, 1.0))


def _real_then_plus(name, delta):
    """A stand-in returning the real ``verify.<name>`` value, then that value plus delta, in turn."""
    real, calls = getattr(verify, name), itertools.count()
    return lambda *args: real(*args) + delta * (next(calls) % 2)


def _witnesses_above_base(seq, n):
    # the closure-bound family's witnesses (they have a prefix) read 1e-7
    # above the height of their base, fexp 10, at every shift
    if seq.prefix:
        return Interval.point(endpoint_height_enclosure(fexp_seq(10).shift(n)).hi + 1e-7)
    return _REAL_POTENTIAL(seq, n)


_REAL_WITNESS_FAMILY = verify.witness_family
_REAL_POTENTIAL = verify.potential

# suite, {name in expbouquet.verify: stand-in factory}
CASES = [
    ("inverse_growth_strictness", {"growth_inv_pow": lambda: _cycling(Interval.point(0.0))}),
    ("sandwich", {"endpoint_height": lambda: _stalled}),
    ("domination", {"endpoint_height_enclosure": lambda: _cycling(Interval.point(1.0),
                                                                  Interval.point(0.0))}),
    ("backward_nesting", {"endpoint_lower_bound": lambda: lambda seq, n: Interval.point(-n)}),
    ("backward_nesting", {"endpoint_lower_bound": lambda: _cycling(Interval.point(1e9))}),
    ("shift_identity", {"potential": lambda: lambda seq, n: Interval.point(float(n))}),
    ("floor_window", {"potential_term": lambda: _cycling(Interval.point(-1.0))}),
    ("witness_claims", {"witness_family": lambda: _reversed_witnesses}),
    # the family is built at the real base height; then the witnesses (they
    # have a prefix) read -1 at shift 0, which is skipped, and 100 above it,
    # far above the base's heights and potentials
    ("closure_bound", {
        "potential": lambda: lambda seq, n: Interval.point(
            -1.0 if n == 0 else 100.0 if seq.prefix else 0.0),
        "endpoint_height_enclosure": lambda: _real_once("endpoint_height_enclosure",
                                                        Interval.point(0.0))}),
    # each base reads 0 at its limit, then 1e3 and 0 in turn over 13 approximations
    ("lower_semicontinuity", {"endpoint_height_enclosure": lambda: _cycling(
        *(Interval.point(1e3 * (i % 2)) for i in range(14)))}),
    ("stratum_nesting", {"in_stratum": lambda: lambda alpha, *args: TriBool(alpha.dom == 1)}),
    ("extension", {"in_stratum": lambda: lambda alpha, *args: TriBool(alpha.dom == 0)}),
    ("extension", {"extension_index": lambda: _raise}),
]

# each breaks its invariant by 1e-7, below the 1e-6 slack these suites once allowed
NEAR_MISSES = [
    # every potential reads 1e-7 above the endpoint height
    ("sandwich", {"potential": lambda: lambda seq, n: Interval.point(
        endpoint_height_enclosure(seq).hi + 1e-7)}),
    ("domination", {"endpoint_height_enclosure": lambda: _cycling(Interval.point(1.0 + 1e-7),
                                                                  Interval.point(1.0))}),
    ("backward_nesting", {"endpoint_lower_bound": lambda: lambda seq, n: Interval.point(-1e-7 * n)}),
    ("shift_identity", {"potential": lambda: _real_then_plus("potential", 1e-7)}),
    # every term reads 1e-7 above the top F^e of its window
    ("floor_window", {"potential_term": lambda: lambda seq, n, k: growth_net(
        seq.tail.c, n + 1 - k) + 1e-7}),
    ("closure_bound", {"potential": lambda: _witnesses_above_base}),
    # each base reads 1 at its limit, then 1 + 1e-7 over its 13 approximations
    ("lower_semicontinuity", {"endpoint_height_enclosure": lambda: _cycling(
        Interval.point(1.0), *[Interval.point(1.0 + 1e-7)] * 13)}),
]
CASES += NEAR_MISSES


@pytest.mark.parametrize("suite, patches", CASES, ids=[
    f"{s}-{'-'.join(p)}" for s, p in CASES[:-len(NEAR_MISSES)]] + [
    f"{s}-1e-7" for s, _ in NEAR_MISSES])
def test_each_suite_fails_when_its_invariant_breaks(suite, patches, monkeypatch):
    for name, make in patches.items():
        monkeypatch.setattr(verify, name, make())
    report = getattr(verify, f"suite_{suite}")(RunConfig())
    assert report["name"] == suite
    assert report["passed"] is False
    if "failures" in report["details"]:
        assert report["details"]["failures"]


def test_every_suite_has_a_breaking_case():
    assert {s for s, _ in CASES} == {fn.__name__.removeprefix("suite_") for fn in verify.ALL_SUITES}


def test_sandwich_checks_only_finite_potentials(monkeypatch):
    # a non-finite potential has no sandwich to check: none is counted, so too few are
    monkeypatch.setattr(verify, "potential", lambda seq, n: Interval(0.0, math.inf, False, True))
    report = verify.suite_sandwich(RunConfig())
    assert report["passed"] is False
    assert report["details"]["checked"] == 0 and report["details"]["failures"] == []


def _out_of_budget(*args, **kwargs):
    raise BudgetExceededError("stand-in budget")


@pytest.mark.parametrize("suite, name", [("witness_claims", "witness_family"),
                                         ("closure_bound", "witness_family"),
                                         ("extension", "extension_index")])
def test_a_case_past_the_budget_is_undecided_and_any_other_error_fails(suite, name, monkeypatch):
    # an exhausted budget decides nothing either way: the suite counts each
    # such case undecided with its message and passes; any other error fails it
    monkeypatch.setattr(verify, "ALL_SUITES", (getattr(verify, f"suite_{suite}"),))
    monkeypatch.setattr(verify, name, _out_of_budget)
    (report,) = verify.run_all(RunConfig())["suites"]
    stopped = report["details"]["undecided_cases"]
    assert report["passed"] is True and report["details"]["undecided"] >= len(stopped) >= 1
    assert {c["reason"] for c in stopped} == {"stand-in budget"}
    monkeypatch.setattr(verify, name, _raise)
    (report,) = verify.run_all(RunConfig())["suites"]
    assert report["passed"] is False


@pytest.mark.parametrize("suite", ["witness_claims", "closure_bound"])
def test_a_refuted_witness_claim_fails_the_suite(suite, monkeypatch):
    # witness heights far above the base height certainly refute the claim that
    # they stay below it: no budget mends that, so the suite fails and lists no undecided
    # case; it records the error among its own failures beside its tally, so the
    # failure does not come from run_all's clause for a suite that crashed
    def only_for_witnesses(real):
        return lambda seq, *args: Interval.point(1e6) if seq.cut else real(seq, *args)
    for module in (strata, model):  # the endpoint test in model reads the height too
        monkeypatch.setattr(module, "endpoint_height_enclosure",
                            only_for_witnesses(module.endpoint_height_enclosure))
    monkeypatch.setattr(verify, "ALL_SUITES", (getattr(verify, f"suite_{suite}"),))
    (report,) = verify.run_all(RunConfig())["suites"]
    details = report["details"]
    assert report["passed"] is False and "undecided_cases" not in details
    assert "error" not in details and {"proved", "refuted", "undecided"} <= details.keys()
    assert {"alpha": [0], "error": "witness height exceeds the base height"} in details["failures"]


@pytest.mark.parametrize("parent, counted", [(TriBool.no(), "undecided"),
                                             (TriBool.yes(), "proved")])
def test_stratum_nesting_counts_an_unknown_child(parent, counted, monkeypatch):
    # the suite asks for the child's membership, then the parent's: an unknown child, which
    # once passed uncounted, decides nothing beside a non-member parent, and a member
    # parent proves the case whatever the child
    monkeypatch.setattr(verify, "in_stratum", _cycling(TriBool.unknown(), parent))
    details = verify.suite_stratum_nesting(RunConfig())["details"]
    assert details["failures"] == [] and details["checked"] == 9
    assert {k: details[k] for k in ("proved", "refuted", "undecided")} == {
        "proved": 0, "refuted": 0, "undecided": 0, counted: 9}


def test_extension_counts_an_uncertified_base_undecided(monkeypatch):
    # a base whose membership is not certified is drawn again; each such draw, once skipped
    # uncounted, is undecided, and each certified member's child membership is counted
    monkeypatch.setattr(verify, "in_stratum", _cycling(TriBool.unknown(), TriBool.yes(),
                                                       TriBool.yes()))
    monkeypatch.setattr(verify, "extension_index", lambda *args: 1)
    report = verify.suite_extension(RunConfig())
    details = report["details"]
    assert report["passed"] is True and details["checked"] == 25
    assert (details["proved"], details["refuted"], details["undecided"]) == (25, 0, 25)

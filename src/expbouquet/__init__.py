"""Certified numerics for the Cantor-bouquet model of exp(z) - 1.

Core surfaces:

* ``sequences`` - rule-described integer sequences (constant, periodic,
  iterated-exponential tower, exponential ramp) with symbolic entries.
* ``model``     - certified potentials, endpoint heights, point
  classification for the half-line-times-sequence model dynamics.
* ``strata``    - the escaping-endpoint stratification, membership and
  extension certificates, nowhere-density witness families.
* ``plane``     - companion dynamics for exp(z) + a: orbits, itineraries,
  cycles, escape-time rendering.
* ``cli``       - the ``expbouquet`` command.

Plane and ``verify`` names load on first use: numpy comes only with ``plane``.
"""

import importlib

from .intervals import Interval, RigorError, TriBool
from .model import (
    BudgetExceededError,
    Classification,
    ModelPoint,
    NonConvergenceError,
    Verdict,
    classify,
    endpoint_height,
    endpoint_height_enclosure,
    endpoint_lower_bound,
    is_escaping_endpoint_address,
    potential,
    potential_term,
)
from .sequences import (
    Asymptotics,
    ConstTail,
    DescriptorError,
    ExpTowerTail,
    IncomparableTailsError,
    LinExpTail,
    PeriodicTail,
    SymbolSeq,
    const_seq,
    fexp_seq,
    linexp_seq,
    periodic_seq,
)
from .strata import (
    AlphaIndex,
    WitnessReport,
    address_distance,
    extension_index,
    in_stratum,
    least_witness_depth,
    point_distance,
    witness_cut_index,
    witness_family,
    witness_sequence,
)

__version__ = "0.1.0"

# names whose module loads on first access (PEP 562): plane and verify need numpy
_LAZY = {
    **dict.fromkeys(("CycleInfo", "NoConvergenceError", "RenderSummary", "Viewport",
                     "exp_orbit", "find_cycle", "render_escape", "strip_itinerary"), ".plane"),
    "RunConfig": ".cli",
    "run_all": ".verify",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name], __name__), name)

__all__ = [
    "AlphaIndex",
    "Asymptotics",
    "BudgetExceededError",
    "Classification",
    "ConstTail",
    "CycleInfo",
    "DescriptorError",
    "ExpTowerTail",
    "IncomparableTailsError",
    "Interval",
    "LinExpTail",
    "ModelPoint",
    "NoConvergenceError",
    "NonConvergenceError",
    "PeriodicTail",
    "RenderSummary",
    "RigorError",
    "RunConfig",
    "SymbolSeq",
    "TriBool",
    "Verdict",
    "Viewport",
    "WitnessReport",
    "address_distance",
    "classify",
    "const_seq",
    "endpoint_height",
    "endpoint_height_enclosure",
    "endpoint_lower_bound",
    "exp_orbit",
    "extension_index",
    "fexp_seq",
    "find_cycle",
    "in_stratum",
    "is_escaping_endpoint_address",
    "least_witness_depth",
    "linexp_seq",
    "periodic_seq",
    "point_distance",
    "potential",
    "potential_term",
    "render_escape",
    "run_all",
    "strip_itinerary",
    "witness_cut_index",
    "witness_family",
    "witness_sequence",
]

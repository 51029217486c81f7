"""Every query of the render, certify and ramp benchmark pools against its frozen output.

Each query runs once through ``perfbench/workloads.execute``, the chain one CLI
invocation runs minus argparse and printing, and its JSON text must equal the
reference stored with it in ``perfbench/reference/<workload>.json`` byte for
byte (render tiles by their sha256).  A query that raises fails the test.
The tolerance and budgets the pools run must be the library's defaults.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import workloads  # noqa: E402

from expbouquet import model, strata  # noqa: E402
from expbouquet.intervals import DEFAULT_TOL  # noqa: E402

POOLS = ("render", "certify", "ramp")


def test_every_pool_query_matches_its_reference(tmp_path):
    api = workloads.Api(tmp_path)
    changed, total = [], 0
    for name in POOLS:
        for cell in workloads.load(name)["cells"].values():
            for q in cell["queries"]:
                _, text, _ = workloads.execute(api, q)
                total += 1
                if text != json.dumps(q["ref"], sort_keys=True):
                    changed.append((name, q["op"], text[:300]))
    assert total == 1742
    assert changed == []


def test_the_pools_run_the_library_defaults():
    # the benchmark keeps its own copies of the CLI defaults; a changed default fails here
    assert workloads.TOL == DEFAULT_TOL
    assert workloads.BUDGET == strata.DEFAULT_BUDGET
    assert workloads.CLASSIFY_BUDGET == model.CLASSIFY_BUDGET

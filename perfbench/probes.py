"""Fresh-interpreter probes: set-up time, import times and CLI cold starts.

Each probe spawns the interpreter running the benchmark with ``src`` of the
checkout on PYTHONPATH and waits for it to exit; callers take the median
over several spawns.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# what a fresh process needs before the workload's first query
READY = {
    "certify": "import expbouquet",
    "ramp": "import expbouquet",
    "render": "import expbouquet, numpy",
}
COLD_STARTS = {
    "tstar": ["tstar", '{"prefix": [], "tail": {"kind": "fexp", "c": 3}}'],
    "tmin": ["tmin", '{"prefix": [0, 5], "tail": {"kind": "const", "c": 0}}'],
    "render": ["render", "--a", "-1"],
}
TIMEOUT_S = 60


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _spawn(args: list[str], root: Path) -> tuple[float, str]:
    """Seconds from spawn to exit of ``python args``, and its stderr."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=root, env=_env(root),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S, check=True)
    return time.perf_counter() - t0, done.stderr


def setup_s(root: Path, workload: str) -> float:
    """Seconds for one fresh interpreter to get ready for the workload's first query."""
    return _spawn(["-c", READY[workload]], root)[0]


def _cumulative_s(importtime: str, module: str) -> float:
    """Cumulative import seconds of ``module`` from ``-X importtime`` output (0 if absent)."""
    for line in importtime.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    return 0.0


def cli_metrics(root: Path, out_dir: Path, repeats: int) -> dict:
    """cli.import_s, cli.import_numpy_s and cli.cold_start_s.* (medians)."""
    logs = [_spawn(["-X", "importtime", "-c", "import expbouquet"], root)[1]
            for _ in range(repeats)]
    out = {
        "cli.import_s": statistics.median(_cumulative_s(s, "expbouquet") for s in logs),
        "cli.import_numpy_s": statistics.median(_cumulative_s(s, "numpy") for s in logs),
    }
    for name, argv in COLD_STARTS.items():
        cmd = ["-m", "expbouquet", *argv, "--out", str(out_dir)]
        out[f"cli.cold_start_s.{name}"] = statistics.median(
            _spawn(cmd, root)[0] for _ in range(repeats))
    return out


def machine(root: Path) -> dict:
    """Where the numbers were measured: cores, Python, numpy and the git sha."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=TIMEOUT_S, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha or "unknown"}

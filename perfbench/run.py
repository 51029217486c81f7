"""expbouquet benchmark: closed-loop query workloads with a sound reference check.

    python3 perfbench/run.py --workload certify|ramp|render --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One process and one thread send each query after the previous one returns
(a closed loop with one client).  ``--trace 0`` measures the end-to-end
metrics with tracing off, over as many rounds of the stream as take about
``--seconds`` at the reference commit, with query times scaled to a
reference machine speed by the gauge in ``speed.py``; ``--trace 1``
replays a fixed stretch of the stream untraced and then traced, and
reports the per-layer metrics.  Every output is checked against the
reference frozen in ``reference/``; the last line of stdout is the JSON
result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

import estimate  # noqa: E402
import layers  # noqa: E402
import probes  # noqa: E402
import refcheck  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# (name, unit); every untraced run reports each of them
END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("certified_share", "share"),
    ("peak_rss_mb", "MB"),
]
SETUP_SPAWNS = 12
CLI_SPAWNS = 5
TAIL_BEYOND = 10
MAX_ERRORS_SHOWN = 5


class Tally:
    """Latencies, outcome counts and the output fingerprint of a query sequence."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) of each latency
        self.busy = 0.0
        self.attempted = self.failed = self.certified = self.changed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def run(self, api, q: dict, tracer: Tracer | None = None) -> None:
        qid = self.attempted
        self.attempted += 1
        root = tracer.begin(f"query.{q['op']}") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out, text, certified = workloads.execute(api, q, tracer)
        except Exception as e:  # any exception but an honest outcome fails the query
            self.busy += time.perf_counter() - t0
            self.failed += 1
            self.errors.append(f"query {qid} ({q['op']}): {type(e).__name__}: {e}")
            if root is not None:
                tracer.unwind(root, error=type(e).__name__)
            return
        t1 = time.perf_counter()
        dt = t1 - t0
        if tracer is not None:
            tracer.end(root)
        self.busy += dt
        self.latencies.append(dt)
        self.spans.append((t0, t1))
        self.digest.update(text.encode() + b"\n")
        if text != json.dumps(q["ref"], sort_keys=True):
            self.changed += 1
        errs = refcheck.problems(q, out)
        if errs:
            self.failed += 1
            self.errors.append(f"query {qid} ({q['op']}): {'; '.join(errs)}")
        elif certified:
            self.certified += 1


def closed_loop(api, queries: list, seconds: float, probe) -> tuple[Tally, speed.Gauge, list]:
    """Run the queries back to back; the gauge's kernel and ``probe()`` run among them.

    The kernel runs after every query that leaves it below its share of the
    run.  The probes run SETUP_SPAWNS times, spread evenly over the queries,
    so set-up samples meet the same machine conditions as the queries do;
    each sample is (start, end, seconds).  A wall-clock guard stops early if
    the program has become so slow that the run would not end in time.
    """
    tally, gauge, samples = Tally(), speed.Gauge(), []

    def spawn():
        t0 = time.perf_counter()
        s = probe()
        samples.append((t0, time.perf_counter(), s))

    guard = time.perf_counter() + 3 * seconds + 10
    for i, q in enumerate(queries):
        if len(samples) < SETUP_SPAWNS and i >= len(samples) * len(queries) / SETUP_SPAWNS:
            spawn()
        tally.run(api, q)
        gauge.top_up(tally.busy)
        if time.perf_counter() > guard:
            break
    while len(samples) < SETUP_SPAWNS:
        spawn()
    return tally, gauge, samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    That is the (n-10)-th of the n ordered samples, at the quantile
    (n-10)/(n+1); with fewer than eleven samples, the largest.  Returns
    the Harrell-Davis estimate at that quantile, the percentile and the
    number of samples beyond it.
    """
    n = len(latencies)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    p = rank / (n + 1)
    return estimate.harrell_davis(latencies, p), 100.0 * p, n - rank


def p50(latencies: list[float]) -> float:
    return estimate.harrell_davis(latencies, 0.5)


def end_to_end(api, pool: dict, args) -> tuple[dict, Tally, dict]:
    n_rounds = workloads.rounds_for(args.workload, args.seconds)
    tally, gauge, setup = closed_loop(api, workloads.take(pool, args.seed, n_rounds),
                                      args.seconds, lambda: probes.setup_s(ROOT, args.workload))
    wall = tally.latencies
    if not wall:
        raise SystemExit("no query completed")
    factors = [gauge.factor(t0, t1) for t0, t1 in tally.spans]
    lat = [dt * f for dt, f in zip(wall, factors)]
    tail_s, pct, beyond = tail(lat)
    values = {
        "setup_s": statistics.median(s * gauge.factor(t0, t1) for t0, t1, s in setup),
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": p50(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "certified_share": tally.certified / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"rounds": n_rounds, "samples": len(lat), "tail_percentile": pct,
             "tail_samples_beyond": beyond,
             "kernel_ms": gauge.mean_s() * 1e3, "kernel_samples": len(gauge.times),
             "speed_factor_p50": statistics.median(factors),
             "wall": {"setup_s": statistics.median(s for _, _, s in setup),
                      "queries_per_s": len(wall) / sum(wall),
                      "latency_p50_ms": p50(wall) * 1e3,
                      "latency_tail_ms": tail(wall)[0] * 1e3}}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, tally, extra


def per_layer(api, pool: dict, args) -> tuple[dict, Tally, dict]:
    n_rounds = workloads.TRACE_ROUNDS[args.workload]
    queries = workloads.take(pool, args.seed, n_rounds)
    for other, other_rounds in workloads.COMPLEMENT[args.workload]:
        queries += workloads.take(workloads.load(other), args.seed, other_rounds)
    tally = Tally()
    for q in queries:
        tally.run(api, q)
    plain_busy = tally.busy
    tracer = Tracer()
    layers.install(tracer, api)
    try:
        for i, q in enumerate(queries):
            tracer.query_id = i
            tally.run(api, q, tracer)
    finally:
        tracer.restore()

    values = layers.from_spans(tracer, queries)
    values.update(layers.interval_ns(api, args.seed))
    model_seqs = [q["seq"] for q in queries if q["op"] in ("tstar", "tmin", "classify", "strata")]
    values["sequences.entry_us"] = layers.entry_us(api, model_seqs)
    values.update(probes.cli_metrics(ROOT, OUT_DIR, CLI_SPAWNS))
    values["trace.overhead_share"] = (tally.busy - plain_busy) / plain_busy - 1.0

    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "query", "attrs"],
                   "spans": tracer.spans, "summary": tracer.summary()}, fh)
    extra = {"rounds": n_rounds, "complement": workloads.COMPLEMENT[args.workload],
             "queries": len(queries),
             "trace_file": str(trace_file.relative_to(ROOT))}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    return metrics, tally, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TRACE_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import expbouquet

    if Path(expbouquet.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"expbouquet imported from {expbouquet.__file__}, not from {src}")
    OUT_DIR.mkdir(exist_ok=True)
    api = workloads.Api(OUT_DIR)
    pool = workloads.load(args.workload)

    measure = per_layer if args.trace else end_to_end
    metrics, tally, extra = measure(api, pool, args)

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_share": tally.failed / tally.attempted,
        "fingerprint": tally.digest.hexdigest(), "outputs_changed": tally.changed,
        **extra, "machine": probes.machine(ROOT), "errors": tally.errors[:MAX_ERRORS_SHOWN],
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"summary": summary, "metrics": metrics}, fh, indent=1)
    print("summary " + json.dumps(summary))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

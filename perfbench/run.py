"""The colorrange benchmark: seeded workloads, checked answers, one JSON line.

    python3 perfbench/run.py --workload static-mixed --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from `src/`.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with no
instrumentation: the set-up (median of several), a closed loop of one client
for --seconds in which the index and the flat baseline take turns on the
same ops, an untimed build under tracemalloc and a metered pass. --trace 1
wraps the library's public calls (see layers.py), runs a fixed prefix of the
same ops plain and then traced, and reports the per-layer metrics. Every
answer is checked against the flat baseline; a failed op is counted, never
fatal. The last line of stdout is `{"correct", "attempted", "failed",
"metrics"}`; details and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "colorrange" / "__init__.py").is_file():
    sys.exit(f"run.py: no colorrange package under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import colorrange  # noqa: E402
from colorrange import core  # noqa: E402

from layers import HOOKS, LOAD, SETUP, Trace, layer_metrics  # noqa: E402
from reference import FlatIndex, answer_ok  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (INSERT, QUERY, WORKLOADS, bind_labels,  # noqa: E402
                       make_ops, make_pairs)

OUT = HERE / "out"
SETUP_REPS = 5          # set-ups per run; setup_s is their median
BLOCK = 200             # ops per turn of the index and of the flat baseline
METERED_OPS = 5000      # fixed op prefix of the metered pass
# ops of the traced run per second of --seconds (run twice: plain and traced)
TRACE_OPS_PER_SECOND = {"static": 1500, "em": 800, "dynamic": 800}


def build(spec, points):
    kind = spec["index"]
    if kind == "static":
        return colorrange.StaticIndex(points)
    if kind == "em":
        return colorrange.EmIndex.build(points, B=spec["block"])
    return colorrange.DynamicIndex(points)


def set_up(spec, pairs):
    """What setup_s times: generated pairs to a queryable index."""
    points, remap = core.normalize_input(pairs)
    return points, remap, build(spec, points)


def run_ops(index, ops, meter=None, tracer=None, first=0):
    """Closed loop, one op at a time; returns (results, latencies_ns, wall_ns).

    A result is the query answer, None for an update, or the exception the
    op raised. With a tracer, op i runs under op id first + i.
    """
    query = index.query
    insert = getattr(index, "insert", None)
    delete = getattr(index, "delete", None)
    clock = time.perf_counter_ns
    results, lat = [], []
    start = clock()
    for i, (kind, x, y) in enumerate(ops):
        if tracer is not None:
            tracer.op = first + i
        t0 = clock()
        try:
            if kind == QUERY:
                r = query(x, y, meter)
            elif kind == INSERT:
                r = insert(x, y)
            else:
                r = delete(x)
        except Exception as exc:  # a failed op: counted, never fatal
            r = exc
        lat.append(clock() - t0)
        results.append(r)
    return results, lat, clock() - start


class Tally:
    """Latencies, wall time and failures of the index beside the flat
    baseline on the same ops."""

    def __init__(self):
        self.q_lat, self.u_lat, self.flat_q_lat = [], [], []
        self.index_ns = self.flat_ns = 0
        self.done = self.failed = 0


def paired_loop(index, flat, ops, seconds, seed, meter=None, tracer=None):
    """The index and the flat baseline take turns on blocks of BLOCK ops
    until `seconds` have passed (None: until the ops run out). Each block's answers
    are checked against the baseline's once both have run it, outside the
    timings; a few blocks also check the baseline against oracle_report.
    Taking turns puts both under the same machine load, so their ratio
    cancels drift that a later baseline pass would not.
    """
    rng = random.Random(seed)
    tally = Tally()
    clock = time.perf_counter_ns
    deadline = None if seconds is None else clock() + int(seconds * 1e9)
    gc.collect()
    gc.freeze()  # keep full collections over the index out of the timings
    try:
        for n, first in enumerate(range(0, len(ops), BLOCK)):
            block = ops[first:first + BLOCK]
            got, lat, ns = run_ops(index, block, meter, tracer, first)
            want, flat_lat, flat_ns = run_ops(flat, block)
            tally.index_ns += ns
            tally.flat_ns += flat_ns
            tally.done += len(block)
            for op, g, w, t, ft in zip(block, got, want, lat, flat_lat):
                if isinstance(w, Exception):
                    raise w  # the baseline itself failed: no verdict possible
                if op[0] == QUERY:
                    tally.q_lat.append(t)
                    tally.flat_q_lat.append(ft)
                    tally.failed += not answer_ok(g, w)
                else:
                    tally.u_lat.append(t)
                    tally.failed += isinstance(g, Exception)
            if n & (n - 1) == 0:  # blocks 0, 1, 2, 4, 8, ...
                queries = [op for op in block if op[0] == QUERY]
                if queries:
                    _, a, b = rng.choice(queries)
                    if not flat.matches_oracle(a, b):
                        raise RuntimeError(f"flat baseline disagrees with "
                                           f"oracle_report on [{a}, {b}]")
            if deadline is not None and clock() >= deadline:
                break
    finally:
        gc.unfreeze()
    return tally


def self_test(spec):
    """The checker must count corrupted answers (in the style of
    `colorrange verify --corrupt`) and duplicated colors as failures."""
    tiny = dict(spec, n=512)
    pairs = make_pairs(tiny, 0)
    points, remap, index = set_up(tiny, pairs)
    ops = bind_labels(make_ops(tiny, 0, pairs, 0.05), remap)

    class Corrupting:
        corrupted = 0

        def query(self, a, b, meter=None):
            got = index.query(a, b, meter)
            if got:
                self.corrupted += 1
                got = got[:-1] if self.corrupted % 2 else got + got[:1]
            return got

        def __getattr__(self, name):
            return getattr(index, name)

    bad = Corrupting()
    failed = paired_loop(bad, FlatIndex(points), ops, None, 0).failed
    if bad.corrupted == 0 or failed != bad.corrupted:
        sys.exit(f"run.py: self-test counted {failed} of {bad.corrupted} "
                 f"corrupted answers as failed")


def percentile_us(lat_ns, q):
    return float(np.percentile(np.asarray(lat_ns, dtype=np.float64), q)) / 1e3


def measure(spec, seed, seconds):
    """The untraced run: end-to-end metrics plus details."""
    pairs = make_pairs(spec, seed)
    raw_ops = make_ops(spec, seed, pairs, seconds)

    setup_times = []
    index = None
    for _ in range(SETUP_REPS):
        index = None
        gc.collect()
        t0 = time.perf_counter()
        points, remap, index = set_up(spec, pairs)
        setup_times.append(time.perf_counter() - t0)
    ops = bind_labels(raw_ops, remap)

    tally = paired_loop(index, FlatIndex(points), ops, seconds, seed)
    attempted, failed = tally.done, tally.failed

    details = {}
    if spec["index"] == "em":
        load_times = []
        for _ in range(SETUP_REPS):
            data = index.to_bytes()
            t0 = time.perf_counter()
            loaded = colorrange.EmIndex.from_bytes(data)
            load_times.append(time.perf_counter() - t0)
            attempted += 1
            failed += loaded.to_bytes() != data
        details["load_s"] = statistics.median(load_times)
    index = loaded = None

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh = build(spec, points)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    meter = colorrange.CostMeter()
    metered = ops[:METERED_OPS]
    run_ops(fresh, metered, meter=meter)
    nq_metered = max(1, sum(op[0] == QUERY for op in metered))
    cost = (meter.touches + meter.locate_ops + meter.block_reads) / nq_metered

    q50, q99 = percentile_us(tally.q_lat, 50), percentile_us(tally.q_lat, 99)
    f50, f99 = percentile_us(tally.flat_q_lat, 50), percentile_us(tally.flat_q_lat, 99)
    # Gated: same-run ratios to the flat baseline, set-up time and exact
    # counts. Absolute latencies drift by up to 2x with the machine's load,
    # so they are reported in `details` and not gated.
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_p50_x_flat": (q50 / f50, "ratio"),
        "query_p99_x_flat": (q99 / f99, "ratio"),
        "ops_per_s_x_flat": (tally.flat_ns / tally.index_ns, "ratio"),
        "bytes_per_point": (retained / len(points), "B"),
        "cost_per_query": (cost, "count"),
    }
    details.update({
        "query_p50_us": q50, "query_p99_us": q99, "queries": len(tally.q_lat),
        "flat_p50_us": f50, "flat_p99_us": f99,
        "ops_per_s": tally.done / (tally.index_ns / 1e9),
        "setup_times_s": setup_times,
        "failed_op_share": failed / attempted,
    })
    if tally.u_lat:
        details["update_p50_us"] = percentile_us(tally.u_lat, 50)
        details["update_p99_us"] = percentile_us(tally.u_lat, 99)
        details["updates"] = len(tally.u_lat)
    if spec["index"] == "em":
        details["transfers_per_query"] = cost
    return attempted, failed, metrics, details


def traced(spec, seed, seconds, workload):
    """The traced run: the same op prefix plain, then traced; per-layer metrics."""
    pairs = make_pairs(spec, seed)
    count = max(1, int(TRACE_OPS_PER_SECOND[spec["index"]] * seconds))
    raw_ops = make_ops(spec, seed, pairs, seconds)[:count]

    points, remap, index = set_up(spec, pairs)
    ops = bind_labels(raw_ops, remap)
    plain = paired_loop(index, FlatIndex(points), ops, None, seed)
    index = None

    meter = colorrange.CostMeter()
    tracer = Tracer(meter)
    tracer.install(HOOKS)
    attempted, failed = 2 * len(ops), plain.failed
    try:
        tracer.op = SETUP
        points, remap, index = set_up(spec, pairs)
        tally = paired_loop(index, FlatIndex(points), ops, None, seed,
                            meter, tracer)
        failed += tally.failed
        if spec["index"] == "em":
            tracer.op = LOAD
            data = index.to_bytes()
            loaded = colorrange.EmIndex.from_bytes(data)
    finally:
        tracer.uninstall()
    if spec["index"] == "em":
        attempted += 1
        failed += loaded.to_bytes() != data

    kinds = ["query" if op[0] == QUERY else "update" for op in ops]
    trace = Trace(tracer, kinds, getattr(index, "fallback", None), len(points))
    metrics, gone = layer_metrics(trace, tracer.missing)
    metrics["trace.overhead"] = {"value": tally.index_ns / plain.index_ns,
                                 "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-spans.csv")
    details = {"ops": len(ops), "spans": len(tracer.spans), "missing": gone,
               "plain_ops_per_s": len(ops) / (plain.index_ns / 1e9),
               "traced_ops_per_s": len(ops) / (tally.index_ns / 1e9)}
    return attempted, failed, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    self_test(spec)
    if args.trace:
        attempted, failed, metrics, details = traced(spec, args.seed, args.seconds,
                                                     args.workload)
    else:
        attempted, failed, raw, details = measure(spec, args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "metrics": metrics, "details": details}
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
    for name, v in details.items():
        if not isinstance(v, list) or name == "missing":
            print(f"  ({name}: {v})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the colorrange benchmark.

Every workload drives one index with a closed loop and one client: the next
operation is sent only after the previous answer is back, which is how
callers of `query`/`insert`/`delete` use the library. The library sees only
the `(value, label)` pairs and the operation tuples made here.

Operations are tuples `(kind, x, y)`: `(QUERY, a, b)`, `(INSERT, value,
label)` and `(DELETE, value, 0)`. Insert labels are mapped to color ids by
the caller, through the `ColorRemap` that `normalize_input` returns.

The sizes are chosen so that 70 runs of 10 seconds, each with repeated
set-ups and a tracemalloc build, fit in under an hour on a 2-core machine.
"""

from __future__ import annotations

import random

import numpy as np

QUERY, INSERT, DELETE = 0, 1, 2

_STATIC_DATA = {"n": 1 << 16, "universe": 1 << 18, "labels": 4096,
                "label_dist": "zipf", "zipf_exponent": 1.5}
_STATIC_WIDTHS = ((64, 0.7), (4096, 0.2), (_STATIC_DATA["universe"] // 4, 0.1))

WORKLOADS = {
    "static-mixed": {
        "index": "static",
        **_STATIC_DATA,
        "widths": _STATIC_WIDTHS,
        "why": ("Read-only. p50 sits in the narrow route (locate, HRA search, "
                "R/L lists, leaf PST, k below log N); p99 in the wide route "
                "(global fallback ColorPst plus ColArray.dedup)."),
        "exercises": ["core", "backends", "pst", "static_index"],
        "bypasses": ["em_index", "stripe", "wbtree", "slow_index",
                     "dynamic_index"],
    },
    "em-mixed": {
        "index": "em",
        "block": 64,
        **_STATIC_DATA,
        "widths": _STATIC_WIDTHS,
        "why": ("EmIndex (B=64) on the static-mixed data and queries, so a "
                "shared static layout shows on both static indexes; block "
                "transfers are exact; covers the file path (to/from bytes)."),
        "exercises": ["core", "em_index"],
        "bypasses": ["backends", "pst", "ColArray.dedup", "static_index",
                     "stripe", "wbtree", "slow_index", "dynamic_index"],
    },
    "dynamic-churn": {
        "index": "dynamic",
        "n": 1 << 15, "universe": 1 << 17, "labels": 64,
        "label_dist": "uniform",
        "widths": ((64, 0.7), (4096, 0.3)),
        "mix": {"query": 0.5, "insert": 0.25, "delete": 0.25},
        "insert_at": {"append": 0.5, "uniform": 0.5},
        "why": ("Writes beside reads: WbTree splits (half the inserts are "
                "time-ordered appends), stripe and leaf-PST updates, both "
                "SlowIndex trees, slow-index fallback of capped stripe queries."),
        "exercises": ["core", "backends", "pst", "stripe", "wbtree",
                      "slow_index", "dynamic_index"],
        "bypasses": ["static_index", "em_index"],
    },
}

# Operations made per second of `--seconds`: far more than the loop can
# complete today, so a faster library still finds enough input.
_OPS_PER_SECOND = {"static": 20000, "em": 20000, "dynamic": 10000}


def make_pairs(spec: dict, seed: int) -> list:
    """`spec["n"]` distinct coordinates in [1, U] with seeded labels."""
    rng = np.random.default_rng([seed, 0])
    n, universe, labels = spec["n"], spec["universe"], spec["labels"]
    values = rng.choice(universe, size=n, replace=False) + 1
    if spec["label_dist"] == "uniform":
        ids = rng.integers(0, labels, size=n)
    else:
        weights = 1.0 / np.arange(1, labels + 1) ** spec["zipf_exponent"]
        ids = rng.choice(labels, size=n, p=weights / weights.sum())
    return [(v, f"c{c}") for v, c in zip(values.tolist(), ids.tolist())]


def make_ops(spec: dict, seed: int, pairs: list, seconds: float) -> list:
    count = int(_OPS_PER_SECOND[spec["index"]] * seconds) + 1
    if "mix" in spec:
        return _churn_ops(spec, seed, pairs, count)
    return _query_ops(spec, seed, count)


def _stratified(rng: random.Random, shares, count: int, chunk: int) -> list:
    """`count` draws with exact shares in every run of `chunk` draws, so a
    prefix of any length has the workload's mix (a seed changes only the
    order and the values, not the proportions)."""
    pattern = [v for v, p in shares for _ in range(round(p * chunk))]
    out = []
    while len(out) < count:
        rng.shuffle(pattern)
        out.extend(pattern)
    return out[:count]


def _query_ops(spec: dict, seed: int, count: int) -> list:
    rng = random.Random(seed * 1_000_003 + 1)
    universe = spec["universe"]
    ops = []
    for w in _stratified(rng, spec["widths"], count, 10):
        a = rng.randint(1, universe - w + 1)
        ops.append((QUERY, a, a + w - 1))
    return ops


def _churn_ops(spec: dict, seed: int, pairs: list, count: int) -> list:
    """Queries, inserts of fresh coordinates and deletes of random live
    points, so the size stays near N.

    Half of the inserts arrive in coordinate order past the current maximum,
    as time-ordered keys do. They make the rightmost leaves grow and split;
    inserts spread uniformly would leave every WbTree leaf below its split
    size for the whole run.
    """
    rng = random.Random(seed * 1_000_003 + 2)
    labels = spec["labels"]
    kinds = _stratified(rng, [(QUERY, spec["mix"]["query"]),
                              (INSERT, spec["mix"]["insert"]),
                              (DELETE, spec["mix"]["delete"])], count, 4)
    widths = iter(_stratified(rng, spec["widths"], count, 10))
    appends = iter(_stratified(rng, [(True, spec["insert_at"]["append"]),
                                     (False, spec["insert_at"]["uniform"])],
                               count, 2))
    live = [v for v, _ in pairs]
    where = {v: i for i, v in enumerate(live)}
    top = max(live)
    gap = max(1, spec["universe"] // len(live))
    ops = []
    for kind in kinds:
        if kind == QUERY:
            w = next(widths)
            a = rng.randint(1, top - w + 1)
            ops.append((QUERY, a, a + w - 1))
        elif kind == INSERT:
            if next(appends):
                top += rng.randint(1, 2 * gap - 1)
                v = top
            else:
                v = rng.randint(1, top)
                while v in where:
                    v = rng.randint(1, top)
            where[v] = len(live)
            live.append(v)
            ops.append((INSERT, v, f"c{rng.randrange(labels)}"))
        else:
            i = rng.randrange(len(live))
            v = live[i]
            last = live.pop()
            if last != v:
                live[i] = last
                where[last] = i
            del where[v]
            ops.append((DELETE, v, 0))
    return ops


def bind_labels(ops: list, remap) -> list:
    """Insert labels -> dense color ids, through the set-up's remap."""
    return [(INSERT, op[1], remap.id_for(op[2])) if op[0] == INSERT else op
            for op in ops]

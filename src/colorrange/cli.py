"""Command-line harness: dataset/workload generation, building, oracle
verification, and index-file round-trips.

Subcommands:
  generate   deterministic dataset (CSV `value,color_label`)
  build      build an index from a dataset (em: serialize with --out)
  verify     replay a workload on an index and the oracle in lockstep
  dump       print an index file header and check its round-trip

Workload files hold one operation per line: `I value color`, `D value`,
`Q a b`, `K a b k`; '#' starts a comment.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .core import (FastOracle, IndexFileError, load_dataset, normalize_input,
                   save_dataset)
from .dynamic_index import DynamicIndex
from .em_index import MAGIC, MAX_U32, VERSION, EmIndex
from .slow_index import SlowIndex
from .static_index import StaticIndex

SCHEMA = 1


def parse_workload(path) -> list:
    ops = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "I":
                    ops.append(("I", int(parts[1]), parts[2]))
                elif parts[0] == "D":
                    ops.append(("D", int(parts[1])))
                elif parts[0] == "Q":
                    ops.append(("Q", int(parts[1]), int(parts[2])))
                elif parts[0] == "K":
                    ops.append(("K", int(parts[1]), int(parts[2]), int(parts[3])))
                else:
                    raise ValueError(parts[0])
            except (IndexError, ValueError) as exc:
                raise SystemExit(f"{path}:{ln}: bad workload line: {line!r} ({exc})")
    return ops


def save_workload(path, ops) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for op in ops:
            fh.write(" ".join(str(x) for x in op) + "\n")


def random_queries(seed: int, count: int, universe: int) -> list:
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        a = rng.randrange(1, universe + 1)
        b = rng.randrange(a, universe + 1)
        ops.append(("Q", a, b))
    return ops


def check_block_size(args) -> None:
    if args.index == "em" and not 2 <= args.block_size <= MAX_U32:
        raise SystemExit("need 2 <= --block-size <= 2^32 - 1 for --index em")


def build_index(kind: str, points, block_size: int):
    if kind == "static":
        return StaticIndex(points)
    if kind == "dynamic":
        return DynamicIndex(points)
    if kind == "slow":
        return SlowIndex(points)
    if kind == "em":
        return EmIndex.build(points, B=block_size)
    raise SystemExit(f"unknown index kind {kind!r}")


def _apply(index, kind, op, remap, corrupt_state=None):
    """Run one op; returns ('Q', colors) / ('K', colors) / (None, None)."""
    if op[0] == "I":
        if kind not in ("dynamic", "slow"):
            raise SystemExit(f"index {kind!r} does not support inserts")
        cid = remap.id_for(op[2])
        index.insert(op[1], cid)
        return None, None
    if op[0] == "D":
        if kind not in ("dynamic", "slow"):
            raise SystemExit(f"index {kind!r} does not support deletes")
        index.delete(op[1])
        return None, None
    if op[0] == "Q":
        got = index.query(op[1], op[2])
        if corrupt_state is not None and got:
            corrupt_state["n"] += 1
            if corrupt_state["n"] % 7 == 0:
                got = got[:-1]
        return "Q", got
    if op[0] == "K":
        if kind != "slow":
            raise SystemExit("K ops are only supported on the slow index")
        return "K", index.k_leftmost(op[1], op[2], op[3])
    raise SystemExit(f"bad op {op!r}")


def replay_diverges(points, remap_base, kind, block_size, ops, corrupt):
    """Replay ops from scratch; returns (index, op, got, want) or None."""
    remap = remap_base
    index = build_index(kind, points, block_size)
    oracle = FastOracle(points)
    corrupt_state = {"n": 0} if corrupt else None
    for i, op in enumerate(ops):
        tag, got = _apply(index, kind, op, remap, corrupt_state)
        if op[0] == "I":
            oracle.insert(op[1], remap.forward[op[2]])
        elif op[0] == "D":
            oracle.delete(op[1])
        elif tag == "Q":
            want = oracle.report(op[1], op[2])
            if set(got) != want or len(got) != len(set(got)):
                return i, op, sorted(got), sorted(want)
        elif tag == "K":
            want = oracle.k_leftmost(op[1], op[2], op[3])
            if got != want:
                return i, op, got, want
    return None


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.n < 0:
        raise SystemExit("need N >= 0")
    if args.n > args.u:
        raise SystemExit("need N <= U for distinct coordinates")
    if args.c < 1:
        raise SystemExit("need C >= 1")
    rng = random.Random(args.seed)
    values = sorted(rng.sample(range(1, args.u + 1), args.n))
    if args.skew == "zipf":
        weights = [1.0 / (i + 1) ** 1.5 for i in range(args.c)]
        labels = rng.choices([f"c{i}" for i in range(args.c)], weights, k=args.n)
    else:
        labels = [f"c{rng.randrange(args.c)}" for _ in range(args.n)]
    header = (f"seed={args.seed} N={args.n} U={args.u} C={args.c} "
              f"skew={args.skew}")
    save_dataset(args.out, zip(values, labels), header=header)
    print(f"wrote {args.n} points to {args.out}")
    return 0


def cmd_build(args) -> int:
    check_block_size(args)
    points, remap = normalize_input(load_dataset(args.dataset))
    t0 = time.perf_counter_ns()
    index = build_index(args.index, points, args.block_size)
    build_ns = time.perf_counter_ns() - t0
    info = {"schema": SCHEMA, "index": args.index, "n": len(points),
            "colors": len(remap), "build_ns": build_ns}
    if args.index == "em":
        info["block_size"] = args.block_size
        if args.out:
            index.save(args.out)
            info["out"] = str(args.out)
    print(json.dumps(info))
    return 0


def cmd_verify(args) -> int:
    check_block_size(args)
    if args.queries < 0:
        raise SystemExit("need --queries >= 0")
    points, remap = normalize_input(load_dataset(args.dataset))
    if args.workload:
        ops = parse_workload(args.workload)
    else:
        universe = max((p.value for p in points), default=100) + 10
        ops = random_queries(args.seed, args.queries, universe)
    res = replay_diverges(points, remap, args.index, args.block_size, ops,
                          args.corrupt)
    if res is None:
        print(f"verify: PASS ({len(ops)} ops, index={args.index})")
        return 0
    i, op, got, want = res
    # minimize: shortest failing prefix via bisection (deterministic replay)
    lo, hi = 1, i + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if replay_diverges(points, remap, args.index, args.block_size,
                           ops[:mid], args.corrupt) is not None:
            hi = mid
        else:
            lo = mid + 1
    prefix = ops[:lo]
    print(f"verify: FAIL at op {i}: {op}")
    print(f"  got:  {got}")
    print(f"  want: {want}")
    print(f"  minimized reproducer: {lo} ops")
    if args.out:
        save_workload(args.out, prefix)
        print(f"  reproducer written to {args.out}")
    else:
        for o in prefix[-10:]:
            print("  " + " ".join(str(x) for x in o))
    return 1


def cmd_dump(args) -> int:
    with open(args.index_file, "rb") as fh:
        data = fh.read()
    try:
        index = EmIndex.from_bytes(data)
    except IndexFileError as exc:
        print(f"dump: {exc}", file=sys.stderr)
        return 2
    again = index.to_bytes()
    ok = again == data
    info = {"schema": SCHEMA, "magic": MAGIC.decode(), "version": VERSION,
            "n": index.n, "B": index.B, "colors": index.ncolors,
            "blocks": len(index.store.kinds), "leaves": index.nleaves,
            "locate_levels": len(index.levels),
            "first_levels": len(index.level_base),
            "first_entries_per_point": index.first_offsets[-1] / max(index.n, 1),
            "roundtrip_identical": ok}
    print(json.dumps(info))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(again)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="colorrange", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a deterministic dataset")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--u", type=int, required=True)
    g.add_argument("--c", type=int, required=True)
    g.add_argument("--skew", choices=("uniform", "zipf"), default="uniform")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    def common(p):
        p.add_argument("--dataset", required=True)
        p.add_argument("--index", choices=("static", "dynamic", "slow", "em"),
                       default="static")
        p.add_argument("--block-size", type=int, default=8)
        p.add_argument("--out")

    b = sub.add_parser("build", help="build an index (em: saves with --out)")
    common(b)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="lockstep replay against the oracle")
    common(v)
    v.add_argument("--workload")
    v.add_argument("--queries", type=int, default=1000)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--corrupt", action="store_true",
                   help="inject a fault to demonstrate divergence reporting")
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("dump", help="inspect an em index file")
    d.add_argument("--index-file", required=True)
    d.add_argument("--out")
    d.set_defaults(fn=cmd_dump)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

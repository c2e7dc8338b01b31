"""The recursive `EmIndex` builder, kept as the test oracle of the
whole-array one in `colorrange.em_index`: it appends one block at a time,
sorts each leaf PST node's points on their own and writes each region,
list and K run by itself. `oracle_bytes(points, B)` is the file it makes,
which `EmIndex.build(points, B).to_bytes()` must equal byte for byte."""

import operator
from array import array

import numpy as np

from colorrange.em_index import (K_DIR, K_FIRST, K_KARR, K_LIST, K_PST, K_SEP,
                                 K_VALS, _WIDTH, BlockStore, EmIndex,
                                 ceil_log)
from colorrange.static_index import TreeLayout, _column, first_points


class _Store(BlockStore):
    def append(self, kind, recs, meta=()) -> int:
        """A block of the records' words `recs`, flat, and `meta`."""
        self.words.extend(recs)
        self.words.extend(meta)
        self.bounds.extend((len(self.words) - len(meta), len(self.words)))
        self.kinds.append(kind)
        return len(self.kinds) - 1

    def write_region(self, kind, flat) -> tuple:
        """Pack flat record words, B records per block; (start, count)."""
        start, step = len(self.kinds), self.B * _WIDTH[kind]
        for i in range(0, len(flat), step):
            self.append(kind, flat[i:i + step])
        return start, len(flat) // _WIDTH[kind]


_BY_Y = operator.itemgetter(1, 0)


def _build_block_pst(store, pts) -> int:
    """One block per node holding the B lowest-y points of its subtree,
    children metadata (bid, xlo, xhi, min_y) inline; pts: (x, y, color)
    sorted by x. The root block id, -1 if empty."""
    if not pts:
        return -1
    B = store.B
    byy = sorted(pts, key=_BY_Y)
    top = sorted(byy[:B])
    rest = sorted(byy[B:])
    meta = [0]  # child count, then per child (bid, xlo, xhi, min y)
    if rest:
        meta[0] = nc = min(B, -(-len(rest) // B))
        base, extra = divmod(len(rest), nc)
        lo = 0
        for i in range(nc):
            sz = base + (1 if i < extra else 0)
            chunk = rest[lo:lo + sz]
            lo += sz
            meta += (_build_block_pst(store, chunk), chunk[0][0], chunk[-1][0],
                     min(r[1] for r in chunk))
    return store.append(K_PST, [x for r in top for x in r], meta)


def oracle_bytes(points, B: int) -> bytes:
    """The index file of `points` under block size B, block by block."""
    pts = list(points)
    n = len(pts)
    ncolors = max((p.color for p in pts), default=-1) + 1
    lay = TreeLayout(pts, B * ceil_log(n, B))
    values, colors, cap = lay.values, lay.colors, lay.cap
    where = np.concatenate([np.frombuffer(c, dtype=np.int32) for c in (
        lay.prevpos, lay.first_prevpos, lay.last_pos)])
    held = _column(np.concatenate((
        [0], np.frombuffer(values, dtype=np.int64)))[where + 1], "q")
    nl = len(lay.first_prevpos)
    prevs, first_p, last_v = held[:n], held[n:n + nl], held[n + nl:]

    store = _Store(B)
    store.append(K_DIR, ())
    vals_start, _ = store.write_region(K_VALS, values)
    levels = []
    keys = values
    while True:
        keys = [keys[min(i + B, len(keys)) - 1]
                for i in range(0, len(keys), B)]
        if len(keys) <= 1:
            break
        levels.append(store.write_region(K_SEP, keys)[0])
    _, offsets, prevpos, pos = first_points(lay, 2 * cap)
    first_start, _ = store.write_region(K_FIRST, [x for r in zip(
        prevpos, [colors[i] for i in pos.tolist()]) for x in r])
    leaf_psts = [_build_block_pst(store, list(zip(values[lo:lo + cap],
                                                  prevs[lo:lo + cap],
                                                  colors[lo:lo + cap])))
                 for lo in range(0, n, cap)]

    ptr = {}
    lchild, rchild, roff, loff = lay.lchild, lay.rchild, lay.roff, lay.loff
    stack = [(lay.root_id, None)] if lay.nleaves else []
    while stack:
        u, is_left = stack.pop()
        if is_left is not None:
            if is_left:
                lo, hi = roff[u], roff[u + 1]
                ent = zip(last_v[lo:hi][::-1], [0] * (hi - lo),
                          lay.last_c[lo:hi][::-1])
            else:
                lo, hi = loff[u], loff[u + 1]
                ent = zip(lay.first_v[lo:hi], first_p[lo:hi],
                          lay.first_c[lo:hi])
            ptr[u] = store.write_region(K_LIST, [x for e in ent for x in e])
        if lchild[u] >= 0:
            stack += ((rchild[u], False), (lchild[u], True))

    meta = [cap, lay.nleaves, vals_start, first_start, len(levels),
            *reversed(levels), *offsets]
    for leaf, pst_root in enumerate(leaf_psts):
        lo, hi = lay.koff[leaf], lay.koff[leaf + 1]
        meta += (pst_root, *store.write_region(K_KARR, [
            x for m, u in zip(lay.km[lo:hi], lay.kn[lo:hi])
            for x in (m, lay.height[u], *ptr[lchild[u]], *ptr[rchild[u]])]))
    store.words[0:0] = array("q", meta)
    store.bounds[2:] = array("q", [x + len(meta) for x in store.bounds[2:]])
    return EmIndex(store, n, ncolors).to_bytes()

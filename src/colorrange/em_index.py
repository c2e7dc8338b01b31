"""Static external-memory color index over a simulated block store.

Cost model: a block holds up to B point records plus O(B) words of navigation
metadata; every structure access goes through BlockStore.read, which counts
one transfer per call. Locate-phase transfers (successor search, highest
range ancestor arrays) are counted on CostMeter.locate_ops; reporting-phase
transfers on CostMeter.block_reads, matching the separate metering of the
two phases.

Layout: the `static_index.TreeLayout` with leaves of B * ceil(log_B N)
points, paged into blocks and then dropped. Block 0 is the directory (cap,
leaf count, the values region, the fallback PST root, and per leaf its PST
root and K-array region); then come the values, B per block, the global
block-aware priority search tree over (e, prev(e)), the leaf PSTs, the R/L
lists of the non-root nodes in preorder, and per leaf its K records
(side, m, height, R(u_l) ptr/len, L(u_r) ptr/len) bottom-up. Left children
carry R(u) (per-color maxima, descending, stored as (v, 0, color)), right
children carry L(u) (per-color minima, ascending, as (v, prev(v), color)),
both capped at the leaf size and stored run-length contiguous so a traversal
of t entries costs ceil(t/B) reads. The duplicate-free output stream comes
from the prev-filter: an L entry is emitted only when prev(e) < a.
Exhausting a full-length list proves the range holds at least B*log_B N
colors and the query re-answers through the global PST in
O(log_B N + k/B) reads, discarding the buffered emissions so the final
stream stays duplicate-free.

The per-leaf three-sided structure is the same block-aware PST, built on the
leaf's points. The serialized file format is little-endian: magic 'CRR1',
version u16, N u64, B u32, C u32, block count u64, then the block array;
`from_bytes` raises IndexFileError on any file it cannot parse.
"""

from __future__ import annotations

import bisect
import math
import struct
from typing import Optional, Sequence

from .core import (ColoredPoint, IndexFileError, InvalidRange,
                   check_coordinate)
from .static_index import TreeLayout

MAGIC = b"CRR1"
VERSION = 1

K_DIR = 0
K_VALS = 1
K_LIST = 2
K_PST = 3
K_KARR = 4


class BlockStore:
    """A flat array of blocks; reads are explicit and counted."""

    def __init__(self, block_elems: int):
        self.B = block_elems
        self.blocks: list = []

    def append(self, kind: int, recs: tuple, meta: tuple = ()) -> int:
        self.blocks.append((kind, recs, meta))
        return len(self.blocks) - 1

    def read(self, bid: int, meter=None, locate: bool = False):
        if meter is not None:
            if locate:
                meter.locate_ops += 1
            else:
                meter.block_reads += 1
        return self.blocks[bid]

    def write_region(self, kind: int, records: Sequence[tuple]) -> tuple:
        """Pack records B per block, contiguously; returns (start, count)."""
        start = len(self.blocks)
        for i in range(0, len(records), self.B):
            chunk = tuple(records[i:i + self.B])
            self.append(kind, chunk)
        return start, len(records)

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [struct.pack("<Q", len(self.blocks))]
        for kind, recs, meta in self.blocks:
            flat = []
            for r in recs:
                flat.extend(r)
            out.append(struct.pack("<BII", kind, len(recs), len(meta)))
            if recs:
                out.append(struct.pack(f"<{len(flat)}q", *flat))
            if meta:
                out.append(struct.pack(f"<{len(meta)}q", *meta))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, block_elems: int, widths: dict) -> "BlockStore":
        store = cls(block_elems)
        (nblocks,) = struct.unpack_from("<Q", data, 0)
        off = 8
        for _ in range(nblocks):
            kind, nrec, nmeta = struct.unpack_from("<BII", data, off)
            off += 9
            w = widths[kind]
            recs = []
            if nrec:
                flat = struct.unpack_from(f"<{nrec * w}q", data, off)
                off += 8 * nrec * w
                recs = [tuple(flat[i * w:(i + 1) * w]) for i in range(nrec)]
            meta = ()
            if nmeta:
                meta = struct.unpack_from(f"<{nmeta}q", data, off)
                off += 8 * nmeta
            store.blocks.append((kind, tuple(recs), tuple(meta)))
        if off != len(data):
            raise ValueError(f"{len(data) - off} trailing bytes")
        return store


_REC_WIDTH = {K_DIR: 0, K_VALS: 1, K_LIST: 3, K_PST: 3, K_KARR: 7}


def _build_block_pst(store: BlockStore, pts: list) -> int:
    """Static block-aware PST: one block per node holding the B lowest-y
    points of its subtree, children metadata (bid, xlo, xhi, min_y) inline.

    pts: (x, y, color) sorted by x. Returns the root block id, -1 if empty.
    """
    if not pts:
        return -1
    B = store.B
    byy = sorted(pts, key=lambda r: (r[1], r[0]))
    top = sorted(byy[:B])
    rest = sorted(byy[B:])
    meta = []
    if rest:
        nc = min(B, math.ceil(len(rest) / B))
        base, extra = divmod(len(rest), nc)
        lo = 0
        kids = []
        for i in range(nc):
            sz = base + (1 if i < extra else 0)
            chunk = rest[lo:lo + sz]
            lo += sz
            bid = _build_block_pst(store, chunk)
            kids.append((bid, chunk[0][0], chunk[-1][0],
                         min(r[1] for r in chunk)))
        meta = [len(kids)]
        for k in kids:
            meta.extend(k)
    else:
        meta = [0]
    return store.append(K_PST, tuple(top), tuple(meta))


def _query_block_pst(store: BlockStore, root: int, a: int, b: int, c: int,
                     meter=None, emit=None) -> None:
    """Report points with a <= x <= b, y < c through `emit`."""
    if root < 0:
        return
    stack = [root]
    while stack:
        kind, recs, meta = store.read(stack.pop(), meter)
        for x, y, color in recs:
            if a <= x <= b and y < c:
                emit(x, y, color)
        nchild = meta[0]
        for i in range(nchild):
            bid, xlo, xhi, miny = meta[1 + 4 * i:5 + 4 * i]
            if xhi < a or xlo > b or miny >= c:
                continue
            stack.append(bid)


class EmIndex:
    def __init__(self, store: BlockStore, n: int, ncolors: int):
        """Open the index held in `store`; block 0 is its directory."""
        self.store = store
        self.B = store.B
        self.n = n
        self.ncolors = ncolors
        _, _, meta = store.blocks[0]
        (self.cap, self.nleaves, self.vals_start, self.nvals_blocks,
         self.fallback_root) = meta[:5]
        # per leaf: (pst_root, k_start, k_len)
        self.leaf_dir = [tuple(meta[i:i + 3])
                         for i in range(5, 5 + 3 * self.nleaves, 3)]

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(cls, points: Sequence[ColoredPoint], B: int) -> "EmIndex":
        if B < 2:
            raise ValueError("block size must be >= 2")
        pts = list(points)
        for p in pts:
            check_coordinate(p.value)
        n = len(pts)
        lb = max(1, math.ceil(math.log(max(n, 2)) / math.log(B)))
        lay = TreeLayout(pts, B * lb)
        values, colors, prevs, cap = lay.values, lay.colors, lay.prevs, lay.cap

        store = BlockStore(B)
        store.append(K_DIR, ())  # placeholder, filled at the end
        vals_start, _ = store.write_region(K_VALS, [(v,) for v in values])
        fallback_root = _build_block_pst(store, list(zip(values, prevs, colors)))
        leaf_psts = [_build_block_pst(store, list(zip(values[lo:lo + cap],
                                                      prevs[lo:lo + cap],
                                                      colors[lo:lo + cap])))
                     for lo in range(0, n, cap)]

        # lists of the non-root nodes in preorder, R entries as (v, 0, c)
        ptr = {}
        stack = [lay.root] if lay.root is not None else []
        while stack:
            node = stack.pop()
            if node.parent is not None:
                ent = node.lst
                if node is node.parent.left:
                    ent = [(v, 0, c) for v, c in ent]
                ptr[node] = store.write_region(K_LIST, ent)
            if node.left is not None:
                stack += (node.right, node.left)

        # per-leaf K arrays: (side, m, height, R(u_l) ptr/len, L(u_r) ptr/len)
        meta = [cap, lay.nleaves, vals_start, math.ceil(n / B), fallback_root]
        for leaf, pst_root in zip(lay.leaves, leaf_psts):
            entries = []
            node = leaf
            while node.parent is not None:
                p = node.parent
                entries.append((1 if p.left is node else 2, p.m, p.height,
                                *ptr[p.left], *ptr[p.right]))
                node = p
            meta += (pst_root, *store.write_region(K_KARR, entries))
        store.blocks[0] = (K_DIR, (), tuple(meta))
        return cls(store, n, max(colors) + 1 if colors else 0)

    # -- locate phase -------------------------------------------------------------

    def _succ_pos(self, a: int, meter=None) -> int:
        """Global index of the first value >= a (== n if none)."""
        if self.n == 0:
            return 0
        lo, hi = 0, self.nvals_blocks - 1
        while lo < hi:
            mid = (lo + hi) // 2
            _, recs, _ = self.store.read(self.vals_start + mid, meter, locate=True)
            if recs[-1][0] < a:
                lo = mid + 1
            else:
                hi = mid
        _, recs, _ = self.store.read(self.vals_start + lo, meter, locate=True)
        vals = [r[0] for r in recs]
        return lo * self.B + bisect.bisect_left(vals, a)

    def _value_at(self, pos: int, meter=None) -> tuple:
        _, recs, _ = self.store.read(self.vals_start + pos // self.B, meter,
                                     locate=True)
        return recs[pos % self.B]

    def _read_karr(self, leaf_idx: int, meter=None) -> list:
        _, k_start, k_len = self.leaf_dir[leaf_idx]
        out = []
        for bid in range(k_start, k_start + math.ceil(k_len / self.B)):
            _, recs, _ = self.store.read(bid, meter, locate=True)
            out.extend(recs)
        return out[:k_len]

    def _hra(self, leaf_idx: int, a: int, b: int, meter=None) -> Optional[tuple]:
        """K-array search; returns the chosen entry or None."""
        entries = self._read_karr(leaf_idx, meter)
        k1 = [e for e in entries if e[0] == 1]  # left parents, m ascending
        k2 = [e for e in entries if e[0] == 2]  # right parents, m descending
        best = None
        lo, hi = 0, len(k1)
        while lo < hi:
            mid = (lo + hi) // 2
            if k1[mid][1] <= b:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0:
            best = k1[lo - 1]
        lo, hi = 0, len(k2)
        while lo < hi:
            mid = (lo + hi) // 2
            if k2[mid][1] > a:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0 and (best is None or k2[lo - 1][2] > best[2]):
            best = k2[lo - 1]
        return best

    # -- reporting phase -------------------------------------------------------------

    def _iter_list(self, ptr: tuple, meter=None):
        start, length = ptr
        done = 0
        bid = start
        while done < length:
            _, recs, _ = self.store.read(bid, meter)
            for r in recs:
                if done >= length:
                    return
                done += 1
                yield r
            bid += 1

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of [a, b]; the emission stream is duplicate-free."""
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        pos = self._succ_pos(a, meter)
        if pos >= self.n:
            return []
        v0 = self._value_at(pos, meter)[0]
        if v0 > b:
            return []
        leaf_idx = pos // self.cap
        entry = self._hra(leaf_idx, a, b, meter)
        out: list = []
        if entry is None:
            pst_root = self.leaf_dir[leaf_idx][0]
            _query_block_pst(self.store, pst_root, a, b, a, meter,
                             lambda x, y, color: out.append(color))
            return out

        _, _, _, rl_start, rl_len, lr_start, lr_len = entry
        fallback = False
        seen = 0
        for v, _, color in self._iter_list((rl_start, rl_len), meter):
            seen += 1
            if v < a:
                break
            out.append(color)
        else:
            if rl_len == self.cap:
                fallback = True
        if not fallback:
            for v, pv, color in self._iter_list((lr_start, lr_len), meter):
                if v > b:
                    break
                if pv < a:
                    out.append(color)
            else:
                if lr_len == self.cap:
                    fallback = True
        if fallback:
            out = []
            _query_block_pst(self.store, self.fallback_root, a, b, a, meter,
                             lambda x, y, color: out.append(color))
        return out

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        head = MAGIC + struct.pack("<HQII", VERSION, self.n, self.B, self.ncolors)
        return head + self.store.to_bytes()

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "EmIndex":
        if data[:4] != MAGIC:
            raise IndexFileError("not a color-range index file")
        try:
            version, n, B, ncolors = struct.unpack_from("<HQII", data, 4)
        except struct.error as exc:
            raise IndexFileError(f"truncated header: {exc}") from exc
        if version != VERSION:
            raise IndexFileError(f"unsupported version {version}")
        try:
            return cls(BlockStore.from_bytes(data[4 + 18:], B, _REC_WIDTH),
                       n, ncolors)
        except (struct.error, IndexError, KeyError, ValueError) as exc:
            raise IndexFileError(f"malformed index file: {exc}") from exc

    @classmethod
    def load(cls, path) -> "EmIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    # -- structural audit (tests) ---------------------------------------------------

    def audit_lists(self) -> None:
        """Every L list ascending with prevs, every R list descending."""
        for bid, (kind, recs, meta) in enumerate(self.store.blocks):
            if kind != K_KARR:
                continue
            for side, m, h, rl_s, rl_n, lr_s, lr_n in recs:
                r = list(self._iter_list((rl_s, rl_n)))
                l = list(self._iter_list((lr_s, lr_n)))
                rv = [x[0] for x in r]
                lv = [x[0] for x in l]
                assert rv == sorted(rv, reverse=True)
                assert lv == sorted(lv)
                assert len(set(x[2] for x in r)) == len(r)
                assert len(set(x[2] for x in l)) == len(l)

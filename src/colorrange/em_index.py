"""Static external-memory color index over a simulated block store.

Store and cost model: the index is its own file image, its blocks' int64 words
in one `array("q")` in file order. A block holds up to B point records plus
O(B) words of navigation metadata. The query reads the words in place, at
the offsets in `BlockStore.bounds`, and each phase adds the number of
blocks it read to the meter once: a transfer is one block whose words the
phase reads, however many of them (`BlockStore.read` counts a single
block). Locate-phase transfers (successor search, highest range ancestor
arrays) are counted on CostMeter.locate_ops; reporting-phase transfers on
CostMeter.block_reads, matching the separate metering of the two phases.

Layout: the `static_index.TreeLayout` with leaves of B * ceil(log_B N)
points, paged into blocks and then dropped. Block 0 is the directory (cap,
leaf count, the values region, the first-point region's start block, the
separator level count and each level's start block, root level first, the
nagg + 1 record offsets of the aligned blocks, and per leaf its PST root and
K-array region); then come the values, B per block, the separator levels of
a static B-ary tree over them (record j of a level is the largest value
under block j of the level below; the root level is one block), the
first-point region (K_FIRST), the leaf PSTs, the R/L lists of the non-root
nodes in preorder, and per leaf its K run from the layout as records (m,
height, R(u_l) ptr/len, L(u_r) ptr/len), m ascending. Locating succ(a) and
its value descends the separator levels and reads one value block,
ceil(log_B N) reads in all. As cap is a multiple of B, that value block lies
in succ(a)'s leaf, and every node's m is the first value of a leaf: a range
that ends at or before the block's last value and does not start at its
leaf's first point has no range ancestor, and goes to the leaf PST without
reading the leaf's K blocks (the in-block route). The constructor requires
cap = B * ceil(log_B N) for this.
Left children carry R(u) (per-color maxima, descending, stored as
(v, 0, color)), right children carry L(u) (per-color minima, ascending, as
(v, prev(v), color)), both capped at the leaf size and stored run-length
contiguous so a traversal of t entries costs ceil(t/B) reads. The
duplicate-free output stream comes from the prev-filter: an L entry is
emitted only when prev(e) < a. The layout holds an R entry's point and each
prev as a position; the build turns them back into the values the records
and the leaf PSTs hold.

A full-length list whose last entry lies strictly inside the range (R:
v > a, L: v < b; one read of its last block) may leave colors out: the range
holds at least B*log_B N colors, and the query takes the wide route without
walking either list; a full list that ends at a
(R) or b (L) holds every color of its side and is walked. The wide route
finds succ(b + 1) by a second descent and splits the leaves between by
`static_index.leaf_cover`: the edge and single interior leaves answer
through their PSTs, and each aligned block reads its records (prevpos,
color) of `static_index.first_points`, ascending by prevpos and packed B
per block, page by page up to the first prevpos >= succ(a)'s position. The
aligned-block levels follow from N, cap and the leaf count; with many
colors the region grows with log N (see the README).

The per-leaf three-sided structure is a block-aware PST, built on the leaf's
points. Each PST block stores its records in ascending x, so a query bisects
[a, b] in a block it reads and tests y only on that slice; the work inside a
block is not metered, since a read is one transfer however many of its
records are examined. The serialized file format (version 4; only version 4
is read) is little-endian: magic 'CRR1', version u16, N u64, B u32, C u32,
block count u64, the CRC32 of these 30 bytes as u32, then the blocks, each as
kind u8, record count u32, metadata count u32, the records and the metadata
as i64, and the CRC32 of the block's bytes as u32; only directory and PST
blocks hold metadata, and a directory no records. `from_bytes` checks every CRC
and those counts, and the constructor checks every directory entry, separator,
K record, list pointer and PST child once, so a file that loads cannot make a
query read outside the store or loop. It also checks what the query trusts
without reading: every PST block's records strictly ascend by x and each
leaf's K records by m (the bisections), a PST child's (xlo, xhi, min y) are
those of its subtree's records (the pruning), and the first-point offsets
start at 0, never decrease and end at the region's record count, while
within each aligned block prevpos never decreases and lies in [-1, the
block's first position), and every color is below C. Any failure raises
IndexFileError.
"""

from __future__ import annotations

import bisect
import operator
import struct
import sys
import zlib
from array import array
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .core import (ColoredPoint, IndexFileError, InvalidColor, InvalidRange,
                   check_colors, check_integer)
from .static_index import (TreeLayout, _column, fallback_levels,
                           first_points, leaf_cover)

MAGIC = b"CRR1"
VERSION = 4
HEADER = struct.Struct("<4sHQIIQ")  # magic, version, N, B, C, block count
MAX_U32 = 2**32 - 1  # largest B and color count the header can hold
SWAP = sys.byteorder == "big"  # the file's words are little-endian

K_DIR = 0
K_VALS = 1
K_LIST = 2
K_PST = 3
K_KARR = 4
K_SEP = 5
K_FIRST = 6
_WIDTH = (0, 1, 3, 3, 6, 1, 2)  # words per record, by kind


def ceil_log(n: int, base: int) -> int:
    """ceil(log_base n), at least 1, in integers (a float log overshoots at
    some exact powers, e.g. n = 8^7)."""
    exp, reach = 1, base
    while reach < n:
        exp += 1
        reach *= base
    return exp


def _count(meter, reads: int, locate: bool = False) -> None:
    """Add `reads` transfers to the locate or the reporting phase."""
    if meter is not None:
        if locate:
            meter.locate_ops += reads
        else:
            meter.block_reads += reads


class BlockStore:
    """Blocks as int64 words in one array, in file order: block i's records
    are words[bounds[2i]:bounds[2i+1]], its metadata runs up to
    bounds[2i+2], and kinds[i] is its kind. Reads are explicit and counted."""

    def __init__(self, block_elems: int):
        self.B = block_elems
        self.words, self.kinds = array("q"), bytearray()
        self.bounds = array("q", [0])

    def append(self, kind: int, recs: Sequence[int], meta=()) -> int:
        """A block of the records' words `recs`, flat, and `meta`."""
        self.words.extend(recs)
        self.words.extend(meta)
        self.bounds.extend((len(self.words) - len(meta), len(self.words)))
        self.kinds.append(kind)
        return len(self.kinds) - 1

    def read(self, bid: int, meter=None, locate: bool = False) -> tuple:
        """(start, end) word offsets of block `bid`'s records, counted as one
        transfer; meta follows."""
        _count(meter, 1, locate)
        return self.bounds[2 * bid], self.bounds[2 * bid + 1]

    def block(self, bid: int) -> tuple:
        """Block `bid` decoded: (kind, its records as tuples, its metadata)."""
        kind, words, w = self.kinds[bid], self.words, _WIDTH[self.kinds[bid]]
        lo, mid, end = self.bounds[2 * bid:2 * bid + 3]
        recs = (tuple(words[i:i + w]) for i in range(lo, mid, w or 1))
        return kind, tuple(recs), tuple(words[mid:end])

    def write_region(self, kind: int, flat: Sequence[int]) -> tuple:
        """Pack flat record words, B records per block; (start, count)."""
        start, step = len(self.kinds), self.B * _WIDTH[kind]
        for i in range(0, len(flat), step):
            self.append(kind, flat[i:i + step])
        return start, len(flat) // _WIDTH[kind]

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The block array, each block followed by the CRC32 of its bytes."""
        words = array("q", self.words) if SWAP else self.words
        if SWAP:
            words.byteswap()
        raw, bounds, out = memoryview(words).cast("B"), self.bounds, []
        for bid, kind in enumerate(self.kinds):
            lo, mid, end = bounds[2 * bid:2 * bid + 3]
            head = struct.pack("<BII", kind, (mid - lo) // (_WIDTH[kind] or 1),
                               end - mid)
            crc = zlib.crc32(raw[8 * lo:8 * end], zlib.crc32(head))
            out += (head, raw[8 * lo:8 * end], struct.pack("<I", crc))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, off: int, nblocks: int,
                   block_elems: int) -> "BlockStore":
        """Parse `nblocks` blocks from data[off:], which they must fill
        (struct.error if they overrun it)."""
        store = cls(block_elems)
        view, words, bounds = memoryview(data), store.words, store.bounds
        for bid in range(nblocks):
            kind, nrec, nmeta = struct.unpack_from("<BII", data, off)
            if kind >= len(_WIDTH) or nrec and kind == K_DIR \
                    or nmeta and kind not in (K_DIR, K_PST):
                raise IndexFileError(f"block {bid}: kind {kind} with {nrec} "
                                     f"records and {nmeta} metadata words")
            nrec *= _WIDTH[kind]  # now in words
            end = off + 9 + 8 * (nrec + nmeta)
            if zlib.crc32(view[off:end]) != struct.unpack_from("<I", data, end)[0]:
                raise IndexFileError(f"block {bid}: checksum mismatch")
            words.frombytes(view[off + 9:end])
            bounds.extend((len(words) - nmeta, len(words)))
            store.kinds.append(kind)
            off = end + 4
        if off != len(data):
            raise IndexFileError(f"{len(data) - off} trailing bytes")
        if SWAP:
            words.byteswap()
        return store


_BY_Y = operator.itemgetter(1, 0)


def _build_block_pst(store: BlockStore, pts: list) -> int:
    """Static block-aware PST: one block per node holding the B lowest-y
    points of its subtree, children metadata (bid, xlo, xhi, min_y) inline.

    pts: (x, y, color) sorted by x. Returns the root block id, -1 if empty.
    """
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


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise IndexFileError(f"malformed index file: {what}")


class EmIndex:
    def __init__(self, store: BlockStore, n: int, ncolors: int):
        """Open the index held in `store`; block 0 is its directory. Every
        pointer is checked here, once (IndexFileError)."""
        self.store = store
        self.B = store.B
        self.n = n
        self.ncolors = ncolors
        _require(self.B >= 2 and bool(store.kinds) and store.kinds[0] == K_DIR,
                 "no directory block")
        meta = store.block(0)[2]
        _require(len(meta) >= 5, "short directory")
        self.cap, self.nleaves, self.vals_start, self.first_start, nlevels = \
            meta[:5]
        # the query's in-block route needs each value block inside one leaf
        _require(self.cap == self.B * ceil_log(n, self.B)
                 and self.nleaves == -(-n // self.cap) and nlevels >= 0,
                 "directory size")
        self.level_base, nagg = fallback_levels(n, self.cap, self.nleaves,
                                                2 * self.cap)
        # separator level start blocks, root level first
        self.levels = meta[5:5 + nlevels]
        self._descent = self.levels + (self.vals_start,)
        # record offsets of the aligned blocks in the first-point region
        leaves_at = 6 + nlevels + nagg
        self.first_offsets = meta[5 + nlevels:leaves_at]
        # per leaf: (pst_root, k_start, k_len)
        self.leaf_dir = [tuple(meta[i:i + 3])
                         for i in range(leaves_at, len(meta), 3)]
        _require(len(meta) == leaves_at + 3 * self.nleaves, "directory size")
        # the words' size is fixed now: copies drop the arrays' growth slack
        store.words, store.bounds = store.words[:], store.bounds[:]
        self._view = memoryview(store.words)
        self._check()

    def _region(self, start: int, count: int, kind: int, what: str) -> None:
        """`count` records packed B per block from block `start` on."""
        nb, w, bounds = -(-count // self.B), _WIDTH[kind], self.store.bounds
        _require(count == 0 or count > 0 and 0 < start
                 and start + nb <= len(self.store.kinds),
                 f"{what} outside the file")
        for i, bid in enumerate(range(start, start + nb)):
            _require(self.store.kinds[bid] == kind and bounds[2 * bid + 1]
                     - bounds[2 * bid] == w * min(self.B, count - i * self.B),
                     f"{what}: block {bid}")

    def _check(self) -> None:
        """Directory entries, separator levels, first points, K records and
        PST children, so that no query on a loaded file reads outside the
        store, loops, or trusts a record order or PST bound that the records
        contradict. Only directory and PST blocks hold metadata, so a
        region's records are contiguous words."""
        view, bounds, B = self._view, self.store.bounds, self.B
        self._region(self.vals_start, self.n, K_VALS, "values")
        # separator level l holds the last record of each block of level l-1
        child_start, count = self.vals_start, -(-self.n // B)
        for start in reversed(self.levels):
            _require(count > 1, "separator level count")
            self._region(start, count, K_SEP, "separators")
            for j in range(count):
                _require(view[bounds[2 * start] + j]
                         == view[bounds[2 * (child_start + j) + 1] - 1],
                         f"separator block {start + j // B}")
            child_start, count = start, -(-count // B)
        _require(count <= 1, "separator level count")

        # aligned block g's first points are the region's records offs[g]
        # to offs[g + 1] - 1: prevpos ascending, before the block's first point
        offs = self.first_offsets
        _require(offs[0] == 0 and all(map(operator.le, offs, offs[1:])),
                 "first-point offsets")
        self._region(self.first_start, offs[-1], K_FIRST, "first points")
        lo = bounds[2 * self.first_start] if offs[-1] else 0
        prevpos = view[lo:lo + 2 * offs[-1]:2]
        colors = view[lo + 1:lo + 2 * offs[-1]:2]
        _require(not colors or 0 <= min(colors) and max(colors) < self.ncolors,
                 "first-point color")
        g, size = 0, 2 * self.cap
        for _ in self.level_base:
            for start in range(0, self.n, size):
                ps = prevpos[offs[g]:offs[g + 1]]
                _require(not ps or -1 <= ps[0] and ps[-1] < start
                         and all(map(operator.le, ps, ps[1:])),
                         f"first points of aligned block {g}")
                g += 1
            size *= 2

        # a leaf's K records are contiguous words; rec[w] is word w of each
        lists = set()
        for leaf, (_, k_start, k_len) in enumerate(self.leaf_dir):
            self._region(k_start, k_len, K_KARR, "K array")
            lo = bounds[2 * k_start] if k_len else 0
            rec = [view[lo + w:lo + 6 * k_len:6] for w in range(6)]
            _require(all(map(operator.lt, rec[0], rec[0][1:]))
                     and max((*rec[3], *rec[5], 0)) <= self.cap,
                     f"K records of leaf {leaf}")
            lists.update(zip(rec[2], rec[3]), zip(rec[4], rec[5]))
        for start, length in lists:
            self._region(start, length, K_LIST, "R/L list")

        # the PST blocks form a forest: a child precedes its parent in the
        # file, no block is referenced twice, and a child's (xlo, xhi, min y)
        # are those of the records in its subtree
        seen = {root for root, _, _ in self.leaf_dir}
        _require(len(seen) == self.nleaves, "shared PST root")
        span = {}  # PST block -> (xlo, xhi, min y) of its subtree
        for bid, kind in enumerate(self.store.kinds):
            if kind != K_PST:
                continue
            lo, mid, end = bounds[2 * bid:2 * bid + 3]
            xs, meta = view[lo:mid:3], view[mid:end]
            _require(bool(xs) and bool(meta) and len(meta) == 1 + 4 * meta[0],
                     f"PST block {bid}")
            _require(all(map(operator.lt, xs, xs[1:])),
                     f"PST block {bid}: records out of x order")
            xlo, xhi, miny = xs[0], xs[-1], min(view[lo + 1:mid:3])
            for i in range(1, len(meta), 4):
                child = meta[i]
                _require(child in span and child not in seen,
                         f"PST child {child} of block {bid}")
                _require(span[child] == tuple(meta[i + 1:i + 4]),
                         f"PST child {child} of block {bid}: bounds")
                seen.add(child)
                xlo, xhi = min(xlo, meta[i + 1]), max(xhi, meta[i + 2])
                miny = min(miny, meta[i + 3])
            span[bid] = (xlo, xhi, miny)
        for root, _, _ in self.leaf_dir:
            _require(root in span, f"PST block {root}")

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(cls, points: Sequence[ColoredPoint], B: int) -> "EmIndex":
        if isinstance(B, bool) or not hasattr(type(B), "__index__") \
                or not 2 <= B <= MAX_U32:
            raise ValueError(f"block size {B!r} is not an integer in "
                             "[2, 2^32 - 1]")
        B = operator.index(B)
        pts = list(points)
        colors = [p.color for p in pts]
        check_colors(colors)
        ncolors = max(colors, default=-1) + 1
        if ncolors > MAX_U32:
            raise InvalidColor(ncolors - 1)
        n = len(pts)
        lay = TreeLayout(pts, B * ceil_log(n, B))
        values, colors, cap = lay.values, lay.colors, lay.cap
        # the layout's positions back to the values the records hold, in
        # one gather: the points' prevs (0 for none, at position -1), the L
        # entries' prevs and the R entries' values
        where = np.concatenate([np.frombuffer(c, dtype=np.int32) for c in (
            lay.prevpos, lay.first_prevpos, lay.last_pos)])
        held = _column(np.concatenate((
            [0], np.frombuffer(values, dtype=np.int64)))[where + 1], "q")
        nl = len(lay.first_prevpos)
        prevs, first_p, last_v = held[:n], held[n:n + nl], held[n + nl:]

        store = BlockStore(B)
        store.append(K_DIR, ())  # placeholder, filled at the end
        vals_start, _ = store.write_region(K_VALS, values)
        # separator levels bottom-up: record j is the last value under block j
        # of the level below
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

        # the non-root nodes' lists in preorder: R of a left child as
        # (v, 0, c) by value descending, L of a right child as (v, prev, c)
        ptr = {}
        lchild, rchild, roff, loff = lay.lchild, lay.rchild, lay.roff, lay.loff
        stack = [(lay.root_id, None)] if lay.nleaves else []
        while stack:  # (node id, whether it is a left child; None: root)
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
                ptr[u] = store.write_region(K_LIST,
                                            [x for e in ent for x in e])
            if lchild[u] >= 0:
                stack += ((rchild[u], False), (lchild[u], True))

        # per leaf its K run: (m, height, R(u_l) ptr/len, L(u_r) ptr/len)
        meta = [cap, lay.nleaves, vals_start, first_start, len(levels),
                *reversed(levels), *offsets]
        for leaf, pst_root in enumerate(leaf_psts):
            lo, hi = lay.koff[leaf], lay.koff[leaf + 1]
            meta += (pst_root, *store.write_region(K_KARR, [
                x for m, u in zip(lay.km[lo:hi], lay.kn[lo:hi])
                for x in (m, lay.height[u], *ptr[lchild[u]], *ptr[rchild[u]])]))
        store.words[0:0] = array("q", meta)  # into block 0, appended empty
        store.bounds[2:] = array("q", [x + len(meta) for x in store.bounds[2:]])
        return cls(store, n, ncolors)

    # -- locate phase -------------------------------------------------------------

    def _locate(self, a: int, meter=None, locate: bool = True) -> tuple:
        """(position, value) of the first value >= a, or (n, None): one read
        per separator level, then one of the value block."""
        if self.n == 0:
            return self.n, None
        view, bounds, j = self._view, self.store.bounds, 0
        for start in self._descent:  # j: block index within the level
            lo, hi = bounds[2 * (start + j)], bounds[2 * (start + j) + 1]
            i = bisect.bisect_left(view, a, lo, hi)
            if i == hi:  # only at the top: a exceeds every value
                _count(meter, 1, locate)
                return self.n, None
            j = j * self.B + i - lo
        _count(meter, len(self._descent), locate)
        return j, view[i]

    def _hra(self, leaf_idx: int, a: int, b: int, meter=None) -> Optional[int]:
        """The word offset of the highest range ancestor's K record, or None,
        by the rule of `StaticIndex.hra_query` on the leaf's K blocks."""
        _, k_start, k_len = self.leaf_dir[leaf_idx]
        if not k_len:
            return None
        _count(meter, -(-k_len // self.B), locate=True)
        view, lo = self._view, self.store.bounds[2 * k_start]
        ms = view[lo:lo + 6 * k_len:6]
        i = bisect.bisect_right(ms, a)
        e = bisect.bisect_right(ms, b, i)
        if i == e:
            return None
        o1, o2 = lo + 6 * i, lo + 6 * (e - 1)
        return o1 if view[o1 + 1] >= view[o2 + 1] else o2

    # -- reporting phase -------------------------------------------------------------

    def _pst(self, root: int, a: int, b: int, out: list, meter=None) -> None:
        """Append to `out` the colors of the leaf PST's points with
        a <= x <= b and y < a. A block's records ascend by x, so only its
        slice [a, b] is tested."""
        view, bounds = self._view, self.store.bounds
        stack, reads = [root] if root >= 0 else [], 0
        while stack:
            bid = stack.pop()
            reads += 1
            lo, mid = bounds[2 * bid], bounds[2 * bid + 1]
            xs = view[lo:mid:3]
            i = lo + 3 * bisect.bisect_left(xs, a)
            j = lo + 3 * bisect.bisect_right(xs, b)
            out += compress(view[i + 2:j:3], map(a.__gt__, view[i + 1:j:3]))
            for o in range(mid + 1, mid + 1 + 4 * view[mid], 4):
                if view[o + 1] <= b and view[o + 2] >= a > view[o + 3]:
                    stack.append(view[o])
        _count(meter, reads)

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of [a, b]; the emission stream is duplicate-free."""
        if type(a) is not int or type(b) is not int:
            a, b = check_integer(a), check_integer(b)
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        a = max(a, 1)  # no point lies below 1, and prev 0 must stay below a
        pos, v0 = self._locate(a, meter)
        if pos >= self.n or v0 > b:
            return []
        view, bounds, cap, B = self._view, self.store.bounds, self.cap, self.B
        leaf_idx = pos // cap
        out: list = []
        # every node's m is the first value of a leaf, and succ(a)'s value
        # block lies in its leaf (cap is a multiple of B): a range that ends
        # inside that block and does not start at its leaf's first point has
        # no range ancestor, and its K blocks are not read
        if pos % cap and view[bounds[2 * (self.vals_start + pos // B) + 1]
                              - 1] >= b:
            entry = None
        else:
            entry = self._hra(leaf_idx, a, b, meter)
        if entry is None:
            self._pst(self.leaf_dir[leaf_idx][0], a, b, out, meter)
            return out

        # a full-length list whose last entry lies strictly inside the range
        # may leave colors out; one whose last entry is a (R) or b (L) holds
        # every color of its side
        rl_start, rl_len, lr_start, lr_len = view[entry + 2:entry + 6]
        if (rl_len == cap and self._last_value(rl_start, rl_len, meter) > a
                or lr_len == cap
                and self._last_value(lr_start, lr_len, meter) < b):
            return self._wide(a, b, pos, meter)
        # read each list a block at a time (`_check` made each hold min(B, the
        # rest)): R, descending, down to a; L up to b, where prev < a
        reads = 0
        for bid in range(rl_start, rl_start + -(-rl_len // B)):
            lo, hi = bounds[2 * bid], bounds[2 * bid + 1]
            reads += 1
            cut = lo + 3 * bisect.bisect_right(view[lo:hi:3], -a,
                                               key=operator.neg)
            out += view[lo + 2:cut:3]
            if cut < hi:
                break
        for bid in range(lr_start, lr_start + -(-lr_len // B)):
            lo, hi = bounds[2 * bid], bounds[2 * bid + 1]
            reads += 1
            cut = lo + 3 * bisect.bisect_right(view[lo:hi:3], b)
            out += compress(view[lo + 2:cut:3],
                            map(a.__gt__, view[lo + 1:cut:3]))
            if cut < hi:
                break
        _count(meter, reads)
        return out

    def _last_value(self, start: int, length: int, meter=None) -> int:
        """The value of a list's last entry, in one read."""
        return self._view[
            self.store.read(start + (length - 1) // self.B, meter)[1] - 3]

    def _wide(self, a: int, b: int, j: int, meter=None) -> list:
        """Distinct colors of [a, b], which holds succ(a) = point j, by
        `leaf_cover`: its single leaves through their PSTs, and from each
        aligned block the first points with prevpos < j, read page by page."""
        r, _ = self._locate(b + 1, meter, locate=False)
        leaves, groups = leaf_cover(j // self.cap, (r - 1) // self.cap,
                                    self.level_base, 2)
        out: list = []
        for leaf in leaves:
            self._pst(self.leaf_dir[leaf][0], a, b, out, meter)
        # the region's records are contiguous words, B two-word records per
        # block; a page whose last prevpos is below j is taken whole, and only
        # the page that holds the cut is bisected
        B, offs, view = self.B, self.first_offsets, self._view
        base = self.store.bounds[2 * self.first_start] if offs[-1] else 0
        reads = 0
        for g in groups:
            i, end = offs[g], offs[g + 1]
            while i < end:
                k = i % B
                lo, hi = base + 2 * (i - k), min(B, k + end - i)
                reads += 1
                if view[lo + 2 * hi - 2] < j:
                    out += view[lo + 2 * k + 1:lo + 2 * hi:2]
                    i += hi - k
                    continue
                cut = bisect.bisect_left(view[lo:lo + 2 * hi:2], j, k)
                out += view[lo + 2 * k + 1:lo + 2 * cut:2]
                break
        _count(meter, reads)
        return out

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        head = HEADER.pack(MAGIC, VERSION, self.n, self.B, self.ncolors,
                           len(self.store.kinds))
        return b"".join((head, struct.pack("<I", zlib.crc32(head)),
                         self.store.to_bytes()))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "EmIndex":
        if data[:4] != MAGIC:
            raise IndexFileError("not a color-range index file")
        try:
            _, version, n, B, ncolors, nblocks = HEADER.unpack_from(data, 0)
            (crc,) = struct.unpack_from("<I", data, HEADER.size)
        except struct.error as exc:
            raise IndexFileError(f"truncated header: {exc}") from exc
        if version != VERSION:
            raise IndexFileError(f"unsupported version {version}")
        if zlib.crc32(data[:HEADER.size]) != crc:
            raise IndexFileError("header checksum mismatch")
        try:
            store = BlockStore.from_bytes(data, HEADER.size + 4, nblocks, B)
        except struct.error as exc:
            raise IndexFileError(f"truncated block array: {exc}") from exc
        return cls(store, n, ncolors)

    @classmethod
    def load(cls, path) -> "EmIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    # -- structural audit (tests) ---------------------------------------------------

    def audit_lists(self) -> None:
        """Every L list ascending with prevs, every R list descending, each
        with distinct colors (IndexFileError)."""
        for bid, kind in enumerate(self.store.kinds):
            if kind != K_KARR:
                continue
            for _, _, rl_s, rl_n, lr_s, lr_n in self.store.block(bid)[1]:
                for start, length, sign in ((rl_s, rl_n, -1), (lr_s, lr_n, 1)):
                    ents = [e for lb in range(start, start + -(-length // self.B))
                            for e in self.store.block(lb)[1]]
                    keys = [sign * e[0] for e in ents]
                    _require(keys == sorted(keys)
                             and len({e[2] for e in ents}) == len(ents),
                             f"list at block {start}")

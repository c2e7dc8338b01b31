"""Static external-memory color index over a simulated block store.

Cost model: a block holds up to B point records plus O(B) words of navigation
metadata; every structure access goes through BlockStore.read, which counts
one transfer per call. Locate-phase transfers (successor search, highest
range ancestor arrays) are counted on CostMeter.locate_ops; reporting-phase
transfers on CostMeter.block_reads, matching the separate metering of the
two phases.

Layout: the `static_index.TreeLayout` with leaves of B * ceil(log_B N)
points, paged into blocks and then dropped. Block 0 is the directory (cap,
leaf count, the values region, the first-point region's start block, the
separator level count and each level's start block, root level first, the
nagg + 1 record offsets of the aligned blocks, and per leaf its PST root and
K-array region); then come the values, B per block, the separator levels of
a static B-ary tree over them (record j of a level is the largest value
under block j of the level below; the root level is one block), the
first-point region (K_FIRST), the leaf PSTs, the R/L lists of the non-root
nodes in preorder, and per leaf its K records (side, m, height, R(u_l)
ptr/len, L(u_r) ptr/len) bottom-up. Locating succ(a) and its value descends
the separator levels and reads one value block, ceil(log_B N) reads in all.
Left children carry R(u) (per-color maxima, descending, stored as
(v, 0, color)), right children carry L(u) (per-color minima, ascending, as
(v, prev(v), color)), both capped at the leaf size and stored run-length
contiguous so a traversal of t entries costs ceil(t/B) reads. The
duplicate-free output stream comes from the prev-filter: an L entry is
emitted only when prev(e) < a.

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
records are examined. The serialized file format (version 3; only version 3
is read) is little-endian: magic 'CRR1', version u16, N u64, B u32, C u32,
block count u64, the CRC32 of these 30 bytes as u32, then the blocks, each as
kind u8, record count u32, metadata count u32, the records and the metadata
as i64, and the CRC32 of the block's bytes as u32. `from_bytes` checks every
CRC, and the constructor checks every directory entry, separator, K record,
list pointer and PST child once, so a file that loads cannot make a query
read outside the store or loop. It also checks what the query trusts without
reading: every PST block's records strictly ascend by x (the in-block
bisection), a PST child's (xlo, xhi, min y) are those of its subtree's
records (the pruning), and the first-point offsets start at 0, never
decrease and end at the region's record count, while within each aligned
block prevpos never decreases and lies in [-1, the block's first position),
and every color is below C. Any failure raises IndexFileError.
"""

from __future__ import annotations

import bisect
import operator
import struct
import zlib
from typing import Optional, Sequence

from .core import (ColoredPoint, IndexFileError, InvalidColor, InvalidRange,
                   check_coordinate)
from .static_index import (TreeLayout, fallback_levels, first_points,
                           leaf_cover)

MAGIC = b"CRR1"
VERSION = 3
HEADER = struct.Struct("<4sHQIIQ")  # magic, version, N, B, C, block count
MAX_U32 = 2**32 - 1  # largest B and color count the header can hold

K_DIR = 0
K_VALS = 1
K_LIST = 2
K_PST = 3
K_KARR = 4
K_SEP = 5
K_FIRST = 6


def ceil_log(n: int, base: int) -> int:
    """ceil(log_base n), at least 1, in integers (a float log overshoots at
    some exact powers, e.g. n = 8^7)."""
    exp, reach = 1, base
    while reach < n:
        exp += 1
        reach *= base
    return exp


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
        """The block array, each block followed by the CRC32 of its bytes."""
        out = []
        for kind, recs, meta in self.blocks:
            flat = [x for r in recs for x in r]
            body = struct.pack(f"<BII{len(flat)}q{len(meta)}q", kind,
                               len(recs), len(meta), *flat, *meta)
            out += (body, struct.pack("<I", zlib.crc32(body)))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, off: int, nblocks: int,
                   block_elems: int) -> "BlockStore":
        """Parse `nblocks` blocks from data[off:], which they must fill."""
        store = cls(block_elems)
        view = memoryview(data)
        for bid in range(nblocks):
            kind, nrec, nmeta = struct.unpack_from("<BII", data, off)
            if kind not in _REC_WIDTH:
                raise IndexFileError(f"block {bid}: unknown kind {kind}")
            w = _REC_WIDTH[kind]
            end = off + 9 + 8 * (nrec * w + nmeta)
            if end + 4 > len(data):
                raise IndexFileError(f"block {bid}: truncated")
            if zlib.crc32(view[off:end]) != struct.unpack_from("<I", data, end)[0]:
                raise IndexFileError(f"block {bid}: checksum mismatch")
            flat = struct.unpack_from(f"<{nrec * w}q", data, off + 9)
            recs = tuple(flat[i:i + w] for i in range(0, nrec * w, w)) if w else ()
            meta = struct.unpack_from(f"<{nmeta}q", data, end - 8 * nmeta)
            store.blocks.append((kind, recs, meta))
            off = end + 4
        if off != len(data):
            raise IndexFileError(f"{len(data) - off} trailing bytes")
        return store


_REC_WIDTH = {K_DIR: 0, K_VALS: 1, K_LIST: 3, K_PST: 3, K_KARR: 7, K_SEP: 1,
              K_FIRST: 2}


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
        nc = min(B, -(-len(rest) // B))
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
                     out: list, meter=None) -> None:
    """Append to `out` the colors of the points with a <= x <= b, y < c. A
    block's records ascend by x, so only its slice [a, b] is tested."""
    if root < 0:
        return
    stack = [root]
    while stack:
        _, recs, meta = store.read(stack.pop(), meter)
        lo = bisect.bisect_left(recs, (a,))
        for _, y, color in recs[lo:bisect.bisect_left(recs, (b + 1,), lo)]:
            if y < c:
                out.append(color)
        nchild = meta[0]
        for i in range(nchild):
            bid, xlo, xhi, miny = meta[1 + 4 * i:5 + 4 * i]
            if xhi < a or xlo > b or miny >= c:
                continue
            stack.append(bid)


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
        blocks = store.blocks
        _require(self.B >= 2 and bool(blocks) and blocks[0][0] == K_DIR,
                 "no directory block")
        meta = blocks[0][2]
        _require(len(meta) >= 5, "short directory")
        self.cap, self.nleaves, self.vals_start, self.first_start, nlevels = \
            meta[:5]
        _require(self.cap >= 1 and self.nleaves == -(-n // self.cap)
                 and nlevels >= 0, "directory size")
        self.level_base, nagg = fallback_levels(n, self.cap, self.nleaves)
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
        self._check()

    def _region(self, start: int, count: int, kind: int, what: str) -> None:
        """`count` records packed B per block from block `start` on."""
        nb = -(-count // self.B)
        _require(count == 0 or count > 0 and 0 < start
                 and start + nb <= len(self.store.blocks),
                 f"{what} outside the file")
        for i in range(nb):
            k, recs, _ = self.store.blocks[start + i]
            _require(k == kind and len(recs) == min(self.B, count - i * self.B),
                     f"{what}: block {start + i}")

    def _check(self) -> None:
        """Directory entries, separator levels, first points, K records and
        PST children, so that no query on a loaded file reads outside the
        store, loops, or trusts a record order or PST bound that the records
        contradict."""
        blocks, B = self.store.blocks, self.B
        self._region(self.vals_start, self.n, K_VALS, "values")
        # separator level l holds the last record of each block of level l-1
        child_start, count = self.vals_start, -(-self.n // B)
        for start in reversed(self.levels):
            _require(count > 1, "separator level count")
            self._region(start, count, K_SEP, "separators")
            for j in range(count):
                _require(blocks[start + j // B][1][j % B]
                         == blocks[child_start + j][1][-1],
                         f"separator block {start + j // B}")
            child_start, count = start, -(-count // B)
        _require(count <= 1, "separator level count")

        # aligned block g's first points are the region's records offs[g]
        # to offs[g + 1] - 1: prevpos ascending, before the block's first point
        offs = self.first_offsets
        _require(offs[0] == 0 and all(map(operator.le, offs, offs[1:])),
                 "first-point offsets")
        self._region(self.first_start, offs[-1], K_FIRST, "first points")
        recs = [r for bid in range(self.first_start,
                                   self.first_start + -(-offs[-1] // B))
                for r in blocks[bid][1]]
        colors = [r[1] for r in recs]
        _require(not colors or 0 <= min(colors) and max(colors) < self.ncolors,
                 "first-point color")
        g, size = 0, 2 * self.cap
        for _ in self.level_base:
            for start in range(0, self.n, size):
                ps = [r[0] for r in recs[offs[g]:offs[g + 1]]]
                _require(not ps or -1 <= ps[0] and ps[-1] < start
                         and all(map(operator.le, ps, ps[1:])),
                         f"first points of aligned block {g}")
                g += 1
            size *= 2

        lists = set()
        for _, k_start, k_len in self.leaf_dir:
            self._region(k_start, k_len, K_KARR, "K array")
            for bid in range(k_start, k_start + -(-k_len // B)):
                for side, _, _, rl_s, rl_n, lr_s, lr_n in blocks[bid][1]:
                    _require(side in (1, 2) and rl_n <= self.cap
                             and lr_n <= self.cap, f"K record in block {bid}")
                    lists.update(((rl_s, rl_n), (lr_s, lr_n)))
        for start, length in lists:
            self._region(start, length, K_LIST, "R/L list")

        # the PST blocks form a forest: a child precedes its parent in the
        # file, no block is referenced twice, and a child's (xlo, xhi, min y)
        # are those of the records in its subtree
        seen = {root for root, _, _ in self.leaf_dir}
        _require(len(seen) == self.nleaves, "shared PST root")
        span = {}  # PST block -> (xlo, xhi, min y) of its subtree
        for bid, (kind, recs, meta) in enumerate(blocks):
            if kind != K_PST:
                continue
            _require(bool(recs) and bool(meta) and len(meta) == 1 + 4 * meta[0],
                     f"PST block {bid}")
            xs = [r[0] for r in recs]
            _require(all(map(operator.lt, xs, xs[1:])),
                     f"PST block {bid}: records out of x order")
            xlo, xhi, miny = xs[0], xs[-1], min(r[1] for r in recs)
            for i in range(1, len(meta), 4):
                child = meta[i]
                _require(child in span and child not in seen,
                         f"PST child {child} of block {bid}")
                _require(span[child] == meta[i + 1:i + 4],
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
        for p in pts:
            check_coordinate(p.value)
        ncolors = max((p.color for p in pts), default=-1) + 1
        if ncolors > MAX_U32:
            raise InvalidColor(ncolors - 1)
        n = len(pts)
        lay = TreeLayout(pts, B * ceil_log(n, B))
        values, colors, prevs, cap = lay.values, lay.colors, lay.prevs, lay.cap

        store = BlockStore(B)
        store.append(K_DIR, ())  # placeholder, filled at the end
        vals_start, _ = store.write_region(K_VALS, [(v,) for v in values])
        # separator levels bottom-up: record j is the last value under block j
        # of the level below
        levels = []
        keys = values
        while True:
            keys = [keys[min(i + B, len(keys)) - 1]
                    for i in range(0, len(keys), B)]
            if len(keys) <= 1:
                break
            levels.append(store.write_region(K_SEP, [(k,) for k in keys])[0])
        _, offsets, keys, pos = first_points(lay)
        first_start, _ = store.write_region(K_FIRST, list(zip(
            (keys % (n + 1) - 1).tolist(), [colors[i] for i in pos.tolist()])))
        leaf_psts = [_build_block_pst(store, list(zip(values[lo:lo + cap],
                                                      prevs[lo:lo + cap],
                                                      colors[lo:lo + cap])))
                     for lo in range(0, n, cap)]

        # the non-root nodes' lists in preorder: R of a left child as
        # (v, 0, c) by value descending, L of a right child as (v, prev, c)
        ptr = {}
        stack = [lay.root] if lay.root is not None else []
        while stack:
            node = stack.pop()
            if node.parent is not None:
                if node is node.parent.left:
                    ent = [(lay.last_v[i], 0, lay.last_c[i])
                           for i in range(node.r_hi - 1, node.r_lo - 1, -1)]
                else:
                    lo, hi = node.l_lo, node.l_hi
                    ent = list(zip(lay.first_v[lo:hi], lay.first_p[lo:hi],
                                   lay.first_c[lo:hi]))
                ptr[node] = store.write_region(K_LIST, ent)
            if node.left is not None:
                stack += (node.right, node.left)

        # per-leaf K arrays: (side, m, height, R(u_l) ptr/len, L(u_r) ptr/len)
        meta = [cap, lay.nleaves, vals_start, first_start, len(levels),
                *reversed(levels), *offsets]
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
        return cls(store, n, ncolors)

    # -- locate phase -------------------------------------------------------------

    def _locate(self, a: int, meter=None, locate: bool = True) -> tuple:
        """(position, value) of the first value >= a, or (n, None): one read
        per separator level, then one of the value block."""
        if self.n == 0:
            return self.n, None
        j = 0  # block index within the current level
        for start in self._descent:
            _, recs, _ = self.store.read(start + j, meter, locate)
            i = bisect.bisect_left(recs, (a,))
            if i == len(recs):  # only at the top: a exceeds every value
                return self.n, None
            j = j * self.B + i
        return j, recs[i][0]

    def _hra(self, leaf_idx: int, a: int, b: int, meter=None) -> Optional[tuple]:
        """K-array search; returns the chosen entry or None. Entries run
        bottom-up, so the highest range ancestor is the last one whose side
        condition holds: m <= b for a left parent, m > a for a right one."""
        _, k_start, k_len = self.leaf_dir[leaf_idx]
        best = None
        for bid in range(k_start, k_start + -(-k_len // self.B)):
            for entry in self.store.read(bid, meter, locate=True)[1]:
                if (entry[1] <= b) if entry[0] == 1 else (entry[1] > a):
                    best = entry
        return best

    # -- reporting phase -------------------------------------------------------------

    def _iter_list(self, start: int, length: int, meter=None):
        """The records of a region, read block by block as they are taken
        (`_check` made each block hold min(B, the rest) of them)."""
        for bid in range(start, start + -(-length // self.B)):
            yield from self.store.read(bid, meter)[1]

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of [a, b]; the emission stream is duplicate-free."""
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        a = max(a, 1)  # no point lies below 1, and prev 0 must stay below a
        pos, v0 = self._locate(a, meter)
        if pos >= self.n or v0 > b:
            return []
        leaf_idx = pos // self.cap
        entry = self._hra(leaf_idx, a, b, meter)
        out: list = []
        if entry is None:
            _query_block_pst(self.store, self.leaf_dir[leaf_idx][0], a, b, a,
                             out, meter)
            return out

        # a full-length list whose last entry lies strictly inside the range
        # may leave colors out; one whose last entry is a (R) or b (L) holds
        # every color of its side
        _, _, _, rl_start, rl_len, lr_start, lr_len = entry
        cap = self.cap
        if (rl_len == cap and self._last_value(rl_start, rl_len, meter) > a
                or lr_len == cap
                and self._last_value(lr_start, lr_len, meter) < b):
            return self._wide(a, b, pos, meter)
        for v, _, color in self._iter_list(rl_start, rl_len, meter):
            if v < a:
                break
            out.append(color)
        for v, pv, color in self._iter_list(lr_start, lr_len, meter):
            if v > b:
                break
            if pv < a:
                out.append(color)
        return out

    def _last_value(self, start: int, length: int, meter=None) -> int:
        """The value of a list's last entry, in one read."""
        return self.store.read(start + (length - 1) // self.B, meter)[1][-1][0]

    def _wide(self, a: int, b: int, j: int, meter=None) -> list:
        """Distinct colors of [a, b], which holds succ(a) = point j, by
        `leaf_cover`: its single leaves through their PSTs, and from each
        aligned block the first points with prevpos < j, read page by page."""
        r, _ = self._locate(b + 1, meter, locate=False)
        leaves, groups = leaf_cover(j // self.cap, (r - 1) // self.cap,
                                    self.level_base)
        out: list = []
        for leaf in leaves:
            _query_block_pst(self.store, self.leaf_dir[leaf][0], a, b, a, out,
                             meter)
        B, offs, key = self.B, self.first_offsets, (j,)
        for g in groups:
            i, end = offs[g], offs[g + 1]
            while i < end:
                bid, lo = divmod(i, B)
                recs = self.store.read(self.first_start + bid, meter)[1]
                hi = min(B, lo + end - i)
                cut = bisect.bisect_left(recs, key, lo, hi)
                out += [color for _, color in recs[lo:cut]]
                if cut < hi:
                    break
                i += hi - lo
        return out

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        head = HEADER.pack(MAGIC, VERSION, self.n, self.B, self.ncolors,
                           len(self.store.blocks))
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
        for kind, recs, _ in self.store.blocks:
            if kind != K_KARR:
                continue
            for _, _, _, rl_s, rl_n, lr_s, lr_n in recs:
                for start, length, sign in ((rl_s, rl_n, -1), (lr_s, lr_n, 1)):
                    ents = list(self._iter_list(start, length))
                    keys = [sign * e[0] for e in ents]
                    _require(keys == sorted(keys)
                             and len({e[2] for e in ents}) == len(ents),
                             f"list at block {start}")

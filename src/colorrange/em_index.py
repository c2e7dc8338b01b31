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
IndexFileError. Each of these checks is one numpy pass over all the blocks
it covers.

`build` writes the file from numpy columns in whole-array passes, with no
Python loop per point or per block. The leaf PSTs are built a level at a
time for all leaves: one stable sort by (node, prevpos) ranks each node's
points by (y, x), the first B of each node fill its block, and the rest, in
x order, cut into the next level's nodes. Block ids, the recursion's post
order, come from subtree block counts taken bottom-up and summed over
siblings top-down. Every other region is one word column whose block
bounds follow from its record counts.
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
                   check_colors, check_integer, split_pairs)
from .static_index import (TreeLayout, fallback_levels, first_points,
                           leaf_cover)

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


def _ranks(lens: np.ndarray) -> np.ndarray:
    """0, 1, ..., lens[i] - 1 for each i, end to end."""
    return np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)


def _pack(counts: np.ndarray, B: int) -> tuple:
    """Regions of `counts` records each, packed B per block, one after the
    other: (each region's first block, counted from the first region's,
    and each block's record count)."""
    nb = -(-counts // B)
    return np.cumsum(nb) - nb, np.minimum(B, np.repeat(counts, nb)
                                          - B * _ranks(nb))


def _leaf_psts(x, y, c, key, cap: int, B: int, base: int) -> tuple:
    """The block-aware PSTs of the leaves of `cap` points, all leaves a
    level at a time. A node's block holds the B lowest points of its
    subtree by (y, x), in x order, then its child count and per child (bid,
    xlo, xhi, min y); the rest, in x order, splits into nc = min(B,
    ceil(rest / B)) chunks, the first rest % nc of them one point longer,
    which are its children. Blocks are numbered from `base` in post order,
    leaf by leaf. x, y, c: the points' values, prevs and colors; `key`
    ranks the points by y (prevpos + 1), and ties go by x.

    Returns (each leaf's root block, and per block in file order its
    record count, its metadata word count, then all its words)."""
    n, empty = len(x), np.zeros(0, dtype=np.int64)
    if n == 0:
        return empty, empty, empty, empty
    pts = np.arange(n)
    lens = np.full(-(-n // cap), cap)
    lens[-1] = n - cap * (len(lens) - 1)
    levels = []  # per level: (ntop, nc, top points, child xlo, xhi, min y)
    while len(pts):
        order = np.argsort(np.repeat(np.arange(len(lens)) * (n + 1), lens)
                           + key[pts], kind="stable")
        top = np.zeros(len(pts), dtype=bool)
        top[order[_ranks(lens) < B]] = True
        ntop = np.minimum(lens, B)
        rest, nrest = pts[~top], lens - ntop
        nc = np.minimum(B, -(-nrest // B))
        q, extra = np.divmod(nrest, np.maximum(nc, 1))
        lens = np.repeat(q, nc) + (_ranks(nc) < np.repeat(extra, nc))
        first = np.cumsum(lens) - lens
        levels.append((ntop, nc, pts[top], x[rest[first]],
                       x[rest[first + lens - 1]],
                       np.minimum.reduceat(y[rest], first) if len(rest)
                       else empty))
        pts = rest
    # subtree block counts bottom-up, then the post-order ids top-down: a
    # subtree's blocks follow its earlier siblings' subtrees
    sizes = [empty]  # below the last level
    for _, nc, *_ in reversed(levels):
        sums, ends = np.concatenate(([0], np.cumsum(sizes[-1]))), np.cumsum(nc)
        sizes.append(1 + sums[ends] - sums[ends - nc])
    sizes.reverse()
    bids, start = [], base + np.cumsum(sizes[0]) - sizes[0]
    for (_, nc, *_), size, below in zip(levels, sizes, sizes[1:]):
        bids.append(start + size - 1)
        sums = np.concatenate(([0], np.cumsum(below)))
        start = np.repeat(start - sums[np.cumsum(nc) - nc], nc) + sums[:-1]
    # each block's words at its place in the file
    at = np.concatenate(bids) - base
    order = np.empty_like(at)
    order[at] = np.arange(len(at))
    ntop, nc = (np.concatenate([lv[k] for lv in levels])[order] for k in (0, 1))
    ends = np.cumsum(3 * ntop + 1 + 4 * nc)
    offs = (ends - 3 * ntop - 1 - 4 * nc)[at]
    words = np.empty(ends[-1], dtype=np.int64)
    for (ntop_l, nc_l, top, xlo, xhi, miny), below in zip(levels,
                                                           bids[1:] + [empty]):
        off, offs = offs[:len(ntop_l)], offs[len(ntop_l):]
        at = np.repeat(off, ntop_l) + 3 * _ranks(ntop_l)
        words[at], words[at + 1], words[at + 2] = x[top], y[top], c[top]
        meta = off + 3 * ntop_l
        words[meta] = nc_l
        at = np.repeat(meta, nc_l) + 1 + 4 * _ranks(nc_l)
        words[at], words[at + 1], words[at + 2] = below, xlo, xhi
        words[at + 3] = miny
    return bids[0], ntop, 1 + 4 * nc, words


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise IndexFileError(f"malformed index file: {what}")


def _require_all(ok: np.ndarray, what) -> None:
    """`_require` of every entry of `ok`, naming the first that fails by
    `what(its index)`."""
    if not ok.all():
        _require(False, what(int(np.argmin(ok))))


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

    def _check(self) -> None:
        """Directory entries, separator levels, first points, K records and
        PST children, so that no query on a loaded file reads outside the
        store, loops, or trusts a record order or PST bound that the records
        contradict; each check is one numpy pass over all the blocks it
        covers. Only directory and PST blocks hold metadata, so a region's
        records are contiguous words."""
        B, n, cap = self.B, self.n, self.cap
        words = np.frombuffer(self.store.words, dtype=np.int64)
        bounds = np.frombuffer(self.store.bounds, dtype=np.int64)
        kinds = np.frombuffer(self.store.kinds, dtype=np.uint8)
        lo, mid, nblocks = bounds[:-1:2], bounds[1::2], len(kinds)

        def regions(starts, counts, kind: int, what: str) -> None:
            """Regions of `counts` records, each packed B per block from its
            block of `starts` on."""
            starts = np.asarray(starts, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.int64)
            nb = -(-counts // B)
            _require(bool(np.all((counts == 0) | (counts > 0) & (0 < starts)
                                 & (starts <= nblocks)
                                 & (nb <= nblocks - starts))),
                     f"{what} outside the file")
            full = counts > 0
            nb, i = nb[full], _ranks(nb[full])
            bid = np.repeat(starts[full], nb) + i
            _require_all((kinds[bid] == kind) & (
                mid[bid] - lo[bid] == _WIDTH[kind] * np.minimum(
                    B, np.repeat(counts[full], nb) - B * i)),
                lambda j: f"{what}: block {bid[j]}")

        regions([self.vals_start], [n], K_VALS, "values")
        # separator level l holds the last record of each block of level l-1
        child_start, count = self.vals_start, -(-n // B)
        for start in reversed(self.levels):
            _require(count > 1, "separator level count")
            regions([start], [count], K_SEP, "separators")
            seps = words[lo[start]:lo[start] + count]
            _require_all(seps == words[mid[child_start:child_start + count] - 1],
                         lambda j: f"separator block {start + j // B}")
            child_start, count = start, -(-count // B)
        _require(count <= 1, "separator level count")

        # aligned block g's first points are the region's records offs[g]
        # to offs[g + 1] - 1: prevpos ascending, before the block's first point
        offs = np.array(self.first_offsets, dtype=np.int64)
        _require(offs[0] == 0 and bool(np.all(offs[1:] >= offs[:-1])),
                 "first-point offsets")
        total = int(offs[-1])
        regions([self.first_start], [total], K_FIRST, "first points")
        first = lo[self.first_start] if total else 0
        prevpos = words[first:first + 2 * total:2]
        colors = words[first + 1:first + 2 * total:2]
        _require(not total or 0 <= colors.min() and colors.max() < self.ncolors,
                 "first-point color")
        block_start = np.concatenate([np.arange(0, n, 2 * cap << level)
                                      for level in range(len(self.level_base))]
                                     or [offs[:0]])
        g = np.repeat(np.arange(len(block_start)), np.diff(offs))
        _require_all((-1 <= prevpos) & (prevpos < block_start[g]) & (
            (_ranks(np.diff(offs)) == 0) | (prevpos >= np.roll(prevpos, 1))),
                     lambda j: f"first points of aligned block {g[j]}")

        # a leaf's K records are contiguous words; rec[:, w] is word w of each
        leaf_dir = np.array(self.leaf_dir, dtype=np.int64).reshape(-1, 3)
        roots, k_start, k_len = leaf_dir.T
        regions(k_start, k_len, K_KARR, "K array")
        at = np.repeat(lo[np.where(k_len > 0, k_start, 0)], 6 * k_len)
        rec = words[at + _ranks(6 * k_len)].reshape(-1, 6)
        _require_all((rec[:, 3] <= cap) & (rec[:, 5] <= cap) & (
            (_ranks(k_len) == 0) | (rec[:, 0] > np.roll(rec[:, 0], 1))),
                     lambda j: "K records of leaf "
                               f"{np.repeat(np.arange(len(k_len)), k_len)[j]}")
        regions(np.concatenate((rec[:, 2], rec[:, 4])),
                np.concatenate((rec[:, 3], rec[:, 5])), K_LIST, "R/L list")

        # the PST blocks form a forest: a child precedes its parent in the
        # file, no block is referenced twice, and a child's (xlo, xhi, min y)
        # are those of the records in its subtree
        pst = np.flatnonzero(kinds == K_PST)
        plo, pmid, pend = lo[pst], mid[pst], bounds[2 * pst + 2]
        nrec, nmeta = (pmid - plo) // 3, pend - pmid
        _require_all((nrec > 0) & (nmeta > 0), lambda j: f"PST block {pst[j]}")
        nch = words[pmid]
        _require_all(((nmeta - 1) % 4 == 0) & (nch == (nmeta - 1) // 4),
                     lambda j: f"PST block {pst[j]}")
        i = _ranks(nrec)
        at = np.repeat(plo, nrec) + 3 * i
        xs, ys = words[at], words[at + 1]
        _require_all((i == 0) | (xs > np.roll(xs, 1)), lambda j: (
            f"PST block {np.repeat(pst, nrec)[j]}: records out of x order"))
        at = np.repeat(pmid + 1, nch) + 4 * _ranks(nch)
        child, parent = words[at], np.repeat(pst, nch)
        ok = (0 <= child) & (child < parent)
        _require_all(ok & (kinds[np.where(ok, child, 0)] == K_PST),
                     lambda j: f"PST child {child[j]} of block {parent[j]}")
        used = np.concatenate((roots, child))
        _require(len(np.unique(used)) == len(used), "PST block referenced twice")
        # each block's span: that of its records and its children's claims
        first = np.cumsum(nrec) - nrec
        span = [xs[first], xs[first + nrec - 1], np.minimum.reduceat(ys, first)
                if len(ys) else ys]
        if len(child):
            has, cfirst = nch > 0, (np.cumsum(nch) - nch)[nch > 0]
            for k, reduce in enumerate((np.minimum, np.maximum, np.minimum)):
                span[k][has] = reduce(span[k][has],
                                      reduce.reduceat(words[at + 1 + k], cfirst))
        c = np.searchsorted(pst, child)
        _require_all((span[0][c] == words[at + 1]) & (span[1][c] == words[at + 2])
                     & (span[2][c] == words[at + 3]),
                     lambda j: f"PST child {child[j]} of block {parent[j]}: bounds")
        ok = (0 <= roots) & (roots < nblocks)
        _require_all(ok & (kinds[np.where(ok, roots, 0)] == K_PST),
                     lambda j: f"PST block {roots[j]}")

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(cls, points: Sequence[ColoredPoint], B: int) -> "EmIndex":
        if isinstance(B, bool) or not hasattr(type(B), "__index__") \
                or not 2 <= B <= MAX_U32:
            raise ValueError(f"block size {B!r} is not an integer in "
                             "[2, 2^32 - 1]")
        B = operator.index(B)
        # the colors are checked once, and against the header before the
        # layout is built
        values, colors = split_pairs(points)
        check_colors(colors)
        ncolors = max(colors, default=-1) + 1
        if ncolors > MAX_U32:
            raise InvalidColor(ncolors - 1)
        n = len(values)
        lay = TreeLayout.of_checked(values, colors, B * ceil_log(n, B))
        cap, nleaves = lay.cap, lay.nleaves
        vals = np.frombuffer(lay.values, dtype=np.int64)
        cols = np.array(lay.colors, dtype=np.int64)
        prevpos = np.frombuffer(lay.prevpos, dtype=np.int32)
        prevs = np.concatenate(([0], vals))[prevpos + 1]  # 0 for none
        pieces = []  # in file order: (kind, per block its record count and
        # its metadata word count, the words); the directory, block 0, is
        # put in front once the rest is known

        def next_block() -> int:
            return 1 + sum(len(recs) for _, recs, _, _ in pieces)

        def put(kind: int, counts, flat: np.ndarray) -> np.ndarray:
            """Regions of `counts` records, packed B per block, whose record
            words are `flat`, end to end; their first blocks."""
            start, (first, recs) = next_block(), _pack(
                np.asarray(counts, dtype=np.int64), B)
            pieces.append((kind, recs, np.zeros_like(recs), flat))
            return start + first

        vals_start = int(put(K_VALS, [n], vals)[0])
        # separator levels bottom-up: record j is the last value under block j
        # of the level below
        levels, keys = [], vals
        while True:
            keys = keys[np.minimum(np.arange(B, len(keys) + B, B),
                                   len(keys)) - 1]
            if len(keys) <= 1:
                break
            levels.append(int(put(K_SEP, [len(keys)], keys)[0]))
        _, offsets, first_prev, first_pos = first_points(lay, 2 * cap)
        first_prev = np.frombuffer(first_prev, dtype=np.int32)
        first_start = int(put(K_FIRST, [len(first_prev)], np.column_stack(
            (first_prev, cols[first_pos])).ravel())[0])
        # the leaf PSTs; prevpos + 1 ranks the points as their prevs do
        roots, *psts = _leaf_psts(vals, prevs, cols, prevpos + 1, cap, B,
                                  next_block())
        pieces.append((K_PST, *psts))

        # the non-root nodes' lists in preorder: R of a left child as
        # (v, 0, c) by value descending, L of a right child as (v, prev, c)
        pre, stack = [], [lay.root_id] if nleaves else []
        while stack:
            u = stack.pop()
            pre.append(u)
            if lay.lchild[u] >= 0:
                stack += (lay.rchild[u], lay.lchild[u])
        pre = np.array(pre[1:], dtype=np.int64)
        lchild, rchild, roff, loff = (np.frombuffer(c, dtype=np.int32) for c in (
            lay.lchild, lay.rchild, lay.roff, lay.loff))
        left = np.zeros(len(lchild), dtype=bool)
        left[lchild[lchild >= 0]] = True
        left = left[pre]
        lens = np.where(left, roff[pre + 1] - roff[pre], loff[pre + 1] - loff[pre])
        # each entry's point: R runs backwards over `last_pos`, L forwards
        # over the first points, whose positions follow `last_pos`
        last_pos = np.frombuffer(lay.last_pos, dtype=np.int32)
        at = np.concatenate((last_pos, np.searchsorted(
            vals, np.frombuffer(lay.first_v, dtype=np.int64))))
        at = at[np.repeat(np.where(left, roff[pre + 1] - 1,
                                   len(last_pos) + loff[pre]), lens)
                + np.repeat(np.where(left, -1, 1), lens) * _ranks(lens)]
        list_start = np.zeros(len(lchild), dtype=np.int64)
        list_len = np.zeros(len(lchild), dtype=np.int64)
        list_start[pre] = put(K_LIST, lens, np.column_stack((
            vals[at], np.where(np.repeat(left, lens), 0, prevs[at]),
            cols[at])).ravel())
        list_len[pre] = lens

        # per leaf its K run: (m, height, R(u_l) ptr/len, L(u_r) ptr/len)
        kn = np.frombuffer(lay.kn, dtype=np.int32)
        k_len = np.diff(np.frombuffer(lay.koff, dtype=np.int32))
        lc, rc = lchild[kn], rchild[kn]
        k_start = put(K_KARR, k_len, np.column_stack((
            np.frombuffer(lay.km, dtype=np.int64),
            np.frombuffer(lay.height, dtype=np.int8)[kn], list_start[lc],
            list_len[lc], list_start[rc], list_len[rc])).ravel())
        directory = np.concatenate((
            [cap, nleaves, vals_start, first_start, len(levels), *levels[::-1]],
            np.frombuffer(offsets, dtype=np.int32),
            np.column_stack((roots, k_start, k_len)).ravel()), dtype=np.int64)
        pieces.insert(0, (K_DIR, [0], [len(directory)], directory))

        store = BlockStore(B)
        store.kinds = bytearray(np.concatenate([
            np.full(len(recs), kind, dtype=np.uint8)
            for kind, recs, _, _ in pieces]).tobytes())
        sizes = np.concatenate([np.column_stack((_WIDTH[kind] * np.asarray(
            recs), meta)).ravel() for kind, recs, meta, _ in pieces])
        store.bounds = array("q", np.cumsum(np.concatenate(([0], sizes)))
                             .tobytes())
        store.words = array("q", np.concatenate(
            [words for *_, words in pieces]).tobytes())
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

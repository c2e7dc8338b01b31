"""The per-row `DynamicIndex` builder, kept as the test oracle of the
whole-array one in `colorrange.dynamic_index`. It reads the value -> color
map and `by_color` from `color_maps`, makes each leaf's rows with a dict of
each color's last value so far, tags every row by one upward walk per tag,
and builds a leaf's lists from its rows and an internal node's from its
children's lists. `OracleIndex` builds, rebuilds and refreshes a split's
halves that way and updates as `DynamicIndex` does; `dynamic_state(idx)` is
everything either build makes, to compare or to hash."""

from colorrange.core import PREV_SENTINEL, color_maps
from colorrange.dynamic_index import ColorExtremes, DynamicIndex
from colorrange.pst import ColorPst
from colorrange.wbtree import WbTree

LISTS = ("fvals", "fprevs", "fcols", "pprevs", "pcols", "lvals", "lcols")


def dynamic_state(idx) -> tuple:
    """The tree's size and shape, `by_color` with its key order, every
    leaf's rows with their tags, and every node's bounds and seven lists
    (None where it has none)."""
    tree = idx.tree
    nodes = []
    for node in tree.iter_nodes():
        e = node.extremes
        lists = None if e is None else tuple(tuple(getattr(e, name))
                                             for name in LISTS)
        if node.is_leaf():
            d = node.dstruct
            shape = (tuple(node.values), tuple(d.prevs), tuple(d.cols),
                     tuple(d.hmins), tuple(d.hmaxs))
        else:
            shape = node.height, tuple(node.seps), node.size
        nodes.append((shape, node.submin, node.submax, lists))
    return (tree.n0, tree.size,
            tuple((c, tuple(lst)) for c, lst in idx.by_color.items()),
            tuple(nodes))


def _extremes(firsts: list, lasts: list) -> ColorExtremes:
    """From (value, prev, color) rows of F and (value, color) rows of Λ,
    each sorted by value."""
    by_prev = sorted((p, c) for _, p, c in firsts)
    return ColorExtremes([v for v, _, _ in firsts], [p for _, p, _ in firsts],
                         [c for _, _, c in firsts], [p for p, _ in by_prev],
                         [c for _, c in by_prev], [v for v, _ in lasts],
                         [c for _, c in lasts])


def _of_leaf(store: ColorPst) -> ColorExtremes:
    """From a leaf's (value, prev, color) rows."""
    rows = list(zip(store.vals, store.prevs, store.cols))
    lo = store.vals[0] if rows else None
    seen: set = set()
    lasts = []
    for v, _, c in reversed(rows):
        if c not in seen:
            seen.add(c)
            lasts.append((v, c))
    lasts.reverse()
    return _extremes([r for r in rows if r[1] < lo], lasts)


def _of_children(node) -> ColorExtremes:
    """From the children's lists: F(v) is the children's F entries with
    prev below v, Λ(v) their Λ entries of colors no later child holds."""
    lo = node.submin
    firsts = [r for ch in node.children
              for r in zip(ch.extremes.fvals, ch.extremes.fprevs,
                           ch.extremes.fcols) if r[1] < lo]
    seen: set = set()
    chunks = []
    for ch in reversed(node.children):
        e = ch.extremes
        chunks.append([(v, c) for v, c in zip(e.lvals, e.lcols)
                       if c not in seen])
        seen.update(e.lcols)
    return _extremes(firsts, [r for chunk in reversed(chunks) for r in chunk])


def _build_extremes(node) -> None:
    node.extremes = (_of_leaf(node.dstruct) if node.is_leaf()
                     else _of_children(node))


class OracleIndex(DynamicIndex):
    """A `DynamicIndex` built, rebuilt and refreshed at splits row by row."""

    def __init__(self, points=()):
        colors, self.by_color = color_maps(points)
        self.tree = WbTree(colors)
        self._attach_all(colors)

    def _attach_all(self, colors=None) -> None:
        """Leaf stores, color extremes and tags from the current tree;
        `colors` maps each value to its color, and defaults to one read from
        `by_color`."""
        if colors is None:
            colors = {v: c for c, lst in self.by_color.items() for v in lst}
        leaves = self.tree.leaves_under(self.tree.root)
        last: dict = {}
        for leaf in leaves:
            cols = [colors[v] for v in leaf.values]
            prevs = []
            for v, c in zip(leaf.values, cols):
                prevs.append(last.get(c, PREV_SENTINEL))
                last[c] = v
            leaf.dstruct = ColorPst(leaf.values, prevs, cols)
        self._retag_leaves(leaves)
        # preorder puts every parent before its children, so its reverse
        # builds each node's lists after its children's
        for node in reversed(list(self.tree.iter_nodes())):
            if node is not self.tree.root:
                _build_extremes(node)

    def _refresh_halves(self, left, right) -> None:
        _build_extremes(left)
        _build_extremes(right)
        self._retag_leaves(self.tree.leaves_under(left)
                           + self.tree.leaves_under(right))

    def _retag_leaves(self, leaves) -> None:
        """Exact tags for every row of consecutive leaves, in order: prev
        from the row, next from one backward pass, and only each color's
        last value in the run bisects `by_color`."""
        following: dict = {}
        for leaf in reversed(leaves):
            d = leaf.dstruct
            vals, prevs, cols = d.vals, d.prevs, d.cols
            for k in range(len(vals) - 1, -1, -1):
                v, c = vals[k], cols[k]
                d.hmins[k] = self._tag_min(prevs[k], leaf)
                d.hmaxs[k] = self._tag_max(
                    following[c] if c in following else self._next(v, c),
                    leaf)
                following[c] = v

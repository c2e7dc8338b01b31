"""Per-layer metrics of the traced run, one group per module of colorrange.

HOOKS names the public calls the tracer wraps. METRICS turns their spans
into numbers; each entry names the end-to-end metric it should move and the
workload it should move it on, so a later change can cite it. Times are self
time in seconds: a span's duration minus the time spent in child spans.

Phases come from the op id a span ran under: the set-up (normalize_input
plus the constructor), query ops, update ops and the em load cycle. A layer
the workload does not reach reports 0. A metric whose hooks are gone from
the library is omitted and listed as missing.
"""

from __future__ import annotations

from tracer import B0, B1, INFO, L0, L1, NAME, OP, PARENT, T0, T1

SETUP, LOAD = -1, -2


def _length(args, kwargs, result):
    return len(result)


def _receiver(args, kwargs, result):
    return args[0]


def _dedup_io(args, kwargs, result):
    return len(args[1]), len(result)


def _stripe_result(args, kwargs, result):
    pts, over = result
    cap = kwargs.get("cap", args[5] if len(args) > 5 else None)
    return len(pts), bool(over) or (cap is not None and len(pts) >= cap)


def _wb_events(args, kwargs, result):
    return len(result.get("splits", ())), bool(result["rebuilt"])


HOOKS = [
    ("colorrange.core:normalize_input", "core.normalize", None),
    ("colorrange.core:compute_prev", "core.compute_prev", None),
    ("colorrange.core:ColArray.dedup", "core.dedup", _dedup_io),
    ("colorrange.backends:SortedArrayLocator.any_in", "backends.any_in", None),
    ("colorrange.backends:SortedArrayLocator.succ", "backends.succ", None),
    ("colorrange.backends:SortedArrayLocator.pred", "backends.pred", None),
    ("colorrange.backends:SortedArrayLocator.insert", "backends.update", None),
    ("colorrange.backends:SortedArrayLocator.delete", "backends.update", None),
    ("colorrange.pst:ColorPst.__init__", "pst.build", None),
    ("colorrange.pst:ColorPst.query", "pst.query", _receiver),
    ("colorrange.pst:ColorPst.insert", "pst.update", None),
    ("colorrange.pst:ColorPst.delete", "pst.update", None),
    ("colorrange.pst:ColorPst.update_prev", "pst.update", None),
    ("colorrange.static_index:StaticIndex.__init__", "static_index.build", None),
    ("colorrange.static_index:StaticIndex.query", "static_index.query", _length),
    ("colorrange.static_index:StaticIndex.hra_query", "static_index.hra", None),
    ("colorrange.em_index:EmIndex.query", "em_index.query", None),
    ("colorrange.em_index:BlockStore.read", "em_index.read", None),
    ("colorrange.em_index:EmIndex.to_bytes", "em_index.to_bytes", _length),
    ("colorrange.em_index:EmIndex.from_bytes", "em_index.from_bytes", None),
    ("colorrange.stripe:StripeIndex.query", "stripe.query", _stripe_result),
    ("colorrange.stripe:StripeIndex.insert", "stripe.update", None),
    ("colorrange.stripe:StripeIndex.delete", "stripe.update", None),
    ("colorrange.wbtree:WbTree.insert", "wbtree.update", _wb_events),
    ("colorrange.wbtree:WbTree.delete", "wbtree.update", _wb_events),
    ("colorrange.wbtree:WbTree.dyn_hra", "wbtree.hra", None),
    ("colorrange.wbtree:WbTree.succ", "wbtree.succ", None),
    ("colorrange.slow_index:SlowIndex.insert", "slow_index.update", None),
    ("colorrange.slow_index:SlowIndex.delete", "slow_index.update", None),
    ("colorrange.slow_index:SlowIndex.query", "slow_index.query", None),
    ("colorrange.slow_index:SlowIndex.k_leftmost_elements", "slow_index.select", None),
    ("colorrange.slow_index:SlowIndex.k_rightmost_elements", "slow_index.select", None),
    ("colorrange.dynamic_index:DynamicIndex.query", "dynamic_index.query", None),
    ("colorrange.dynamic_index:DynamicIndex.insert", "dynamic_index.update", None),
    ("colorrange.dynamic_index:DynamicIndex.delete", "dynamic_index.update", None),
]


class Trace:
    """Spans of one traced run, indexed for the metric definitions below."""

    def __init__(self, tracer, op_kinds, fallback, n_points):
        self.spans = tracer.spans
        self.self_ns = tracer.self_times()
        self.op_kinds = op_kinds  # per op id: "query" or "update"
        self.fallback = fallback  # the static index's global ColorPst
        self.n_points = n_points
        self.nq = max(1, op_kinds.count("query"))
        self.nu = max(1, op_kinds.count("update"))
        self.children: dict = {}
        self.by_name: dict = {}
        for i, s in enumerate(self.spans):
            self.children.setdefault(s[PARENT], []).append(i)
            self.by_name.setdefault(s[NAME], []).append(i)

    def phase(self, s) -> str:
        op = s[OP]
        return "setup" if op == SETUP else "load" if op == LOAD else self.op_kinds[op]

    def select(self, name, phase=None) -> list:
        return [i for i in self.by_name.get(name, ())
                if phase is None or self.phase(self.spans[i]) == phase]

    def seconds(self, names, phase, keep=lambda s: True) -> float:
        return sum(self.self_ns[i] for name in names for i in self.select(name, phase)
                   if keep(self.spans[i])) / 1e9

    def calls(self, name, phase="query") -> int:
        return len(self.select(name, phase))

    def delta(self, name, field_from, field_to, phase="query") -> int:
        return sum(self.spans[i][field_to] - self.spans[i][field_from]
                   for i in self.select(name, phase))

    def infos(self, name, phase="query") -> list:
        return [self.spans[i][INFO] for i in self.select(name, phase)]

    def child_names(self, i) -> list:
        return [self.spans[j][NAME] for j in self.children.get(i, ())]

    def is_fallback(self, s) -> bool:
        return s[INFO] is not None and s[INFO] is self.fallback

    def static_route(self, i) -> str:
        kids = self.children.get(i, ())
        if not any(self.spans[j][NAME] == "static_index.hra" for j in kids):
            return "empty"
        for j in kids:
            if self.spans[j][NAME] == "pst.query":
                return "fallback" if self.is_fallback(self.spans[j]) else "leaf_pst"
        return "lists"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _dedup_in_per_out(t):
    io = t.infos("core.dedup")
    return _ratio(sum(i for i, _ in io), sum(o for _, o in io))


def _pst_visits_per_point(t):
    points = t.delta("pst.query", T0, T1)
    return _ratio(points + t.delta("pst.query", L0, L1), points)


def _touches_per_color(t):
    touches = t.delta("static_index.query", T0, T1)
    return _ratio(touches, sum(k + 1 for k in t.infos("static_index.query")))


def _route_share(route):
    def share(t):
        queries = t.select("static_index.query", "query")
        return _ratio(sum(t.static_route(i) == route for i in queries), len(queries))
    return share


def _cap_hit_share(t):
    hits = [hit for _, hit in t.infos("stripe.query")]
    return _ratio(sum(hits), len(hits))


def _fallback_share(t):
    queries = t.select("dynamic_index.query", "query")
    return _ratio(sum("slow_index.query" in t.child_names(i) for i in queries),
                  len(queries))


def _file_bytes_per_point(t):
    return _ratio(sum(t.infos("em_index.to_bytes", "load")), t.n_points)


def _secs(names, phase, **kw):
    return lambda t: t.seconds(names, phase, **kw)


def _per_query(fn):
    return lambda t: fn(t) / t.nq


# (name, unit, hooks it needs, value, the end-to-end metric it should move)
METRICS = [
    ("core.normalize_s", "s", ["core.normalize"], _secs(["core.normalize"], "setup"),
     "setup_s on every workload"),
    ("core.compute_prev_s", "s", ["core.compute_prev"],
     _secs(["core.compute_prev"], "setup"), "setup_s on every workload"),
    ("core.dedup_s", "s", ["core.dedup"], _secs(["core.dedup"], "query"),
     "query_p99_x_flat on static-mixed, query_p50_x_flat on dynamic-churn"),
    ("core.dedup_in_per_out", "ratio", ["core.dedup"], _dedup_in_per_out,
     "query_p99_x_flat on static-mixed, query_p50_x_flat on dynamic-churn"),
    ("backends.locate_s", "s", ["backends.any_in", "backends.succ", "backends.pred"],
     _secs(["backends.any_in", "backends.succ", "backends.pred"], "query"),
     "query_p50_x_flat on static-mixed"),
    ("backends.any_in_calls_per_query", "count", ["backends.any_in"],
     _per_query(lambda t: t.calls("backends.any_in")), "query_p50_x_flat on static-mixed"),
    ("backends.update_s", "s", ["backends.update"], _secs(["backends.update"], "update"),
     "ops_per_s_x_flat (updates) on dynamic-churn"),
    ("pst.leaf.query_s", "s", ["pst.query"],
     lambda t: t.seconds(["pst.query"], "query", keep=lambda s: not t.is_fallback(s)),
     "query_p50_x_flat on static-mixed"),
    ("pst.fallback.query_s", "s", ["pst.query"],
     lambda t: t.seconds(["pst.query"], "query", keep=t.is_fallback),
     "query_p99_x_flat on static-mixed"),
    ("pst.query_calls_per_query", "count", ["pst.query"],
     _per_query(lambda t: t.calls("pst.query")), "query_p50_x_flat on static-mixed"),
    ("pst.visits_per_point", "ratio", ["pst.query"], _pst_visits_per_point,
     "query_p50_x_flat and query_p99_x_flat on static-mixed"),
    ("pst.build_s", "s", ["pst.build"], _secs(["pst.build"], "setup"),
     "setup_s on static-mixed"),
    ("pst.update_s", "s", ["pst.update", "pst.build"],
     _secs(["pst.update", "pst.build"], "update"), "ops_per_s_x_flat (updates) on dynamic-churn"),
    ("static_index.query_self_s", "s", ["static_index.query"],
     _secs(["static_index.query"], "query"), "query_p50_x_flat on static-mixed"),
    ("static_index.hra_s", "s", ["static_index.hra"], _secs(["static_index.hra"], "query"),
     "query_p50_x_flat on static-mixed"),
    ("static_index.locate_ops_per_query", "count", ["static_index.query"],
     _per_query(lambda t: t.delta("static_index.query", L0, L1)),
     "query_p50_x_flat on static-mixed"),
    ("static_index.build_self_s", "s", ["static_index.build"],
     _secs(["static_index.build"], "setup"), "setup_s on static-mixed"),
    ("static_index.touches_per_color", "ratio", ["static_index.query"],
     _touches_per_color, "cost_per_query on static-mixed"),
    *[(f"static_index.route.{r}", "ratio", ["static_index.query", "static_index.hra",
                                            "pst.query"], _route_share(r),
       "query_p50_x_flat and query_p99_x_flat on static-mixed")
      for r in ("empty", "leaf_pst", "lists", "fallback")],
    ("em_index.block_reads_per_query", "count", ["em_index.query"],
     _per_query(lambda t: t.delta("em_index.query", B0, B1)),
     "cost_per_query and query_p50_x_flat on em-mixed"),
    ("em_index.locate_reads_per_query", "count", ["em_index.query"],
     _per_query(lambda t: t.delta("em_index.query", L0, L1)),
     "cost_per_query and query_p50_x_flat on em-mixed"),
    ("em_index.read_s", "s", ["em_index.read"], _secs(["em_index.read"], "query"),
     "query_p50_x_flat and query_p99_x_flat on em-mixed"),
    ("em_index.query_self_s", "s", ["em_index.query"], _secs(["em_index.query"], "query"),
     "query_p50_x_flat and query_p99_x_flat on em-mixed"),
    ("em_index.to_bytes_s", "s", ["em_index.to_bytes"], _secs(["em_index.to_bytes"], "load"),
     "load_s (a detail of --trace 0) on em-mixed"),
    ("em_index.from_bytes_s", "s", ["em_index.from_bytes"],
     _secs(["em_index.from_bytes"], "load"), "load_s (a detail of --trace 0) on em-mixed"),
    ("em_index.file_bytes_per_point", "B", ["em_index.to_bytes"], _file_bytes_per_point,
     "load_s (a detail of --trace 0) on em-mixed"),
    ("stripe.query_s", "s", ["stripe.query"], _secs(["stripe.query"], "query"),
     "query_p50_x_flat on dynamic-churn"),
    ("stripe.query_calls_per_query", "count", ["stripe.query"],
     _per_query(lambda t: t.calls("stripe.query")), "query_p50_x_flat on dynamic-churn"),
    ("stripe.points_per_query", "count", ["stripe.query"],
     _per_query(lambda t: sum(n for n, _ in t.infos("stripe.query"))),
     "query_p50_x_flat on dynamic-churn"),
    ("stripe.cap_hit_share", "ratio", ["stripe.query"], _cap_hit_share,
     "query_p50_x_flat on dynamic-churn"),
    ("stripe.update_s", "s", ["stripe.update"], _secs(["stripe.update"], "update"),
     "ops_per_s_x_flat (updates) on dynamic-churn"),
    ("wbtree.update_s", "s", ["wbtree.update"], _secs(["wbtree.update"], "update"),
     "ops_per_s_x_flat (update tail) on dynamic-churn"),
    ("wbtree.splits_per_update", "count", ["wbtree.update"],
     lambda t: sum(n for n, _ in t.infos("wbtree.update", "update")) / t.nu,
     "ops_per_s_x_flat (update tail) on dynamic-churn"),
    ("wbtree.rebuilds", "count", ["wbtree.update"],
     lambda t: sum(r for _, r in t.infos("wbtree.update", "update")),
     "ops_per_s_x_flat (update tail) on dynamic-churn"),
    ("wbtree.hra_s", "s", ["wbtree.hra"], _secs(["wbtree.hra"], "query"),
     "query_p50_x_flat on dynamic-churn"),
    ("wbtree.succ_s", "s", ["wbtree.succ"], _secs(["wbtree.succ"], "query"),
     "query_p50_x_flat on dynamic-churn"),
    ("slow_index.update_s", "s", ["slow_index.update"], _secs(["slow_index.update"], "update"),
     "ops_per_s_x_flat (updates) on dynamic-churn"),
    ("slow_index.query_s", "s", ["slow_index.query"], _secs(["slow_index.query"], "query"),
     "query_p99_x_flat on dynamic-churn"),
    ("slow_index.fallback_share", "ratio", ["dynamic_index.query", "slow_index.query"],
     _fallback_share, "query_p99_x_flat on dynamic-churn"),
    ("slow_index.select_s", "s", ["slow_index.select"], _secs(["slow_index.select"], "update"),
     "ops_per_s_x_flat (update tail) on dynamic-churn"),
    ("dynamic_index.query_self_s", "s", ["dynamic_index.query"],
     _secs(["dynamic_index.query"], "query"), "query_p50_x_flat on dynamic-churn"),
    ("dynamic_index.update_self_s", "s", ["dynamic_index.update"],
     _secs(["dynamic_index.update"], "update"), "ops_per_s_x_flat (updates) on dynamic-churn"),
]


def layer_metrics(trace: Trace, missing) -> tuple[dict, list]:
    """({name: {"value", "unit"}}, names of metrics whose hooks are gone)."""
    out, gone = {}, []
    for name, unit, needs, value, _ in METRICS:
        if missing.intersection(needs):
            gone.append(name)
        else:
            out[name] = {"value": value(trace), "unit": unit}
    return out, gone

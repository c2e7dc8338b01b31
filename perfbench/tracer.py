"""Spans around the library's public calls, installed from outside it.

`Tracer.install` replaces each hooked function or method with a wrapper that
records one span per call: name, start and end (ns), parent span, op id, the
CostMeter counters at both ends, and an optional summary of the call.
`uninstall` puts every original back. Spans stay in memory until `write`.

A hook whose target no longer exists is skipped and listed in `missing`, so
the metrics built on it can be reported as missing rather than failing.
"""

from __future__ import annotations

import importlib
import sys
import time

# span fields
NAME, START, END, PARENT, OP, T0, L0, B0, T1, L1, B1, INFO = range(12)


class Tracer:
    def __init__(self, meter):
        self.meter = meter
        self.spans: list = []
        self.op = -1
        self.missing: set = set()
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original raw value)

    # -- installing -----------------------------------------------------------

    def install(self, hooks) -> None:
        """hooks: (\"module:Qual.name\", span name, summary function or None)."""
        for target, name, summary in hooks:
            mod_name, _, qual = target.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(name)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, raw,
                            classmethod(self._wrap(raw.__func__, name, summary)))
            elif isinstance(owner, type):
                self._patch(owner, attr, raw, self._wrap(raw, name, summary))
            else:
                # a module function: also replace the names other modules
                # of the package imported it under
                wrapped = self._wrap(raw, name, summary)
                pkg = mod_name.split(".")[0]
                for mname, mod in list(sys.modules.items()):
                    if mod is None or mname.split(".")[0] != pkg:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, key, raw, wrapped)

    def _patch(self, owner, attr, raw, new) -> None:
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name, summary):
        spans, stack, meter = self.spans, self._stack, self.meter
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op,
                   meter.touches, meter.locate_ops, meter.block_reads,
                   0, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                rec[T1] = meter.touches
                rec[L1] = meter.locate_ops
                rec[B1] = meter.block_reads
            if summary is not None:
                rec[INFO] = summary(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading ----------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its child spans."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[OP]}\n")

"""Span recorder and the wrappers of the traced run.

The traced run wraps sdskit's layer functions from outside the package:
each wrapped call becomes a span (name, start, end, parent) and adds to
its function's call count and self time (span time minus the time covered
by child spans).  Per-letter calls (one-element insertion, reading and
word insertion) are counted and timed but not stored one by one, which
keeps memory bounded on workloads that make millions of them.  Helpers
below these functions are not wrapped; their time is their caller's self
time.  So are the wrappers' own cost around a child call and the speed
samples that interrupt the batch (``workloads.sampling_speed``, a few
percent of the time, spread evenly), which is why self times are
compared only between traced runs.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager

# functions wrapped as spans, per sdskit module: only those behind a
# per-layer metric, so that unreported helpers count in their callers' self time
SPANS = {
    "rewriting": ("normalize", "critical_branchings", "check_local_confluence",
                  "knuth_bendix_pass", "congruence_classes", "classify"),
    "sds": ("reachable_set", "check_axioms", "check_associativity",
            "check_commutation", "check_cross_section", "check_compatibility",
            "build_srs"),
    "young": ("column_presentation",),
    "chinese": ("completed_presentation", "precolumn_presentation",
                "verify_path_bounds"),
    "extra": ("commutation_probe",),
    "coherence": ("squier_cells", "strategy_cells", "verify_cell_shapes_young",
                  "verify_cell_shapes_chinese"),
    "registry": ("build_presentation",),
    "cli": ("main",),
}

# counters read off a wrapped function's result
RESULT_COUNTERS = {
    "rewriting.normalize": lambda r: {"steps": len(r.path.steps),
                                      "budget_hits": int(not r.reached_normal_form)},
    "rewriting.critical_branchings": lambda r: {"found": len(r)},
    "rewriting.knuth_bendix_pass": lambda r: {"rules_added": len(r.added)},
    "rewriting.congruence_classes": lambda r: {"words": len(r.representative)},
    "sds.reachable_set": lambda r: {"data": len(r.data)},
    "coherence.squier_cells": lambda r: {"cells": len(r)},
    "coherence.strategy_cells": lambda r: {"cells": len(r)},
}

LETTER_MODULES = ("young", "chinese", "extra")

# per-layer metrics of the traced run: name, unit, better
PER_LAYER = [
    *[(f"rewriting.{m}", u, "lower") for m, u in (
        ("normalize.calls", "count"), ("normalize.self_s", "s"),
        ("normalize.steps", "count"), ("normalize.budget_hits", "count"),
        ("critical_branchings.calls", "count"), ("critical_branchings.self_s", "s"),
        ("critical_branchings.found", "count"), ("check_local_confluence.self_s", "s"),
        ("knuth_bendix_pass.self_s", "s"), ("knuth_bendix_pass.rules_added", "count"),
        ("congruence_classes.calls", "count"), ("congruence_classes.self_s", "s"),
        ("congruence_classes.words", "count"), ("classify.self_s", "s"),
        ("systems_built", "count"))],
    ("sds.reachable_set.calls", "count", "lower"),
    ("sds.reachable_set.self_s", "s", "lower"),
    ("sds.reachable_set.data", "count", "lower"),
    ("sds.insert_word.calls", "count", "lower"),
    ("sds.insert_word.self_s", "s", "lower"),
    ("sds.insert_one.calls", "count", "lower"),
    ("sds.insert_one.distinct_ratio", "ratio", "higher"),
    ("sds.read.calls", "count", "lower"),
    ("sds.read.distinct_ratio", "ratio", "higher"),
    *[(f"sds.{f}.self_s", "s", "lower") for f in (
        "check_commutation", "check_associativity", "check_axioms",
        "check_cross_section", "check_compatibility", "build_srs")],
    *[(f"{m}.{op}.{k}", u, "lower") for m in LETTER_MODULES for op in ("insert", "read")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"{f}.self_s", "s", "lower") for f in (
        "young.column_presentation", "chinese.completed_presentation",
        "chinese.precolumn_presentation", "chinese.verify_path_bounds",
        "extra.commutation_probe")],
    ("coherence.squier_cells.self_s", "s", "lower"),
    ("coherence.squier_cells.cells", "count", "lower"),
    ("coherence.strategy_cells.self_s", "s", "lower"),
    ("coherence.strategy_cells.cells", "count", "lower"),
    ("coherence.verify_cell_shapes_young.self_s", "s", "lower"),
    ("coherence.verify_cell_shapes_chinese.self_s", "s", "lower"),
    ("registry.build_presentation.self_s", "s", "lower"),
    ("registry.parse_datum.self_s", "s", "lower"),
    ("registry.format_datum.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("wrong_verdicts", "ratio", "lower"),
    ("trace.batch_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Recorder:
    """Spans kept in memory, plus per-name call counts, self times and counters."""

    def __init__(self):
        self.spans: list = []             # (name, start, end, parent index or -1)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {"sds.insert_one": set(), "sds.read": set()}
        self._stack = [[0.0, -1]]         # per open span: [child time, stored index]

    def _enter(self, keep: bool):
        parent = self._stack[-1]
        frame = [0.0, parent[1]]
        if keep:
            frame[1] = len(self.spans)
            self.spans.append(None)
        self._stack.append(frame)
        return parent, frame

    def _exit(self, name: str, keep: bool, parent, frame, start: float, end: float):
        self._stack.pop()
        duration = end - start
        parent[0] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
        if keep:
            self.spans[frame[1]] = (name, start, end, parent[1])

    def wrap(self, name: str, fn, keep: bool = True):
        counters = RESULT_COUNTERS.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent, frame = self._enter(keep)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, keep, parent, frame, start, perf())
            if counters is not None:
                for key, value in counters(result).items():
                    self.count(f"{name}.{key}", value)
            return result

        return wrapper

    def wrap_letter(self, name: str, kind: str, fn):
        """Wrap a structure's insert_one or read: a span that is not stored,
        attributed to the module defining `fn`, and keyed for the distinct
        ratio by (structure, arguments)."""
        module = fn.__module__.rsplit(".", 1)[-1]
        span = f"{module}.{'insert' if kind == 'insert_one' else 'read'}"
        seen = self.distinct[f"sds.{kind}"]
        inner = self.wrap(span, fn, keep=False)

        def letter(*args):
            seen.add(hash((name, args)))
            return inner(*args)

        letter.traced = True
        return letter

    def count(self, name: str, value: int = 1):
        self.counters[name] = self.counters.get(name, 0) + value

    def metrics(self) -> dict[str, float]:
        """Per-layer values; layers a workload never reaches read 0."""
        out: dict[str, float] = {}
        for name, value in self.calls.items():
            out[f"{name}.calls"] = value
        for name, value in self.self_s.items():
            out[f"{name}.self_s"] = value
        out.update(self.counters)
        for kind in ("insert_one", "read"):
            calls = sum(self.calls.get(f"{m}.{'insert' if kind == 'insert_one' else 'read'}", 0)
                        for m in LETTER_MODULES)
            out[f"sds.{kind}.calls"] = calls
            distinct = len(self.distinct[f"sds.{kind}"])
            out[f"sds.{kind}.distinct_ratio"] = distinct / calls if calls else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


@contextmanager
def installed(sdk: dict, rec: Recorder):
    """Install every wrapper for the duration of the block, then restore the
    original functions, classes and registry entries."""
    undo = []
    try:
        modules = list(sdk.values())
        for home, names in SPANS.items():
            for attr in names:
                original = getattr(sdk[home], attr)
                wrapper = rec.wrap(f"{home}.{attr}", original)
                # every module that bound the name at import time
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
        _install_classes(sdk, rec, undo)
        _install_registry(sdk, rec, undo)
        yield rec
    finally:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)


def _install_classes(sdk, rec: Recorder, undo: list):
    system_cls = sdk["rewriting"].RewritingSystem
    post_init = system_cls.__post_init__

    def counted_post_init(self):
        rec.count("rewriting.systems_built")
        post_init(self)

    structure_cls = sdk["sds"].StringDataStructure
    init = structure_cls.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for field in ("insert_one", "read"):
            fn = getattr(self, field)
            if not getattr(fn, "traced", False):
                object.__setattr__(self, field, rec.wrap_letter(self.name, field, fn))

    for cls, key, value in ((system_cls, "__post_init__", counted_post_init),
                            (structure_cls, "__init__", traced_init),
                            (structure_cls, "insert_word",
                             rec.wrap("sds.insert_word", structure_cls.insert_word,
                                      keep=False))):
        undo.append((cls, key, getattr(cls, key)))
        setattr(cls, key, value)


def _install_registry(sdk, rec: Recorder, undo: list):
    table = sdk["registry"].STRUCTURES
    for name, entry in list(table.items()):
        undo.append((table, name, entry))
        table[name] = dataclasses.replace(
            entry,
            parse_datum=rec.wrap("registry.parse_datum", entry.parse_datum),
            format_datum=rec.wrap("registry.format_datum", entry.format_datum))

"""In-memory span recording around archuncert's functions, and self time.

A span is (name, start, end, parent span index, op id). The tracer wraps
every module-level binding of each traced function, so a call through
``analysis.marginal_ve`` is recorded just like one through
``bn.marginal_ve``. Spans live in flat arrays until the run ends, then
are written out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function, span name). yaml.compose is traced as formats calls it.
TRACED = (
    ("yaml", "compose", "formats.yaml_compose"),
    ("archuncert.formats", "parse_architecture_document",
     "formats.parse_architecture_document"),
    ("archuncert.formats", "serialize_architecture",
     "formats.serialize_architecture"),
    ("archuncert.formats", "parse_calibration_csv",
     "formats.parse_calibration_csv"),
    ("archuncert.formats", "write_sweep_csv", "formats.write_sweep_csv"),
    ("archuncert.arch", "validate_architecture", "arch.validate_architecture"),
    ("archuncert.arch", "to_network", "arch.to_network"),
    ("archuncert.arch", "expected_parents", "arch.expected_parents"),
    ("archuncert.arch", "change_impact", "arch.change_impact"),
    ("archuncert.bn", "validate_network", "bn.validate_network"),
    ("archuncert.bn", "marginal_ve", "bn.marginal_ve"),
    ("archuncert.bn", "factor_from_cpt", "bn.factor_from_cpt"),
    ("archuncert.bn", "factor_product", "bn.factor_product"),
    ("archuncert.bn", "sum_out", "bn.sum_out"),
    ("archuncert.bn", "restrict", "bn.restrict"),
    ("archuncert.analysis", "evaluate", "analysis.evaluate"),
    ("archuncert.analysis", "sweep", "analysis.sweep"),
    ("archuncert.analysis", "compare", "analysis.compare"),
    ("archuncert.analysis", "find_crossings", "analysis.find_crossings"),
    ("archuncert.patterns", "apply_n_version", "patterns.apply_n_version"),
    ("archuncert.calibration", "compute_threshold",
     "calibration.compute_threshold"),
    ("archuncert.calibration", "estimate_prior", "calibration.estimate_prior"),
    ("archuncert.calibration", "estimate_conditional",
     "calibration.estimate_conditional"),
)
LAYERS = ("formats", "arch", "bn", "analysis", "patterns", "calibration", "cli")
OP = "op"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack = []
        self.op = -1
        self.counters = {"parse.bytes": 0, "bn.factor_product.entries": 0,
                         "bn.max_factor_scope": 0}

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def spans(self):
        """(name, start, end, parent, op) tuples in begin order."""
        return [(self.names[n], s, e, p, o) for n, s, e, p, o in
                zip(self.name_id, self.start, self.end, self.parent,
                    self.op_id)]

    def _observe(self, name, args, result):
        if name == "formats.parse_architecture_document" and args:
            self.counters["parse.bytes"] += len(args[0].encode("utf-8"))
        elif name == "bn.factor_product":
            self.counters["bn.factor_product.entries"] += len(
                getattr(result, "table", ()))
            self.counters["bn.max_factor_scope"] = max(
                self.counters["bn.max_factor_scope"],
                len(getattr(result, "scope", ())))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            self._observe(name, args, result)
            return result
        return traced


def install(tracer):
    """Wrap every binding of the traced functions in the loaded yaml and
    archuncert modules. Returns a function that restores the originals.
    Functions a later version of the program no longer has are skipped."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "archuncert"
                                     or n.startswith("archuncert."))]
    undo = []
    for module_name, attr, span_name in TRACED:
        home = sys.modules.get(module_name)
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span_name, original)
        for module in modules + [home]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def restore():
        for module, key, original in reversed(undo):
            setattr(module, key, original)
    return restore


def write(path, span_list):
    with open(path, "w", encoding="utf-8") as fh:
        for span in span_list:
            fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per span: its duration minus the part of it that its children's
    intervals cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def per_function(spans, n_ops):
    """{name: (calls per op, self ms per op, inclusive s total)}."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        calls, self_s, incl = totals.get(span[0], (0, 0.0, 0.0))
        totals[span[0]] = (calls + 1, self_s + own, incl + span[2] - span[1])
    return {name: (calls / n_ops, self_s * 1e3 / n_ops, incl)
            for name, (calls, self_s, incl) in totals.items()}

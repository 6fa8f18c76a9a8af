"""Spans around calls into twlab's layers, recorded from outside the program.

Tracer wraps each traced public function and patches the wrapper in at the
function's module attribute and at every `from twlab.x import name` binding
(solvers binds check_nice; reductions binds validate and width).  Spans
(name, start, end, parent, op id, answer) stay in memory; layer_metrics()
derives self time per layer, and write() dumps the spans at exit.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "harness": ("verify_reduction", "solve_bf", "solve_dp"),
    "problems": (
        "bf_list_coloring",
        "bf_precoloring",
        "bf_equitable",
        "bf_general_factor",
        "bf_gensat",
        "bf_chosen_outdegree",
        "bf_min_max_outdegree",
        "bf_min_max_value",
        "bf_partitioned_clique",
        "bf_clique",
    ),
    "kernels": ("list_color_search", "orient_search", "gensat_search", "exact_treewidth"),
    "reductions": (
        "pc_to_list_coloring",
        "lc_to_precoloring",
        "clique_to_gensat",
        "pc_to_chosen_outdegree",
        "chosen_to_minmax",
    ),
    "treewidth": ("heuristic_decomposition", "to_nice", "validate", "check_nice", "exact_treewidth"),
    "solvers": ("dp_list_coloring", "dp_chosen_outdegree", "min_max_outdegree", "flow_min_max_uniform"),
}

# layers whose self time and call count a traced run reports
LAYER_TIMES = (
    "kernels.list_color_search",
    "kernels.orient_search",
    "kernels.gensat_search",
    "kernels.exact_treewidth",
    "solvers.dp_chosen_outdegree",
    "solvers.dp_list_coloring",
    "solvers.flow_min_max_uniform",
    "treewidth.heuristic_decomposition",
    "treewidth.to_nice",
    "treewidth.validate",
    "treewidth.check_nice",
)


class Tracer:
    """Context manager: patches the traced functions in on entry and the
    originals back on exit, so it can be entered once per op.  Call
    begin_op() before each traced operation."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.gadget_n = 0
        self.gadget_m = 0
        self.nice_nodes = 0
        wrappers = {}
        for short, names in TRACED.items():
            module = sys.modules[f"twlab.{short}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        # (module, attribute, original, wrapper) for every binding of a traced function
        self._bindings = [
            (module, attr, *wrappers[id(value)])
            for key, module in list(sys.modules.items())
            if key == "twlab" or key.startswith("twlab.")
            for attr, value in vars(module).items()
            if id(value) in wrappers and value is wrappers[id(value)][0]
        ]

    def begin_op(self) -> None:
        self.op += 1
        self.stack.clear()  # an op cut by its budget leaves no open spans

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            answer = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                answer = result is not None
                return result
            finally:
                t1 = perf_counter()
                if stack and stack[-1] == idx:
                    stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, answer)
                if answer:
                    self._count(name, result)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result) -> None:
        if name == "treewidth.to_nice":
            self.nice_nodes += len(result.nodes)
        elif name.startswith("reductions."):
            inst = result.instance
            g = inst.graph if hasattr(inst, "graph") else result.meta["dual_graph"]
            self.gadget_n += g.n
            self.gadget_m += len(g.edges)

    def __enter__(self):
        for module, attr, _fn, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, fn, _wrapper in self._bindings:
            setattr(module, attr, fn)
        return False

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer self time and counts over the traced spans."""
        # a span is left unset only if the op budget fired inside its finally
        spans = [s or ("", 0.0, 0.0, -1, -1, None) for s in self.spans]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _op, _ans in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        bf_s = bf_no_s = 0.0
        bf_calls = bf_yes = 0
        for i, (name, t0, t1, parent, _op, answer) in enumerate(spans):
            self_s[name] += t1 - t0 - child_time[i]
            calls[name] += 1
            # brute force: whole outermost oracle calls, their kernels included
            if name.startswith("problems.bf_") and not (
                parent >= 0 and spans[parent][0].startswith("problems.bf_")
            ):
                bf_calls += 1
                bf_s += t1 - t0
                if answer:
                    bf_yes += 1
                else:
                    bf_no_s += t1 - t0
        out: dict[str, tuple[float, str]] = {
            "problems.bf.s": (bf_s, "s"),
            "problems.bf.calls": (bf_calls, "count"),
            "problems.bf.no_s": (bf_no_s, "s"),
            "problems.bf.yes_frac": (bf_yes / bf_calls if bf_calls else 0.0, "frac"),
        }
        for name in LAYER_TIMES:
            out[f"{name}.s"] = (self_s[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        out["treewidth.nice_nodes"] = (self.nice_nodes, "count")
        out["treewidth.validate.per_op"] = (calls["treewidth.validate"] / ops, "count")
        out["reductions.s"] = (sum((v for k, v in self_s.items() if k.startswith("reductions.")), 0.0), "s")
        out["reductions.calls"] = (sum(v for k, v in calls.items() if k.startswith("reductions.")), "count")
        out["reductions.gadget_n"] = (self.gadget_n, "count")
        out["reductions.gadget_m"] = (self.gadget_m, "count")
        out["harness.self_s"] = (sum((v for k, v in self_s.items() if k.startswith("harness.")), 0.0), "s")
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans if s})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], *s[1:]] if s else None for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op", "answer"],
                       "spans": rows}, fh)

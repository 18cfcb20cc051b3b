"""Spans around the calls one elastichain layer makes into another.

The tracer replaces a function where its caller looks it up, as a module
attribute, and restores it afterwards. Each call records a span (name,
start, end, parent, self time) in memory; hot leaves such as the chain
closure, called hundreds of thousands of times per operation, only add to
a call count and a total so that memory stays flat. A binding that the
program no longer has is skipped, and its metrics read zero.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager


def _sweep_tag(args, kwargs, result):
    request = args[0]
    steps = len(result.points) + (result.truncation is not None)
    return {
        "steps": steps,
        "restart_runs": steps * len(request.branches) * request.seeds,
        "restart_won": sum(1 for rec in result.branch_log if rec.restart != 0),
        "advisories": len(result.advisories),
    }


def _chain_size(args, kwargs, result):
    return {"n": int(args[0].n)}


def _cli_command(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"command": argv[0]}


UNITS = {
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms",
    "cli.main_ms.twolink": "ms", "cli.main_ms.critical-force": "ms",
    "cli.main_ms.three-link": "ms", "cli.main_ms.sweep": "ms",
    "sweep.step_ms": "ms", "sweep.self_ms": "ms",
    "sweep.minimize_calls": "count", "sweep.minimize_self_ms": "ms",
    "sweep.objective_evals": "count", "chain.closure_us": "us", "chain.closure_ms": "ms",
    "sweep.restart_yield": "ratio", "sweep.classify_stability_us": "us",
    "statics.recover_force_us": "us", "sweep.three_link_ms": "ms",
    "buckling.build_system_ms.n400": "ms", "buckling.modes_ms.n50": "ms",
    "buckling.modes_ms.n100": "ms", "buckling.modes_ms.n200": "ms",
    "buckling.modes_ms.n400": "ms", "buckling.modes_self_ms.n400": "ms",
    "trace.overhead_s": "s",
}

# (module, attribute, span name, how the call is recorded, tag)
# "span" keeps every call, "count" only counts and times it, "factory"
# counts and times the callables the function returns.
BINDINGS = [
    ("elastichain", "sweep_force_deflection", "sweep", "span", _sweep_tag),
    ("elastichain.cli", "sweep_force_deflection", "sweep", "span", _sweep_tag),
    ("elastichain", "buckling_modes", "buckling.modes", "span", _chain_size),
    ("elastichain.cli", "buckling_modes", "buckling.modes", "span", _chain_size),
    ("elastichain.cli", "three_link_equilibria", "sweep.three_link", "span", None),
    ("elastichain.cli", "main", "cli.main", "span", _cli_command),
    ("elastichain.buckling", "build_system", "buckling.build_system", "span", _chain_size),
    ("elastichain.sweep", "minimize", "sweep.minimize", "span", None),
    ("elastichain.sweep", "classify_stability", "sweep.classify_stability", "span", None),
    ("elastichain.sweep", "recover_force", "statics.recover_force", "span", None),
    ("elastichain.sweep", "_make_objective", "sweep.objective", "factory", None),
    ("elastichain.sweep", "_close_chain_raw", "chain.closure", "count", None),
]


class Tracer:
    """In-memory span recorder; installed() binds its wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # name -> [calls, total ns]
        self.op = -1
        self._stack = []  # one [child ns, span id or None] frame per open call
        self._next_id = 0

    def _record(self, span_id, name, start, end, child_ns, tag):
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self.spans.append({
            "id": span_id, "name": name, "op": self.op, "parent": parent,
            "start_ns": start, "end_ns": end, "self_ns": end - start - child_ns, "tag": tag,
        })

    def _span_wrapper(self, name, fn, tag_fn):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            frame = [0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tag = tag_fn(args, kwargs, result) if tag_fn and result is not None else None
                self._record(frame[1], name, start, end, frame[0], tag)

        return wrapped

    def _count_wrapper(self, name, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        total = self.counts.setdefault(name, [0, 0])

        def wrapped(*args, **kwargs):
            stack.append([0, None])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                total[0] += 1
                total[1] += took

        return wrapped

    def _factory_wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self._count_wrapper(name, fn(*args, **kwargs))

        return wrapped

    @contextmanager
    def installed(self):
        """Bind every wrapper where its caller looks it up; restore on exit."""
        restore = []
        try:
            for module_name, attr, name, how, tag_fn in BINDINGS:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if how == "span":
                    replacement = self._span_wrapper(name, original, tag_fn)
                elif how == "count":
                    replacement = self._count_wrapper(name, original)
                else:
                    replacement = self._factory_wrapper(name, original)
                setattr(module, attr, replacement)
                restore.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def snapshot(self) -> dict:
        return {name: tuple(v) for name, v in self.counts.items()}

    def write(self, path, per_op_counts) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for op, counts in enumerate(per_op_counts):
                for name, (calls, total_ns) in counts.items():
                    handle.write(json.dumps(
                        {"name": name, "op": op, "calls": calls, "total_ns": total_ns}
                    ) + "\n")


def count_delta(before: dict, after: dict) -> dict:
    zero = (0, 0)
    return {
        name: (after[name][0] - before.get(name, zero)[0],
               after[name][1] - before.get(name, zero)[1])
        for name in after
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, per_op_counts: list) -> dict:
    """Per-layer figures from the spans of the traced operations.

    Totals are per operation (median over the traced operations); _us and
    per-call _ms figures are means per call; sizes split buckling calls.
    """
    by_op = [[s for s in tracer.spans if s["op"] == op] for op in range(len(per_op_counts))]

    def per_op(fn):
        return _median([fn(spans, counts) for spans, counts in zip(by_op, per_op_counts)])

    def named(spans, name):
        return [s for s in spans if s["name"] == name]

    def total_ms(spans, name, key="end"):
        chosen = named(spans, name)
        if key == "self":
            return sum(s["self_ns"] for s in chosen) / 1e6
        return sum(s["end_ns"] - s["start_ns"] for s in chosen) / 1e6

    def mean_call(name, scale):
        chosen = named(tracer.spans, name)
        if not chosen:
            return 0.0
        return sum(s["end_ns"] - s["start_ns"] for s in chosen) / len(chosen) / scale

    def counted(counts, name, index):
        return counts.get(name, (0, 0))[index]

    def step_ms(spans, counts):
        sweeps = [s for s in named(spans, "sweep") if s["tag"]]
        steps = sum(s["tag"]["steps"] for s in sweeps)
        return total_ms(spans, "sweep") / steps if steps else 0.0

    def restart_yield(spans, counts):
        tags = [s["tag"] for s in named(spans, "sweep") if s["tag"]]
        runs = sum(t["restart_runs"] for t in tags)
        won = sum(t["restart_won"] + t["advisories"] for t in tags)
        return won / runs if runs else 0.0

    closure_calls = sum(c.get("chain.closure", (0, 0))[0] for c in per_op_counts)
    closure_ns = sum(c.get("chain.closure", (0, 0))[1] for c in per_op_counts)

    def sized(name, n, key="end"):
        chosen = [s for s in named(tracer.spans, name) if s["tag"] and s["tag"]["n"] == n]
        if key == "self":
            return _median([s["self_ns"] / 1e6 for s in chosen])
        return _median([(s["end_ns"] - s["start_ns"]) / 1e6 for s in chosen])

    def cli_ms(command):
        return _median([(s["end_ns"] - s["start_ns"]) / 1e6 for s in named(tracer.spans, "cli.main")
                        if s["tag"] and s["tag"]["command"] == command])

    metrics = {
        "sweep.step_ms": per_op(step_ms),
        "sweep.self_ms": per_op(lambda sp, c: total_ms(sp, "sweep", "self")),
        "sweep.minimize_calls": per_op(lambda sp, c: len(named(sp, "sweep.minimize"))),
        "sweep.minimize_self_ms": per_op(lambda sp, c: total_ms(sp, "sweep.minimize", "self")),
        "sweep.objective_evals": per_op(lambda sp, c: counted(c, "sweep.objective", 0)),
        "chain.closure_us": closure_ns / closure_calls / 1e3 if closure_calls else 0.0,
        "chain.closure_ms": per_op(lambda sp, c: counted(c, "chain.closure", 1) / 1e6),
        "sweep.restart_yield": per_op(restart_yield),
        "sweep.classify_stability_us": mean_call("sweep.classify_stability", 1e3),
        "statics.recover_force_us": mean_call("statics.recover_force", 1e3),
        "sweep.three_link_ms": mean_call("sweep.three_link", 1e6),
        "buckling.build_system_ms.n400": sized("buckling.build_system", 400),
        "buckling.modes_self_ms.n400": sized("buckling.modes", 400, "self"),
    }
    for n in (50, 100, 200, 400):
        metrics[f"buckling.modes_ms.n{n}"] = sized("buckling.modes", n)
    for command in ("twolink", "critical-force", "three-link", "sweep"):
        metrics[f"cli.main_ms.{command}"] = cli_ms(command)
    return metrics

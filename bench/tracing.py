"""Span tracing for the benchmark's traced run.

``Tracer.install`` replaces each traced public function with a wrapper
wherever callers look it up: in the ``kpacking`` package and in every
``kpacking.*`` module namespace that holds the same function object.  The
wrappers record nested spans in memory; ``Tracer.take`` closes the current
phase (set-up or one pass) and folds its spans into per-function totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# module -> public functions traced, as named by the per-layer metrics
TRACED = {
    "families": ("enumerate_connected_graphs",),
    "graphs": ("is_isomorphic", "maximal_cliques", "parse_graph", "parse_matrix"),
    "recognition": (
        "is_extended_clique_node_by_cliques",
        "is_extended_clique_node_by_pattern",
        "clique_graph",
        "find_undominated_obstruction",
        "recheck_certificate",
    ),
    "perfection": ("polytope_vertices", "find_odd_hole", "perfection_report"),
    "solver": (
        "solve_kpf",
        "solve_limited_packing",
        "lp_relaxation",
        "check_scaling_identity",
    ),
    "cli": ("main",),
}
# functions returning a SolveResult, whose ``explored`` counts are summed
EXPLORING = ("solver.solve_kpf", "solver.solve_limited_packing")


@dataclass
class FunctionStats:
    calls: int = 0
    self_ns: int = 0
    explored: int = 0
    inputs: set = field(default_factory=set)


def _input_key(args, kwargs):
    key = (tuple(tuple(a) if isinstance(a, list) else a for a in args),
           tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self) -> None:
        # spans of the open phase: (span id, parent id, name, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[tuple[int, str, int]] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _count(self, name: str, args, kwargs) -> None:
        st = self.stats.setdefault(name, FunctionStats())
        st.calls += 1
        st.inputs.add(_input_key(args, kwargs))

    def _enter(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter_ns()))
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((span_id, parent, name, start, end))

    def take(self) -> dict[str, FunctionStats]:
        """Fold the open phase's spans into its stats and start a new phase.
        Self time is a span's duration minus the time its child spans cover."""
        child_ns: dict[int, int] = {}
        for _, parent, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        for span_id, _, name, start, end in self.spans:
            st = self.stats.setdefault(name, FunctionStats())
            st.self_ns += end - start - child_ns.get(span_id, 0)
        stats, self.stats, self.spans = self.stats, {}, []
        return stats

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        exploring = name in EXPLORING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name, args, kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if exploring:
                self.stats[name].explored += result.explored
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        # one call per invocation; one span per resumption of the generator
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name, args, kwargs)
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item

            return resumed()

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "kpacking" or n.startswith("kpacking.")
        ]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"kpacking.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

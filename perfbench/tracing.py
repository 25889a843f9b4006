"""Span tracing of qcograph's public functions, installed from outside the package.

Modules import functions by name (``oracle`` even binds ``spectra.main_count``
as ``_main_count``), so a wrapper on the defining module alone would miss
nested calls such as ``classify`` -> ``from_graph``. ``Tracer.install`` therefore
replaces every ``qcograph.*`` module attribute that *is* one of the original
function objects, and ``Tracer.remove`` puts the originals back so timed runs
execute unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer (module) -> wrapped public functions
LAYERS: dict[str, tuple[str, ...]] = {
    "enumeration": ("enumerate_cographs",),
    "cotree": ("parse", "to_graph", "from_graph", "canonical_string", "bags", "complement_cotree", "find_p4"),
    "graph": (
        "union",
        "join",
        "complement",
        "components",
        "induced_subgraph",
        "bipartition",
        "parse_edge_list",
    ),
    "spectra": ("signless_laplacian", "jacobi_eigh", "q_spectrum", "condensed", "main_eigs_condensed"),
    "recognition": (
        "classify",
        "find_induced",
        "perfect_elimination_ordering",
        "universal_clique_decomposition",
        "parse_generalized_core_satellite",
    ),
    "families": ("build", "expected_mains"),
    "oracle": ("predict_two_main_forms",),
    "verify": ("run_verify",),
    "sweep": ("sweep",),
    "cli": ("main",),
}

FUNCTIONS: tuple[str, ...] = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
JACOBI = "spectra.jacobi_eigh"


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    names += [f"{m}.self_s" for m in LAYERS]
    names += ["untraced.self_s", f"{JACOBI}.order_cubed", "trace.overhead_ratio"]
    return names


class Tracer:
    """Records one span per wrapped call: (function, start, end, parent span, case).

    Spans stay in memory until the caller asks for the summary. The case id
    is whatever the caller last set on ``case``; spans of one case share it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int, object]] = []
        self.order_cubed: Counter = Counter()  # case id -> sum of n^3 into jacobi_eigh
        self.case: object = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, index: int):
        spans, stack = self.spans, self._stack
        is_jacobi = FUNCTIONS[index] == JACOBI

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_jacobi:
                self.order_cubed[self.case] += len(args[0]) ** 3
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (index, start, end, parent, self.case)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for index, name in enumerate(FUNCTIONS):
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"qcograph.{module}"), attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, index))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qcograph" or mod_name.startswith("qcograph.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def call_counts(self, cases) -> Counter:
        """Calls per function over the spans whose case id is in ``cases``."""
        return Counter(FUNCTIONS[s[0]] for s in self.spans if s[4] in cases)

    def inclusive_s(self) -> Counter:
        """Time in each function with its callees, counting only calls not nested in another call of it."""
        out = Counter()
        for index, start, end, parent, _ in self.spans:
            while parent >= 0 and self.spans[parent][0] != index:
                parent = self.spans[parent][3]
            if parent < 0:
                out[FUNCTIONS[index]] += end - start
        return out

    def summary(self, wall_s: float) -> dict[str, float]:
        """Calls and self time per function, rolled up per layer.

        A span's self time is its duration minus its children's durations;
        time inside the traced window but outside every span is
        ``untraced.self_s``, so all self times add up to ``wall_s``.
        """
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        top = 0.0
        for span_id, (index, start, end, parent, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += (end - start) - child[span_id]
            if parent < 0:
                top += end - start
        out: dict[str, float] = {}
        layer_s = defaultdict(float)
        for index, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = self_s[index]
            layer_s[name.split(".")[0]] += self_s[index]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer]
        out["untraced.self_s"] = wall_s - top
        out[f"{JACOBI}.order_cubed"] = sum(self.order_cubed.values())
        total = sum(layer_s.values()) + out["untraced.self_s"]
        if abs(total - wall_s) > 1e-6 * max(1.0, wall_s):
            raise RuntimeError(f"self times add up to {total} s, traced wall time is {wall_s} s")
        return out

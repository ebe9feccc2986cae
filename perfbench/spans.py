"""Span tracer for the superpos benchmark.

``Tracer.install`` wraps, from outside the library, the public functions of
each superpos module (every binding of them, so that names a caller imported
with ``from .sdp import solve_cover`` are wrapped too) and the numpy.linalg
kernels the library calls. A wrapped function records a span: name, start,
end, parent span and item id. A numpy.linalg call records no span of its
own; it adds a count and its time to the innermost open span, which is where
the work was asked for. Spans stay in memory until ``write`` dumps them.

``layer_metrics`` derives the per-layer figures from the spans. A span's
self time is its duration minus its child spans and the numpy.linalg time
counted on it; that kernel time belongs to the ``linalg`` layer.

Solver counters are counted from the kernels the solvers call, not read from
the solvers themselves: a Newton step solves one Newton system
(``numpy.linalg.solve``), a line-search trial factorises one slack matrix
(``numpy.linalg.cholesky``) and a feasibility check is one
``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "basis", "states", "kraus", "measures", "sdp", "transform", "qubit", "game")
KERNELS = ("eigh", "eigvalsh", "cholesky", "inv", "solve", "lstsq", "svd")
# classes of the state a measure-mix item measures: free mixture of rank > 1,
# free and rank one (a single basis state), resourceful rank one, resourceful rank > 1
CLASSES = ("free", "free_pure", "pure", "mixed")

# public functions wrapped per module: those the workloads reach; a name a
# later version drops is skipped
WRAPPED = {
    "linalg": ("herm_eig",),
    "basis": ("new_free_basis", "filter_probability"),
    "states": ("free_expansion", "pure_free_coefficients", "superposition_rank", "eigen_decomposition"),
    "kraus": ("free_channel", "measure_selective", "complete_free"),
    "measures": ("l1_measure", "rel_entropy_measure", "rank_measure", "robustness"),
    "sdp": ("solve_cover", "solve_lmi"),
    "transform": ("enumerate_transformers", "max_conversion_prob"),
    "qubit": ("heatmap_cell", "qubit_state"),
    "game": ("build_game", "simulate", "outcome_states"),
}


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def _solve_attrs(fn):
    bind = _bound(fn)

    def attrs(args, kwargs, result):
        arguments = bind(args, kwargs)
        if "problem" in arguments:
            n = len(arguments["problem"].operators)
        else:
            n = len(arguments["mats"])
        return {"n": n, "relaxed": bool(result.gap > arguments["gap_tol"])}
    return attrs


def _simulate_attrs(fn):
    bind = _bound(fn)

    def attrs(args, kwargs, result):
        arguments = bind(args, kwargs)
        return {"input": arguments["input_kind"], "turns": result.turns,
                "conclusive": result.conclusive_turns}
    return attrs


ATTRS = {
    "sdp.solve_cover": _solve_attrs,
    "sdp.solve_lmi": _solve_attrs,
    "transform.enumerate_transformers": lambda fn: (
        lambda args, kwargs, result: {"r": len(result.support_source)}),
    "transform.max_conversion_prob": lambda fn: (
        lambda args, kwargs, result: {"deterministic": result.completion is not None}),
    "game.simulate": _simulate_attrs,
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "item", "kernels", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None, item: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.item = item
        self.kernels: dict = {}
        self.attrs: dict = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item, "kernels": self.kernels,
                "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._item: int | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._item)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def item(self, item_id: int):
        """Root span of one benchmark item; every span inside carries its id."""
        self._item = item_id
        span = self._open("item")
        try:
            yield
        finally:
            self._close(span)
            self._item = None

    def _span_wrapper(self, name: str, fn):
        attrs = ATTRS[name](fn) if name in ATTRS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None:
                try:
                    span.attrs.update(attrs(args, kwargs, result))
                except (TypeError, KeyError, AttributeError):
                    span.attrs["attrs_error"] = True   # a signature this version does not know
            return result
        return wrapper

    def _kernel_wrapper(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counter = stack[-1].kernels.setdefault(name, [0, 0.0])
                counter[0] += 1
                counter[1] += elapsed
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "superpos" or name.startswith("superpos."))]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"superpos.{layer}"]
            for fname in names:
                fn = vars(home).get(fname)
                if fn is None:
                    continue
                wrapper = self._span_wrapper(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
        lmi = vars(sys.modules["superpos.sdp"]).get("LmiProblem")
        if lmi is not None and "from_matrices" in vars(lmi):
            wrapper = self._span_wrapper("sdp.LmiProblem.from_matrices", lmi.from_matrices)
            self._patch(lmi, "from_matrices", staticmethod(wrapper))
        for name in KERNELS:
            self._patch(np.linalg, name, self._kernel_wrapper(name, getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "ms_p50" in name or "ms_per_item" in name:
        return "ms"
    if "items_per_s" in name or "turns_per_s" in name:
        return "1/s"
    if name.endswith(("_share", "_frac", "_ratio", "overhead")) or "_ratio." in name or "_frac." in name:
        return "ratio"
    return "count"


def _ms_p50(spans) -> float:
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _kernel_count(spans, kernel: str) -> int:
    return sum(s.kernels.get(kernel, (0, 0.0))[0] for s in spans)


def _solver_counters(prefix: str, suffix: str, solves, out: dict) -> None:
    steps = _kernel_count(solves, "solve")
    trials = _kernel_count(solves, "cholesky")
    returned = [s for s in solves if "relaxed" in s.attrs]
    out[f"{prefix}.newton_steps_per_solve{suffix}"] = _per(steps, len(solves))
    out[f"{prefix}.ls_trials_per_solve{suffix}"] = _per(trials, len(solves))
    out[f"{prefix}.feas_checks_per_solve{suffix}"] = _per(_kernel_count(solves, "eigvalsh"), len(solves))
    out[f"{prefix}.ls_accept_ratio{suffix}"] = _per(steps, trials)
    out[f"{prefix}.relaxed_return_frac{suffix}"] = _per(sum(s.attrs["relaxed"] for s in returned),
                                                        len(returned))


def layer_metrics(spans: list[Span], labels: dict, phase_items: set) -> dict:
    """Per-layer metrics from the spans of one traced run.

    ``labels`` maps item id to the item's labels (state class, support size);
    ``phase_items`` are the items of the traced phase. Per-item and per-solve
    figures use those items only; figures keyed by solve size also use items
    outside the phase (the support-5 probe of the conversion ladder).
    """
    n_items = len(phase_items)
    child_time: dict = {}
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
            children.setdefault(s.parent, []).append(s)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    named = lambda name: by_name.get(name, [])
    phase = lambda name: [s for s in named(name) if s.item in phase_items]
    cls = lambda s: labels.get(s.item, {}).get("class")
    out: dict = {}

    # sdp
    cover, lmi = phase("sdp.solve_cover"), phase("sdp.solve_lmi")
    for c in CLASSES:
        group = [s for s in cover if cls(s) == c]
        out[f"sdp.solve_cover.ms_p50.{c}"] = _ms_p50(group)
        _solver_counters("sdp.solve_cover", f".{c}", group, out)
    all_lmi = named("sdp.solve_lmi")
    for n in (2, 6, 24, 120):
        group = [s for s in all_lmi if s.attrs.get("n") == n]
        out[f"sdp.solve_lmi.ms_p50.n{n}"] = _ms_p50(group)
        _solver_counters("sdp.solve_lmi", f".n{n}", group, out)
    _solver_counters("sdp", "", cover + lmi, out)
    out["sdp.LmiProblem.from_matrices.ms_p50"] = _ms_p50(phase("sdp.LmiProblem.from_matrices"))

    # measures
    for name in ("rel_entropy_measure", "robustness"):
        spans_m = phase(f"measures.{name}")
        for c in CLASSES:
            out[f"measures.{name}.ms_p50.{c}"] = _ms_p50([s for s in spans_m if cls(s) == c])
    rel = phase("measures.rel_entropy_measure")
    out["measures.rel_entropy_measure.eigh_per_call"] = _per(_kernel_count(rel, "eigh"), len(rel))
    out["measures.l1_measure.ms_p50"] = _ms_p50(phase("measures.l1_measure"))
    out["measures.rank_measure.ms_p50"] = _ms_p50(phase("measures.rank_measure"))

    # transform: support size from the enumeration span (a child of the conversion)
    enum = named("transform.enumerate_transformers")
    convert = named("transform.max_conversion_prob")
    rank_of = {s.parent: s.attrs.get("r") for s in enum}
    for r in (2, 3, 4, 5):
        out[f"transform.enumerate_transformers.ms_p50.r{r}"] = _ms_p50([s for s in enum if s.attrs.get("r") == r])
        out[f"transform.max_conversion_prob.ms_p50.r{r}"] = _ms_p50([s for s in convert if rank_of.get(s.id) == r])
    returned = [s for s in phase("transform.max_conversion_prob") if "deterministic" in s.attrs]
    out["transform.deterministic_share"] = _per(sum(s.attrs["deterministic"] for s in returned), len(returned))

    # qubit
    cells = phase("qubit.heatmap_cell")
    out["qubit.heatmap_cell.ms_p50"] = _ms_p50(cells)
    solved = sum(any(c.name == "transform.max_conversion_prob" for c in children.get(s.id, ())) for s in cells)
    out["qubit.heatmap_cell.solve_share"] = _per(solved, len(cells))

    # kraus
    out["kraus.free_channel.ms_p50"] = _ms_p50(phase("kraus.free_channel"))
    out["kraus.measure_selective.ms_p50"] = _ms_p50(phase("kraus.measure_selective"))
    out["kraus.complete_free.calls_per_item"] = _per(len(phase("kraus.complete_free")), n_items)

    # game
    out["game.build_game.ms_p50"] = _ms_p50(phase("game.build_game"))
    sims = [s for s in phase("game.simulate") if "turns" in s.attrs]
    for kind in ("free", "superposed"):
        group = [s for s in sims if s.attrs["input"] == kind]
        out[f"game.simulate.turns_per_s.{kind}"] = _per(sum(s.attrs["turns"] for s in group),
                                                       sum(s.duration for s in group))
    out["game.conclusive_share"] = _per(sum(s.attrs["conclusive"] for s in sims),
                                        sum(s.attrs["turns"] for s in sims))

    # linalg kernels and self time of every layer
    in_phase = [s for s in spans if s.item in phase_items]
    for kernel in KERNELS:
        out[f"linalg.calls_per_item.{kernel}"] = _per(_kernel_count(in_phase, kernel), n_items)
    kernel_time = sum(c[1] for s in in_phase for c in s.kernels.values())
    out["linalg.ms_per_item"] = 1e3 * _per(kernel_time, n_items)
    self_time = dict.fromkeys(LAYERS, 0.0)
    self_time["linalg"] = kernel_time
    for s in in_phase:
        layer = s.name.split(".", 1)[0]
        if layer in self_time:
            own = sum(c[1] for c in s.kernels.values())
            self_time[layer] += s.duration - child_time.get(s.id, 0.0) - own
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_item"] = 1e3 * _per(self_time[layer], n_items)
    return out

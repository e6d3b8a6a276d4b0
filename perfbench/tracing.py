"""Spans around the program's public calls, recorded from outside.

install() replaces each traced function at every module-level name through
which the program calls it (several modules import functions by name) and,
for methods, on the class. No program file changes.

A span is [id, name, start, end, parent, trace, attrs]. One trace is one
top-level call, here one cli.main. Spans opened on the program's worker
threads take as parent the innermost span open on the thread that made the
tracer, which is the call that is waiting on the pool.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

MODULES = ("cli", "dsl", "truthtable", "fourier", "measures", "bounds", "approxdeg", "qsim")


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._root = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._trace = 0
        self.spans: list[list] = []

    def begin(self, name: str) -> list:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            elif thread != self._root:
                root = self._stacks.get(self._root)
                parent = root[-1] if root else None
            else:
                parent = None
                self._trace += 1
            span = [len(self.spans), name, 0.0, None, parent, self._trace, None]
            self.spans.append(span)
            stack.append(span[0])
        span[2] = time.perf_counter()
        return span

    def end(self, span: list, attrs: dict | None) -> None:
        end = time.perf_counter()
        with self._lock:
            span[3] = end
            span[6] = attrs
            self._stacks[threading.get_ident()].pop()

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs = annotate(args, None) if annotate else {}
                attrs.update(error=type(exc).__name__, message=str(exc)[:300])
                self.end(span, attrs)
                raise
            self.end(span, annotate(args, result) if annotate else None)
            return result

        return traced


# (span name, module, attribute path, annotate(args, result or None) -> dict)
TARGETS = [
    ("cli.main", "cli", "main", lambda a, r: {"code": r}),
    ("truthtable.builtin", "truthtable", "builtin", None),
    ("truthtable.compose", "truthtable", "compose", None),
    ("truthtable.iterate", "truthtable", "iterate", None),
    ("truthtable.read_table", "truthtable", "read_table", None),
    ("truthtable.table_id", "truthtable", "table_id", None),
    ("dsl.elaborate", "dsl", "elaborate", None),
    ("fourier.wht", "fourier", "wht", lambda a, r: {"n": a[0].n}),
    ("fourier.weight_profile", "fourier", "FourierSpectrum.weight_profile", None),
    ("fourier.nonzero_entries", "fourier", "nonzero_entries", None),
    ("fourier.spectral_degree", "fourier", "spectral_degree", None),
    ("measures.measure_report", "measures", "measure_report", None),
    ("measures.influences", "measures", "influences", None),
    ("measures.max_sensitivity", "measures", "max_sensitivity", None),
    ("measures.avg_influence", "measures", "avg_influence", None),
    ("measures.block_sensitivity", "measures", "block_sensitivity", lambda a, r: {"n": a[0].n}),
    ("bounds.bound_report", "bounds", "bound_report", None),
    ("bounds.query_lb_influence_best", "bounds", "query_lb_influence_best", None),
    ("bounds.correlation_decay", "bounds", "correlation_decay", None),
    ("bounds.displacement_lower_bound", "bounds", "displacement_lower_bound", None),
    ("approxdeg.approx_degree_scan", "approxdeg", "approx_degree_scan", None),
    ("approxdeg.exact_degree", "approxdeg", "exact_degree", lambda a, r: {"value": r}),
    ("approxdeg.min_error_at_degree", "approxdeg", "min_error_at_degree", lambda a, r: {"d": a[1]}),
    ("approxdeg.linprog", "approxdeg", "linprog", lambda a, r: {"nit": int(r.nit) if r else 0}),
    ("approxdeg.max_abs_error", "approxdeg", "max_abs_error", None),
    ("qsim.grover", "qsim", "grover", None),
    ("qsim.deutsch_parity", "qsim", "deutsch_parity", None),
    ("qsim.serial_read", "qsim", "serial_read", None),
    ("qsim.run", "qsim", "run", lambda a, r: {"support_max": max(r.support_history) if r else 0}),
    ("qsim.apply_query", "qsim", "apply_query", None),
    ("qsim.apply_unitary", "qsim", "apply_unitary", None),
    ("qsim.profile_state", "qsim", "profile_state", None),
    ("qsim.acceptance_probabilities", "qsim", "acceptance_probabilities", None),
    ("qsim.reconstruct", "qsim", "reconstruct", None),
    ("qsim.displacement_statistic", "qsim", "displacement_statistic", None),
    ("qsim.gap_check", "qsim", "gap_check", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target at each name it is reachable by in the package."""
    package = importlib.import_module("influence_lab")
    modules = {name: importlib.import_module(f"influence_lab.{name}") for name in MODULES}
    namespaces = [package, *modules.values()]
    for span_name, module, path, annotate in TARGETS:
        owner = modules[module]
        *outer, leaf = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        traced = tracer.wrap(span_name, original, annotate)
        setattr(owner, leaf, traced)
        for namespace in namespaces:
            for key in [k for k, v in vars(namespace).items() if v is original]:
                setattr(namespace, key, traced)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass


def _covered(span: list, children: list[list]) -> float:
    """Length of the part of span's interval that its children cover."""
    start, end = span[2], span[3]
    intervals = sorted((max(c[2], start), min(c[3], end)) for c in children)
    total, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanIndex:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[list]] = {}
        for s in spans:
            if s[4] is not None:
                self.children.setdefault(s[4], []).append(s)

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[1] == name]

    def count(self, name: str) -> float:
        return float(len(self.named(name)))

    def total(self, name: str) -> float:
        """Summed duration of the spans of this name not nested in one of the same name."""
        total = 0.0
        for s in self.named(name):
            parent = s[4]
            while parent is not None and self.spans[parent][1] != name:
                parent = self.spans[parent][4]
            if parent is None:
                total += s[3] - s[2]
        return total

    def self_time(self, name: str) -> float:
        return sum((s[3] - s[2] - _covered(s, self.children.get(s[0], [])) for s in self.named(name)), 0.0)

    def coverage(self, span: list) -> float:
        duration = span[3] - span[2]
        return _covered(span, self.children.get(span[0], [])) / duration if duration > 0 else 1.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json except trace.overhead_frac."""
    ix = SpanIndex(spans)
    wht = ix.named("fourier.wht")
    wht_s = ix.total("fourier.wht")
    bs = ix.named("measures.block_sensitivity")
    bs_s = ix.total("measures.block_sensitivity")
    exact = {}
    for s in ix.named("approxdeg.exact_degree"):
        if s[6] and "value" in s[6]:
            exact.setdefault(s[5], s[6]["value"])
    solves = ix.named("approxdeg.min_error_at_degree")
    known = [s for s in solves if exact.get(s[5]) == s[6]["d"]]
    lp_solve_s = ix.total("approxdeg.min_error_at_degree")
    highs_s = ix.total("approxdeg.linprog")
    runs = ix.named("qsim.run")
    mains = ix.named("cli.main")
    return {
        "cli.self_s": ix.self_time("cli.main"),
        "truthtable.builtin_s": ix.total("truthtable.builtin"),
        "truthtable.compose_s": ix.total("truthtable.compose"),
        "truthtable.read_table_s": ix.total("truthtable.read_table"),
        "dsl.elaborate_self_s": ix.self_time("dsl.elaborate"),
        "fourier.wht_s": wht_s,
        "fourier.wht_calls": float(len(wht)),
        "fourier.wht_melem_per_s": _ratio(sum(s[6]["n"] << s[6]["n"] for s in wht), wht_s) / 1e6,
        "fourier.weight_profile_s": ix.total("fourier.weight_profile"),
        "fourier.weight_profile_calls_per_wht": _ratio(ix.count("fourier.weight_profile"), len(wht)),
        "fourier.nonzero_entries_s": ix.total("fourier.nonzero_entries"),
        "measures.block_sensitivity_s": bs_s,
        "measures.bs_inputs_per_s": _ratio(sum(1 << s[6]["n"] for s in bs), bs_s),
        "measures.influences_s": ix.total("measures.influences"),
        "measures.max_sensitivity_s": ix.total("measures.max_sensitivity"),
        "bounds.k_scan_s": ix.total("bounds.query_lb_influence_best"),
        "bounds.correlation_decay_calls": ix.count("bounds.correlation_decay"),
        "approxdeg.scan_s": ix.total("approxdeg.approx_degree_scan"),
        "approxdeg.lp_solves": float(len(solves)),
        "approxdeg.lp_solve_s": lp_solve_s,
        "approxdeg.highs_s": highs_s,
        "approxdeg.highs_nit": float(sum(s[6]["nit"] for s in ix.named("approxdeg.linprog"))),
        "approxdeg.lp_self_s": lp_solve_s - highs_s,
        "approxdeg.known_answer_solves": float(len(known)),
        "approxdeg.known_answer_s": sum((s[3] - s[2] for s in known), 0.0),
        "approxdeg.reverify_failures": float(
            sum("re-verification" in s[6].get("message", "") for s in solves)
        ),
        "approxdeg.max_abs_error_s": ix.total("approxdeg.max_abs_error"),
        "qsim.run_s": ix.total("qsim.run"),
        "qsim.apply_query_s": ix.total("qsim.apply_query"),
        "qsim.apply_unitary_s": ix.total("qsim.apply_unitary"),
        "qsim.profile_s": ix.total("qsim.profile_state"),
        "qsim.reconstruct_calls": ix.count("qsim.reconstruct"),
        "qsim.displacement_s": ix.total("qsim.displacement_statistic"),
        "qsim.gap_check_s": ix.total("qsim.gap_check"),
        "qsim.support_max": float(max((s[6]["support_max"] for s in runs), default=0)),
        "trace.top_coverage_min": min((ix.coverage(s) for s in mains), default=0.0),
    }

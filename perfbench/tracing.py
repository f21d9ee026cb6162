"""Per-layer tracing of pacp, installed from outside the package.

``Tracer.install`` replaces each traced public function at every module
attribute of ``pacp`` that binds it, so calls the package makes internally
are recorded as well as the benchmark's own.  Spans (operation id, name,
parent span, start, end, time spent in traced children) are kept in memory
and written out once, at the end of the run.  ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (layer.function, module, attribute); the layer is the pacp module name.
TRACED = [
    ("simulation.simulate", "pacp.simulation", "simulate"),
    ("graph.parse_palog", "pacp.graph", "parse_palog"),
    ("graph.format_palog", "pacp.graph", "format_palog"),
    ("graph.substep_degrees", "pacp.graph", "substep_degrees"),
    ("graph.degree_tail_counts", "pacp.graph", "degree_tail_counts"),
    ("graph.bold_vertices", "pacp.graph", "bold_vertices"),
    ("likelihood.log_likelihood", "pacp.likelihood", "log_likelihood"),
    ("likelihood.log_lr", "pacp.likelihood", "log_lr"),
    ("likelihood.log_s_sum", "pacp.likelihood", "log_s_sum"),
    ("theory.asymptotic_variance", "pacp.theory", "asymptotic_variance"),
    ("theory.degree_moment", "pacp.theory", "degree_moment"),
    ("inference.mle", "pacp.inference", "mle"),
    ("inference.plugin_lr_test", "pacp.inference", "plugin_lr_test"),
    ("inference.localize_tau", "pacp.inference", "localize_tau"),
    ("inference.score", "pacp.inference", "score"),
    ("reduction.log_permuted_lr", "pacp.reduction", "log_permuted_lr"),
    ("reduction.log_esp", "pacp.reduction", "log_esp"),
    ("campaign.run_replicates", "pacp.campaign", "run_replicates"),
    ("cli.main", "pacp.cli", "main"),
]
# ReductionContext.build is a classmethod and is wrapped on the class.
BUILD = "reduction.build"

# Span names as reported: log_lr is split by its ``method`` argument.
SPAN_NAMES = [name for name, _, _ in TRACED if name != "likelihood.log_lr"] + [
    "likelihood.log_lr_tail",
    "likelihood.log_lr_sequential",
    BUILD,
]

# Extra counts, read off each call's arguments and result.
COUNTS = [
    "simulation.edges",
    "graph.bold_size",
    "theory.asymptotic_variance.terms",
    "inference.mle.iterations",
    "inference.mle.no_root",
    "reduction.r",
]


def _edges(g) -> int:
    return (g.n - 1) * g.m


def _count_simulate(c, args, kwargs, out):
    c["simulation.edges"] += _edges(out)


def _count_parse(c, args, kwargs, out):
    c["graph.parse_palog.edges"] += _edges(out)


def _count_format(c, args, kwargs, out):
    c["graph.format_palog.edges"] += _edges(args[0] if args else kwargs["g"])


def _count_bold(c, args, kwargs, out):
    c["graph.bold_size"] += out.size


def _count_terms(c, args, kwargs, out):
    c["theory.asymptotic_variance.terms"] += out.terms


def _count_mle(c, args, kwargs, out):
    for fit in (out.pre, out.post):
        c["inference.mle.iterations"] += fit.iterations
        c["inference.mle.no_root"] += fit.status == "no_interior_root"


def _count_build(c, args, kwargs, out):
    c["reduction.r"] += out.r


EXTRACT = {
    "simulation.simulate": _count_simulate,
    "graph.parse_palog": _count_parse,
    "graph.format_palog": _count_format,
    "graph.bold_vertices": _count_bold,
    "theory.asymptotic_variance": _count_terms,
    "inference.mle": _count_mle,
    BUILD: _count_build,
}


def _log_lr_name(args, kwargs) -> str:
    method = kwargs.get("method", args[4] if len(args) > 4 else "tail")
    return f"likelihood.log_lr_{method}"


class Tracer:
    """Records spans of traced calls while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[list] = []  # [op, name, parent, start_ns, end_ns, child_ns]
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def begin_op(self) -> None:
        self.op += 1

    def _wrap(self, name, fn):
        naming = _log_lr_name if name == "likelihood.log_lr" else None
        extract = EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            label = naming(args, kwargs) if naming else name
            span = [self.op, label, parent, time.perf_counter_ns(), 0, 0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += span[4] - span[3]
            if extract:
                extract(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "pacp" or key.startswith("pacp."))
        ]
        for name, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        cls = sys.modules["pacp.reduction"].ReductionContext
        original = cls.__dict__["build"]
        cls.build = classmethod(self._wrap(BUILD, original.__func__))
        self._undo.append((cls, "build", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self, op_seconds: float) -> dict:
        """Per traced function: calls and self seconds; the extra counts;
        ns per edge of the sampler and the PALOG codec; and the share of
        operation time that outermost spans cover."""
        calls: defaultdict = defaultdict(int)
        self_ns: defaultdict = defaultdict(int)
        top_ns = 0
        for _, name, parent, start, end, child in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child
            if parent < 0:
                top_ns += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = self_ns[name] / 1e9
        for name in COUNTS:
            out[name] = self.counts[name]
        per_edge = (
            ("simulation.simulate", "simulation.edges"),
            ("graph.parse_palog", "graph.parse_palog.edges"),
            ("graph.format_palog", "graph.format_palog.edges"),
        )
        for name, edges_key in per_edge:
            edges = self.counts[edges_key]
            out[f"{name}.ns_per_edge"] = self_ns[name] / edges if edges else 0.0
        out["trace.coverage"] = top_ns / 1e9 / op_seconds if op_seconds > 0 else 0.0
        return out

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["op", "name", "parent", "start_ns", "end_ns", "child_ns"],
                    "spans": self.spans,
                },
                fh,
            )

"""In-memory spans around the calls into each fockspace layer.

``install`` replaces module attributes (and three evaluator methods)
with timing wrappers, so every call through those names, from the CLI
or from another layer, opens a span whose parent is the span open at
the time. Nothing in the library is edited; the wrappers live only in
the traced child process. Spans are kept in memory and written out once
at the end.

A span's self time is its duration minus the durations of its direct
children. The per-layer metrics are sums over span names, plus counts
of work taken from the call arguments.
"""

from __future__ import annotations

import functools
import json
import re
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, fn, name, count=None):
        """Wrapper opening span ``name``; ``count(args, result)`` adds work counts."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, _perf(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _perf()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            return result

        return traced

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, start, end) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return dict(out)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end}) + "\n")


def _size(value):
    return int(np.size(value))


def _count_lse(args, result):
    return {"space.lse_cells": _size(args[0])}


def _count_counts(args, result):
    return {"pointsets.counts_points": len(args[0])}


def _count_product(args, result):
    m = int(args[2])
    return {"canonical.product_factors": (2 * m + 1) ** 2}


def _count_gfun(args, result):
    return {"canonical.gfun_points": _size(args[1])}


def _count_eval(args, result):
    return {"interpolation.eval_points": _size(args[1])}


_WALL_TIME = re.compile(r'^\s*"wall_time_s": [^\n]*\n', re.MULTILINE)


def _count_io(args, result):
    """Bytes of text the io layer renders; the report's wall_time_s line is
    left out, as its length varies from run to run."""
    if not isinstance(result, str):
        return {}
    return {"io.bytes_out": len(_WALL_TIME.sub("", result).encode("utf-8"))}


# (module, attribute, span name, work counter). Every fockspace module
# attribute bound to the same function gets the same wrapper, so calls
# through another module's imported name are caught as well.
_FUNCTIONS = (
    ("space", "_combine_term_logs", "space.lse", _count_lse),
    ("pointsets", "counts", "pointsets.counts", _count_counts),
    ("pointsets", "density_estimate", "pointsets.density", None),
    ("pointsets", "separation", "pointsets.kdtree", None),
    ("pointsets", "nearest_distance", "pointsets.kdtree", None),
    ("pointsets", "square_lattice", "pointsets.build", None),
    ("pointsets", "scale_lattice_to_density", "pointsets.build", None),
    ("pointsets", "perturb", "pointsets.build", None),
    ("canonical", "canonical_product", "canonical.product", _count_product),
    ("canonical", "_gfun_log_many", "canonical.gfun", _count_gfun),
    ("canonical", "gfun_derivative_at_node", "canonical.deriv", None),
    ("canonical", "sigma_log", "canonical.sigma", None),
    ("canonical", "quasi_period_constants", "canonical.quasi", None),
    ("canonical", "growth_check", "canonical.growth", None),
    ("sampling", "frame_bounds", "sampling.frame", None),
    ("sampling", "frame_matrix", "sampling.matrix", None),
    ("interpolation", "build_interpolant", "interpolation.build", None),
    ("interpolation", "residual_check", "interpolation.residual", None),
    ("interpolation", "norm_growth_report", "interpolation.norm_growth", None),
    ("interpolation", "lagrange_reconstruct", "interpolation.reconstruct", None),
)

_EVALUATOR_METHODS = (
    ("eval", "interpolation.eval", _count_eval),
    ("eval_weighted", "interpolation.eval", _count_eval),
    ("pointwise_bound", "interpolation.bound", None),
)

# io entry points the CLI calls, wrapped in the CLI's namespace only:
# dumps_json recurses through its own module global.
_IO_NAMES = (
    "density_report_to_doc",
    "dumps_json",
    "eval_grid_csv",
    "frame_estimate_to_doc",
    "frame_table_csv",
    "point_set_csv",
    "point_set_from_csv",
    "point_set_from_doc",
    "point_set_to_doc",
    "problem_from_doc",
    "sigma_grid_csv",
)


def install(cli_module) -> Tracer:
    """Wrap the layer entry points; return the tracer that records them."""
    import fockspace

    tracer = Tracer()
    names = ("space", "pointsets", "canonical", "sampling", "interpolation", "io", "cli")
    modules = [getattr(fockspace, n) for n in names] + [fockspace]
    for mod_name, attr, span, count in _FUNCTIONS:
        original = getattr(getattr(fockspace, mod_name), attr)
        traced = tracer.wrap(original, span, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    evaluator = fockspace.interpolation.InterpolantEvaluator
    for attr, span, count in _EVALUATOR_METHODS:
        setattr(evaluator, attr, tracer.wrap(getattr(evaluator, attr), span, count))
    for attr in _IO_NAMES:
        setattr(cli_module, attr, tracer.wrap(getattr(cli_module, attr), "io", _count_io))
    cli_module.main = tracer.wrap(cli_module.main, "cli")
    return tracer


def layer_metrics(totals: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced invocation, by their benchmark names."""

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    return {
        "space.lse_calls": calls("space.lse"),
        "space.lse_cells": counts.get("space.lse_cells", 0),
        "space.lse_s": incl("space.lse"),
        "pointsets.counts_calls": calls("pointsets.counts"),
        "pointsets.counts_points": counts.get("pointsets.counts_points", 0),
        "pointsets.counts_s": incl("pointsets.counts"),
        "pointsets.kdtree_calls": calls("pointsets.kdtree"),
        "pointsets.kdtree_s": incl("pointsets.kdtree"),
        "pointsets.other_self_s": own("pointsets.density") + own("pointsets.build"),
        "canonical.product_calls": calls("canonical.product"),
        "canonical.product_factors": counts.get("canonical.product_factors", 0),
        "canonical.product_s": incl("canonical.product"),
        "canonical.gfun_calls": calls("canonical.gfun"),
        "canonical.gfun_points": counts.get("canonical.gfun_points", 0),
        "canonical.gfun_s": incl("canonical.gfun"),
        "canonical.deriv_calls": calls("canonical.deriv"),
        "canonical.deriv_s": incl("canonical.deriv"),
        "canonical.sigma_calls": calls("canonical.sigma"),
        "canonical.sigma_self_s": own("canonical.sigma"),
        "canonical.quasi_s": incl("canonical.quasi"),
        "canonical.growth_self_s": own("canonical.growth"),
        "sampling.frame_calls": calls("sampling.frame"),
        "sampling.matrix_calls": calls("sampling.matrix"),
        "sampling.matrix_s": incl("sampling.matrix"),
        "sampling.eig_s": own("sampling.frame"),
        "interpolation.build_self_s": own("interpolation.build"),
        "interpolation.eval_points": counts.get("interpolation.eval_points", 0),
        "interpolation.eval_self_s": own("interpolation.eval"),
        "interpolation.bound_self_s": own("interpolation.bound"),
        "interpolation.norm_growth_self_s": own("interpolation.norm_growth"),
        "interpolation.reconstruct_self_s": own("interpolation.reconstruct"),
        "interpolation.residual_self_s": own("interpolation.residual"),
        "io.calls": calls("io"),
        "io.s": incl("io"),
        "io.bytes_out": counts.get("io.bytes_out", 0),
        "cli.self_s": own("cli"),
    }

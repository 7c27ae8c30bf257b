"""Spans around the calls into each iwatower layer, recorded from the
benchmark's side, and the per-layer metrics computed from them.

`instrument` replaces each traced function by a wrapper in every
iwatower module that holds it (methods on their class), so calls made
inside the library are traced as well as calls from the benchmark.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """One span per wrapped call: name, parent span, round, start and
    end (perf_counter seconds) and per-layer attributes.  `tags` is set
    by the workload (the mu > 0 mark of the module in flight)."""

    def __init__(self):
        self.spans = []
        self.tags = {}
        self.round = 0
        self._stack = []

    def wrap(self, name, fn, describe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "round": self.round}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if describe:
                span.update(describe(self, args, result))
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span}) + "\n")


def _describe_snf(tracer, args, shape):
    rows, cols = np.shape(args[0])
    return {"rows": rows, "cols": cols, "pivots": cols - shape.free_rank_at_precision}


def _describe_coinvariants(tracer, args, shape):
    M, n = args[0], args[1]
    ctx = M.context
    return {"basis": M.generators * ctx.p.p ** (n * ctx.d), "mu_pos": tracer.tags.get("mu_pos", False)}


def _describe_tower(tracer, args, data):
    return {"levels": len(data)}


def instrument(tracer):
    """Wrap the public entry points of every layer; returns nothing and
    cannot be undone, so call it once in a process of its own."""
    from iwatower import cli, formats, groupring, invariants, ktheory, modules, series

    package = [m for name, m in sys.modules.items() if name == "iwatower" or name.startswith("iwatower.")]

    def patch(owner, attr, name, describe=None):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, describe)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return
        for module in package:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    patch(modules, "snf", "snf", _describe_snf)
    patch(modules, "coinvariants", "coinvariants", _describe_coinvariants)
    patch(modules, "tower", "tower", _describe_tower)
    patch(groupring, "corpus_groups", "groupring.build")
    patch(groupring.FiniteGroup, "all_subgroups", "groupring.build")
    patch(groupring, "augmentation_quotients", "groupring.rows")
    patch(groupring, "quotient_coinvariant_check", "groupring.rows")
    patch(groupring.FiniteGroupRingModule, "shape_of", "groupring.rows")
    patch(series, "char_poly", "char_poly")
    patch(series, "weierstrass_prepare", "weierstrass")
    patch(invariants, "exact_invariants_d1", "exact_invariants")
    patch(invariants, "fit_growth", "fit_growth")
    patch(ktheory, "predict_growth", "predict_growth")
    for attr, value in list(vars(formats).items()):
        if callable(value) and not attr.startswith("_") and getattr(value, "__module__", "") == formats.__name__:
            patch(formats, attr, "formats")
    patch(cli, "main", "cli")


# (metric, unit) in report order; times are seconds per round
LAYER_METRICS = (
    ("snf.s", "s"), ("snf.calls", "count"), ("snf.cells", "count"),
    ("snf.pivots", "count"), ("snf.max_cells", "count"),
    ("coinvariants.s", "s"), ("coinvariants.assembly_s", "s"),
    ("coinvariants.basis", "count"), ("coinvariants.basis_mu_pos", "count"),
    ("tower.levels", "count"),
    ("groupring.build_s", "s"), ("groupring.rows_s", "s"), ("groupring.rows", "count"),
    ("char_poly.s", "s"), ("weierstrass.s", "s"), ("exact_invariants.s", "s"),
    ("fit_growth.s", "s"), ("predict_growth.s", "s"), ("formats.s", "s"), ("cli.s", "s"),
)


def layer_metrics(spans, rounds):
    """Per-round values of LAYER_METRICS, as {name: {value, unit}}.  A span's self time is its
    duration minus its child spans; `coinvariants.s` is the only
    metric that keeps the children (snf) in."""
    total = defaultdict(float)
    own = defaultdict(float)
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    counts = defaultdict(int)
    max_cells = 0
    for index, s in enumerate(spans):
        name, duration = s["name"], s["end"] - s["start"]
        total[name] += duration
        own[name] += duration - child[index]
        if name == "snf":
            cells = s["rows"] * s["cols"]
            counts["snf.calls"] += 1
            counts["snf.cells"] += cells
            counts["snf.pivots"] += s["pivots"]
            max_cells = max(max_cells, cells)
            if s["parent"] is not None and spans[s["parent"]]["name"] == "groupring.rows":
                counts["groupring.rows"] += s["rows"]
        elif name == "coinvariants":
            counts["coinvariants.basis"] += s["basis"]
            if s["mu_pos"]:
                counts["coinvariants.basis_mu_pos"] += s["basis"]
        elif name == "tower":
            counts["tower.levels"] += s["levels"]
    values = {
        "snf.s": own["snf"],
        "coinvariants.s": total["coinvariants"],
        "coinvariants.assembly_s": own["coinvariants"],
        "groupring.build_s": own["groupring.build"],
        "groupring.rows_s": own["groupring.rows"],
        "char_poly.s": own["char_poly"],
        "weierstrass.s": own["weierstrass"],
        "exact_invariants.s": own["exact_invariants"],
        "fit_growth.s": own["fit_growth"],
        "predict_growth.s": own["predict_growth"],
        "formats.s": own["formats"],
        "cli.s": own["cli"],
    }
    values = {k: v / rounds for k, v in values.items()}
    for name in ("snf.calls", "snf.cells", "snf.pivots", "coinvariants.basis",
                 "coinvariants.basis_mu_pos", "tower.levels", "groupring.rows"):
        values[name] = counts[name] // rounds
    values["snf.max_cells"] = max_cells
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

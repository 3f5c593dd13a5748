"""Per-layer spans for ptspec, recorded from outside the package.

Run one CLI command traced, in a fresh process like the untraced runs:

    python3 perfbench/tracing.py SPAN_FILE ARG...

This imports ptspec from ./src, replaces every module-level function of
the traced modules by a wrapper that records a span, calls
ptspec.cli.main(ARGS) in-process, and writes the spans to SPAN_FILE as
JSON.  Modules look their own functions and `series.` attributes up at
call time, so calls made inside the package are caught too; names
bound by `from .x import y` in another module are re-bound to the same
wrapper.

A span is [name, start, end, parent, size]: parent is the index of the
enclosing span (-1 for the root, cli.main) and size is the work measure
of the call where one is defined (see SIZES).  Spans stay in memory
until the command returns.  fold() turns the spans of a set of commands
into the per-layer metrics.  A layer's self time is its span minus the
spans of the layers it calls; private helpers (leading underscore, apart
from the stages reported by name) count as part of the layer calling them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from pathlib import Path
from time import perf_counter

TRACED_MODULES = ("series", "quantize", "nodes", "observables", "precision")
BINDING_MODULES = TRACED_MODULES + ("wedges", "cli")


def _table_terms(args, result):
    pmax = args[0].pmax
    return (pmax + 1) * (pmax + 2) // 2


def _coeff_count(args, result):
    return len(args[0])


# work measure per call: coefficients a polynomial evaluation runs
# through, grid points a scan returns, levels or nodes a search keeps
SIZES = {
    "series.poly_psi": _coeff_count,
    "series.poly_psi_d": _coeff_count,
    "series.eval_energy_poly": _coeff_count,
    "series.eval_psi": _table_terms,
    "series.tail_ratio": _table_terms,
    "quantize.scan_im_c": lambda args, result: len(result),
    "quantize.quantize_p_symmetric": lambda args, result: len(result),
    "nodes.find_nodes": lambda args, result: result.count(),
}

# Horner-style evaluations whose sizes add up to series.horner_terms
HORNER = ("series.poly_psi", "series.poly_psi_d", "series.eval_energy_poly",
          "series.eval_psi", "series.tail_ratio")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, size = self.spans, self._stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if size is not None:
                span[4] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced modules' functions and re-bind imported names."""
        wrapped = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"ptspec.{short}")
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrapper = self.wrap(f"{short}.{attr}", obj)
                    wrapped[obj] = wrapper
                    setattr(module, attr, wrapper)
        for short in BINDING_MODULES:
            module = importlib.import_module(f"ptspec.{short}")
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def _is_layer(name: str) -> bool:
    """Public functions and the named private stages are layers; other
    private helpers count as part of the layer that calls them."""
    return not name.split(".")[1].startswith("_") or name in LAYER_TIMES


def _self_times(spans):
    """Per layer span: its duration minus the spans of the nearest layers
    it calls (0 for helper spans, whose time goes to their layer)."""
    own = [0.0] * len(spans)
    owner = [0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if _is_layer(name):
            owner[i] = i
            own[i] = end - start
            if parent >= 0:
                own[owner[parent]] -= end - start
        else:
            owner[i] = owner[parent]
    return own


def _under(spans, ancestor: str):
    """Per span: True when some enclosing span is named `ancestor`."""
    flags = []
    for name, _, _, parent, _ in spans:
        flags.append(parent >= 0 and (flags[parent] or spans[parent][0] == ancestor))
    return flags


LAYER_TIMES = (
    "series.poly_psi", "series.poly_psi_d", "series.space_polynomial",
    "series.eval_energy_poly", "series.energy_polynomials", "series.tail_ratio",
    "series.build_tables", "series._float_entries",
    "quantize.health_check", "quantize.scan_im_c", "quantize.refine_root",
    "quantize.quantize_p_symmetric",
    "nodes.find_nodes",
    "observables.expectation", "observables._gl_rule", "observables.wavefunction_samples",
    "precision.real_str",
)
LAYER_CALLS = (
    "series.poly_psi", "series.poly_psi_d", "series.space_polynomial",
    "series.eval_energy_poly", "series.energy_polynomials", "nodes.newton_zero",
)
# metric name for a span name where the two differ
RENAMED = {"series._float_entries": "series.float_entries", "observables._gl_rule": "observables.gl_rule"}


def fold(span_lists) -> dict:
    """Per-layer metrics summed over the commands' span lists.

    Times are self times in seconds; counts are exact.
    """
    self_s: dict = {}
    calls: dict = {}
    sizes: dict = {}
    horner = evals_in_refine = seed_points = newton_steps = contour_points = 0
    for spans in span_lists:
        own = _self_times(spans)
        in_refine = _under(spans, "quantize.refine_root")
        in_find = _under(spans, "nodes.find_nodes")
        in_newton = _under(spans, "nodes.newton_zero")
        in_contour = _under(spans, "observables._contour_samples")
        for i, (name, _, _, _, size) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + own[i]
            calls[name] = calls.get(name, 0) + 1
            if size is not None:
                sizes[name] = sizes.get(name, 0) + size
            if name in HORNER:
                horner += size
            if name == "series.eval_energy_poly" and in_refine[i]:
                evals_in_refine += 1
            if name == "series.poly_psi" and in_find[i] and not in_newton[i]:
                seed_points += 1
            if name == "series.poly_psi_d" and in_newton[i]:
                newton_steps += 1
            if name == "series.poly_psi" and in_contour[i]:
                contour_points += 1

    def rename(name):
        return RENAMED.get(name, name)

    out = {f"{rename(n)}_s": (self_s.get(n, 0.0), "s") for n in LAYER_TIMES}
    out.update({f"{n}_calls": (calls.get(n, 0), "count") for n in LAYER_CALLS})
    levels = sizes.get("quantize.quantize_p_symmetric", 0) + calls.get("quantize.refine_root", 0)
    seeds = calls.get("nodes.newton_zero", 0)
    refined = calls.get("quantize.refine_root", 0)
    out.update({
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "series.horner_terms": (horner, "count"),
        "quantize.scan_points": (sizes.get("quantize.scan_im_c", 0), "count"),
        "quantize.levels": (levels, "count"),
        "quantize.evals_per_level": (evals_in_refine / refined if refined else 0.0, "count"),
        "nodes.seed_points": (seed_points, "count"),
        "nodes.newton_steps": (newton_steps, "count"),
        "nodes.seed_yield": (sizes.get("nodes.find_nodes", 0) / seeds if seeds else 0.0, "ratio"),
        "observables.contour_points": (contour_points, "count"),
    })
    return out


def main(argv) -> int:
    span_file, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    import ptspec.cli

    tracer = Tracer()
    tracer.install()
    run = tracer.wrap("cli.main", ptspec.cli.main)
    try:
        rc = run(cli_args)
    finally:
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Outside-in tracing of the package's layer boundaries.

``Tracer.install`` wraps the layer-boundary functions named in ``TARGETS``
and rebinds each wrapper under every name, in every ``bubble_correction``
module (or class), that holds the original, so calls made through
``from .polynomials import laplacian`` are seen as well as calls made through
the defining module.  ``uninstall`` puts the originals back.  Spans (name,
start, end, parent, request id) and the counts taken at the boundaries stay
in memory until ``spans_json`` writes them out.  ``layer_metrics`` turns the
spans into the per-layer figures: a ``_ms`` figure is self time (span time
minus the time covered by its child spans) summed over the run.
"""

from __future__ import annotations

import functools
import sys
import time

CMD = [f"cmd_{name}" for name in (
    "solve", "table", "integrate", "balance", "residual_scan", "green_check",
    "profile")]
QUADRATURE = [
    "gauss_legendre", "sphere_area", "surface_monomial_integral",
    "radial_weight_integral", "weighted_poly_integral", "sphere_nodes",
    "sphere_average", "ball_integral"]

# (module, attribute, span name)
TARGETS = (
    [("cli", "main", "cli.main")]
    + [("cli", cmd, "cli.cmd") for cmd in CMD]
    + [
        ("polynomials", "laplacian", "polynomials.laplacian"),
        ("polynomials", "iterated_laplacian", "polynomials.iterated_laplacian"),
        ("polynomials", "euler_operator", "polynomials.euler"),
        ("polynomials", "r2_multiply", "polynomials.r2_multiply"),
        ("polynomials", "Polynomial.to_json", "polynomials.json"),
        ("polynomials", "Polynomial.from_json", "polynomials.json"),
        ("reduction", "apply_L", "reduction.apply_L"),
        ("reduction", "solve_gamma", "reduction.solve"),
        ("reduction", "solve_general", "reduction.solve"),
        ("reduction", "coefficient_table", "reduction.table"),
        ("reduction", "residue_terms", "reduction.residue"),
        ("reduction", "radial_completion", "reduction.completion"),
        ("kernels", "eval_poly", "kernels.eval_poly"),
        ("kernels", "poly_arrays", "kernels.poly_arrays"),
        ("kernels", "bubble_values", "kernels.bubble"),
        ("kernels", "tail_values", "kernels.tail"),
        ("profiles", "linearized_residual", "profiles.residual"),
        ("profiles", "RefinedProfile.components", "profiles.components"),
        ("profiles", "GreensBall.green", "profiles.green"),
        ("profiles", "GreensBall.poisson_normalization", "profiles.green"),
        ("profiles", "GreensBall.check_bounds", "profiles.green"),
        ("moments", "moment_integral", "moments.moment_integral"),
        ("balance", "multi_point_balance", "balance.multi_point"),
        ("balance", "interference_check", "balance.interference"),
    ]
    + [("quadrature", name, "quadrature") for name in QUADRATURE]
)

PACKAGE = "bubble_correction"


def _terms(args):
    return len(args[0].terms)


def _solution_sizes(args, result):
    """Chain length h always; size of the solution when one was returned."""
    terms = {} if result is None else result.total().terms
    bits = max((c.denominator.bit_length() for c in terms.values()), default=0)
    return {"terms": len(terms), "den_bits": bits, "h": args[0].degree() // 2}


def _eval_sizes(args, result):
    points, _, coeffs = args
    m, n = points.shape
    work = m * len(coeffs) * n
    return {"work": work, "cube_bytes": 8 * work}


# span name -> function(args, result) -> attributes recorded on the span;
# result is None when the call raised
SIZES = {
    "reduction.apply_L": lambda args, result: {"terms": _terms(args)},
    "polynomials.euler": lambda args, result: {"terms": _terms(args)},
    "reduction.table": lambda args, result: {
        "cells": 0 if result is None else len(result.C)},
    "reduction.solve": _solution_sizes,
    "kernels.eval_poly": _eval_sizes,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, request, attrs]
        self.child_ns = []
        self.stack = []
        self.request = None
        self._bindings = []  # (owner, name, original)

    # ----------------------------------------------------------- recording

    def _wrap(self, name, fn):
        spans, child_ns, stack = self.spans, self.child_ns, self.stack
        sizes = SIZES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, clock(), None, parent, self.request, None])
            child_ns.append(0)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                end = clock()
                span = spans[index]
                span[2] = end
                if parent is not None:
                    child_ns[parent] += end - span[1]
                if sizes is not None:
                    span[5] = sizes(args, result)

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *classes, leaf = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            if classes:
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._bindings.append((owner, leaf, raw))
                setattr(owner, leaf, wrapped)
                continue
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        self._bindings.clear()

    # ------------------------------------------------------------ reporting

    def spans_json(self):
        return [
            {"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
             "request": s[4], "self_ns": s[2] - s[1] - self.child_ns[i],
             **({"attrs": s[5]} if s[5] else {})}
            for i, s in enumerate(self.spans)
        ]

    def layer_metrics(self):
        self_ms = {}
        calls = {}
        attrs = {}
        solve_ms = 0.0
        chain_laplacians = 0
        chain_h = 0
        solutions = []
        for i, (name, start, end, parent, _, extra) in enumerate(self.spans):
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - self.child_ns[i]) / 1e6
            calls[name] = calls.get(name, 0) + 1
            if extra:
                bucket = attrs.setdefault(name, {})
                for key, value in extra.items():
                    if key == "cube_bytes":
                        bucket[key] = max(bucket.get(key, 0), value)
                    else:
                        bucket[key] = bucket.get(key, 0) + value
            parent_name = None if parent is None else self.spans[parent][0]
            if name == "reduction.solve" and parent_name != "reduction.solve":
                solve_ms += (end - start) / 1e6
                solutions.append(extra)
                chain_h += extra["h"]
            if name == "polynomials.laplacian" and parent_name == "reduction.solve":
                chain_laplacians += 1

        def ms(name):
            return self_ms.get(name, 0.0)

        def count(name, key=None):
            if key is None:
                return calls.get(name, 0)
            return attrs.get(name, {}).get(key, 0)

        return {
            "reduction.apply_L_ms": (ms("reduction.apply_L"), "ms"),
            "reduction.apply_L_calls": (count("reduction.apply_L"), "count"),
            "reduction.apply_L_terms": (count("reduction.apply_L", "terms"), "count"),
            "polynomials.euler_ms": (ms("polynomials.euler"), "ms"),
            "polynomials.euler_terms": (count("polynomials.euler", "terms"), "count"),
            "reduction.solve_ms": (solve_ms, "ms"),
            "reduction.solve_self_ms": (ms("reduction.solve"), "ms"),
            "reduction.table_ms": (ms("reduction.table"), "ms"),
            "reduction.table_cells": (count("reduction.table", "cells"), "count"),
            "reduction.residue_ms": (ms("reduction.residue"), "ms"),
            "reduction.completion_ms": (ms("reduction.completion"), "ms"),
            "reduction.solution_terms": (sum(s["terms"] for s in solutions), "count"),
            "reduction.chain_waste_ratio": (
                chain_laplacians / chain_h if chain_h else 0.0, "ratio"),
            "polynomials.laplacian_ms": (ms("polynomials.laplacian"), "ms"),
            "polynomials.laplacian_calls": (count("polynomials.laplacian"), "count"),
            "polynomials.r2_multiply_ms": (ms("polynomials.r2_multiply"), "ms"),
            "polynomials.max_den_bits": (
                max((s["den_bits"] for s in solutions), default=0), "bits"),
            "polynomials.json_ms": (ms("polynomials.json"), "ms"),
            "kernels.eval_poly_ms": (ms("kernels.eval_poly"), "ms"),
            "kernels.eval_poly_work": (count("kernels.eval_poly", "work"), "count"),
            "kernels.eval_poly_cube_mb": (
                count("kernels.eval_poly", "cube_bytes") / 2**20, "MB"),
            "kernels.poly_arrays_ms": (ms("kernels.poly_arrays"), "ms"),
            "kernels.bubble_ms": (ms("kernels.bubble"), "ms"),
            "kernels.tail_ms": (ms("kernels.tail"), "ms"),
            "profiles.residual_self_ms": (ms("profiles.residual"), "ms"),
            "profiles.components_self_ms": (ms("profiles.components"), "ms"),
            "profiles.green_ms": (ms("profiles.green"), "ms"),
            "cli.cmd_self_ms": (ms("cli.cmd"), "ms"),
            "moments.moment_integral_ms": (ms("moments.moment_integral"), "ms"),
            "moments.moment_integral_calls": (count("moments.moment_integral"), "count"),
            "balance.multi_point_ms": (ms("balance.multi_point"), "ms"),
            "balance.interference_ms": (ms("balance.interference"), "ms"),
            "quadrature.ms": (ms("quadrature"), "ms"),
            "quadrature.calls": (count("quadrature"), "count"),
        }

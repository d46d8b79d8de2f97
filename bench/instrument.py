"""Spans around dpdelta's layers, installed from outside the package.

Callers inside dpdelta look functions up as module attributes (catalog.py
calls its own global `parametric_decompose`, oracle.py its own `solve`).
`Instrumentation` replaces every such attribute that holds a traced
function with a wrapper that opens and closes a span, and puts the
originals back on exit. Methods are wrapped on their classes. The source of
dpdelta is never edited. A traced name that dpdelta no longer defines is
skipped, and its metrics read 0.

`linalg.solve` gets one span name per calling module, so the sweep's and the
oracle's linear algebra are told apart. `Poly.__init__` is only counted: a
span per polynomial would cost more than the polynomial.
"""
from __future__ import annotations

import functools
import sys
from typing import Any, Callable

from tracer import Tracer, summarize

# (defining module, function, span name, one span name per calling module)
FUNCTIONS = (
    ("config", "validate", "config.validate", False),
    ("catalog", "load_case", "catalog.load_case", False),
    ("catalog", "verify_case", "catalog.verify_case", False),
    ("zariski", "parametric_decompose", "zariski.parametric_decompose", False),
    ("linalg", "solve", "linalg.solve", True),
    ("delta", "s_flag", "delta.s_flag", False),
    ("delta", "s_w_point", "delta.s_w_point", False),
    ("delta", "flag_report", "delta.flag_report", False),
    ("delta", "certify_minimum", "delta.certify_minimum", False),
    ("blowup", "blowup", "blowup.blowup", False),
    ("oracle", "negative_definite_subsets", "oracle.negative_definite_subsets", False),
    ("oracle", "brute_force_negative_part", "oracle.brute_force", False),
    ("oracle", "quadrature_check", "oracle.quadrature_check", False),
    ("oracle", "random_equivalence", "oracle.random_equivalence", False),
)

# (defining module, class, method, span name)
METHODS = (
    ("poly", "PiecewisePoly", "integrate", "poly.piecewise_integrate"),
    ("oracle", "SubsetTable", "__init__", "oracle.subset_table"),
    ("oracle", "SubsetTable", "negative_part", "oracle.lookup"),
)


def _decomposition_counts(tracer: Tracer, args: tuple, result: Any) -> None:
    chambers = len(result.chambers)
    tracer.count("zariski.chambers", chambers)
    tracer.count("zariski.support_size_sum", sum(len(ch.support) for ch in result.chambers))
    tracer.count("zariski.curve_chambers", len(result.config.curves) * chambers)


def _case_report_counts(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("catalog.rows", len(result.rows))
    tracer.count("catalog.rows_failed", sum(not row.passed for row in result.rows))


def _subset_counts(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("oracle.nd_subsets", len(result))
    if tracer.current == "oracle.subset_table":
        tracer.count("oracle.table_subsets", len(result))


def _table_counts(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("oracle.table_rows", len(args[0].rows))


def _equivalence_counts(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("oracle.mismatches", len(result.mismatches))
    tracer.count("oracle.ambiguous", result.ambiguous)


RESULT_COUNTS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "zariski.parametric_decompose": _decomposition_counts,
    "catalog.verify_case": _case_report_counts,
    "oracle.negative_definite_subsets": _subset_counts,
    "oracle.subset_table": _table_counts,
    "oracle.random_equivalence": _equivalence_counts,
}


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    on_result = RESULT_COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Context manager that wraps dpdelta's layer boundaries for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "dpdelta" or name.startswith("dpdelta."))
        }
        for home, attr, span, per_caller in FUNCTIONS:
            original = getattr(modules.get(f"dpdelta.{home}"), attr, None)
            if original is None:
                continue
            for mod_name, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is original:
                        caller = mod_name.rpartition(".")[2]
                        name = f"{span}.{caller}" if per_caller else span
                        self._replace(module, key, _spanned(self.tracer, name, original))
        for home, cls_name, method, span in METHODS:
            cls = getattr(modules.get(f"dpdelta.{home}"), cls_name, None)
            if cls is None:
                continue
            self._replace(cls, method, _spanned(self.tracer, span, getattr(cls, method)))
        poly = modules["dpdelta.poly"].Poly
        self._replace(poly, "__init__", _counted(self.tracer, "poly.poly_new", poly.__init__))

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# Per-layer metrics: (name, unit, source). Sources read the summary of spans:
# ("ms", span) total time, ("self_ms", span) time minus child spans,
# ("calls", span) span count, ("count", counter), ("ratio", num, den) counters.
PER_LAYER = (
    ("catalog.load_case_ms", "ms", ("ms", "catalog.load_case")),
    ("config.validate_ms", "ms", ("ms", "config.validate")),
    ("zariski.parametric_decompose_ms", "ms", ("ms", "zariski.parametric_decompose")),
    ("zariski.parametric_decompose_calls", "count", ("calls", "zariski.parametric_decompose")),
    ("zariski.chambers", "count", ("count", "zariski.chambers")),
    ("zariski.support_size_sum", "count", ("count", "zariski.support_size_sum")),
    ("zariski.curve_chambers", "count", ("count", "zariski.curve_chambers")),
    ("linalg.solve_ms.zariski", "ms", ("ms", "linalg.solve.zariski")),
    ("linalg.solve_ms.oracle", "ms", ("ms", "linalg.solve.oracle")),
    ("linalg.solve_calls.zariski", "count", ("calls", "linalg.solve.zariski")),
    ("linalg.solve_calls.oracle", "count", ("calls", "linalg.solve.oracle")),
    ("poly.poly_new", "count", ("count", "poly.poly_new")),
    ("poly.piecewise_integrate_ms", "ms", ("ms", "poly.piecewise_integrate")),
    ("delta.s_flag_ms", "ms", ("ms", "delta.s_flag")),
    ("delta.s_w_point_ms", "ms", ("ms", "delta.s_w_point")),
    ("delta.flag_report_ms", "ms", ("ms", "delta.flag_report")),
    ("delta.certify_minimum_ms", "ms", ("ms", "delta.certify_minimum")),
    ("blowup.blowup_ms", "ms", ("ms", "blowup.blowup")),
    ("catalog.verify_case_self_ms", "ms", ("self_ms", "catalog.verify_case")),
    ("catalog.rows", "count", ("count", "catalog.rows")),
    ("catalog.rows_failed", "count", ("count", "catalog.rows_failed")),
    ("oracle.negative_definite_subsets_ms", "ms", ("ms", "oracle.negative_definite_subsets")),
    ("oracle.nd_subsets", "count", ("count", "oracle.nd_subsets")),
    ("oracle.subset_table_ms", "ms", ("ms", "oracle.subset_table")),
    ("oracle.table_rows", "count", ("count", "oracle.table_rows")),
    ("oracle.table_accept_ratio", "ratio", ("ratio", "oracle.table_rows", "oracle.table_subsets")),
    ("oracle.lookup_ms", "ms", ("ms", "oracle.lookup")),
    ("oracle.lookups", "count", ("calls", "oracle.lookup")),
    ("oracle.brute_force_ms", "ms", ("ms", "oracle.brute_force")),
    ("oracle.brute_force_calls", "count", ("calls", "oracle.brute_force")),
    ("oracle.quadrature_check_ms", "ms", ("ms", "oracle.quadrature_check")),
    ("oracle.random_equivalence_self_ms", "ms", ("self_ms", "oracle.random_equivalence")),
    ("oracle.mismatches", "count", ("count", "oracle.mismatches")),
    ("oracle.ambiguous", "count", ("count", "oracle.ambiguous")),
)
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def layer_metrics(
    tracer: Tracer, units: int, scale: Callable[[int], float]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, averaged over `units` traced units of work.

    A span's times are multiplied by `scale` of its operation id, the factor
    that brings that operation to the reference machine speed.
    """
    summary = summarize(tracer.spans, scale)
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        calls, total_ns, self_ns = summary.get(source[1], (0, 0, 0))
        if kind == "ms":
            value = total_ns / 1e6 / units
        elif kind == "self_ms":
            value = self_ns / 1e6 / units
        elif kind == "calls":
            value = calls / units
        elif kind == "count":
            value = counts[source[1]] / units
        else:
            den = counts[source[2]]
            value = counts[source[1]] / den if den else 0.0
        out[name] = (value, unit)
    return out

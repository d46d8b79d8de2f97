"""Span bookkeeping, self-time arithmetic and the layer instrumentation."""
from __future__ import annotations

import json
from pathlib import Path

import dpdelta
import instrument
from tracer import NO_PARENT, Span, Tracer, self_times, summarize


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # A [0, 100] holds B [10, 40] and C [50, 70]; B holds D [15, 25].
    tracer = Tracer(clock=scripted_clock([0, 10, 15, 25, 40, 50, 70, 100]))
    tracer.open("A")
    tracer.open("B")
    tracer.open("D")
    tracer.close()
    tracer.close()
    tracer.open("C")
    tracer.close()
    tracer.close()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["A"].parent == NO_PARENT
    assert by_name["B"].parent == by_name["C"].parent == by_name["A"].id
    assert by_name["D"].parent == by_name["B"].id
    own = self_times(tracer.spans)
    assert {name: own[s.id] for name, s in by_name.items()} == {
        "A": 50, "B": 20, "C": 20, "D": 10,
    }


def test_summarize_adds_calls_totals_and_self_times():
    spans = [
        Span(0, NO_PARENT, 0, "outer", 0, 100),
        Span(1, 0, 0, "inner", 10, 30),
        Span(2, 0, 0, "inner", 40, 45),
        Span(3, NO_PARENT, 1, "outer", 200, 210),
    ]
    assert summarize(spans) == {"outer": (2, 110, 85), "inner": (2, 25, 25)}
    doubled = summarize(spans, scale=lambda op: 2.0 if op == 1 else 1.0)
    assert doubled == {"outer": (2, 120, 95), "inner": (2, 25, 25)}


def test_current_names_the_innermost_open_span():
    tracer = Tracer()
    assert tracer.current is None
    tracer.open("outer")
    tracer.open("inner")
    assert tracer.current == "inner"
    tracer.close()
    assert tracer.current == "outer"


def test_instrumentation_restores_every_attribute():
    originals = (
        dpdelta.catalog.parametric_decompose,
        dpdelta.zariski.solve,
        dpdelta.oracle.solve,
        dpdelta.poly.Poly.__init__,
        dpdelta.oracle.SubsetTable.negative_part,
    )
    with instrument.Instrumentation(Tracer()):
        assert dpdelta.catalog.parametric_decompose is not originals[0]
        assert dpdelta.parametric_decompose is not originals[0]
        assert dpdelta.zariski.solve is not originals[1]
    restored = (
        dpdelta.catalog.parametric_decompose,
        dpdelta.zariski.solve,
        dpdelta.oracle.solve,
        dpdelta.poly.Poly.__init__,
        dpdelta.oracle.SubsetTable.negative_part,
    )
    assert all(a is b for a, b in zip(originals, restored))
    assert dpdelta.parametric_decompose is originals[0]


def test_layer_counts_from_a_traced_case_and_oracle_run():
    tracer = Tracer()
    with instrument.Instrumentation(tracer):
        record = dpdelta.load_case("A1-nodal")
        report = dpdelta.verify_case(record)
        cfg = record.config("base")
        eq = dpdelta.random_equivalence(cfg, "E", trials=5, seed=3)
    metrics = instrument.layer_metrics(tracer, units=1, scale=lambda op: 1.0)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["catalog.rows"] == len(report.rows)
    assert value["catalog.rows_failed"] == 0
    assert value["zariski.parametric_decompose_calls"] >= 2
    assert value["linalg.solve_calls.zariski"] > 0
    assert value["linalg.solve_calls.oracle"] > 0  # the brute-force reference
    assert value["oracle.lookups"] == eq.trials
    assert value["oracle.brute_force_calls"] == 1
    assert value["oracle.mismatches"] == value["oracle.ambiguous"] == 0
    assert 0 < value["oracle.table_accept_ratio"] <= 1
    assert value["poly.poly_new"] > 0
    calls, total, own = summarize(tracer.spans)["catalog.verify_case"]
    assert calls == 1 and 0 <= own < total


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(instrument.__file__).parent.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    code = [(name, unit) for name, unit, _ in instrument.PER_LAYER]
    assert declared == code + [instrument.OVERHEAD_METRIC]

"""The runner's statistics, the speed meter and the catalog row count."""
from __future__ import annotations

import signal

import pytest

import dpdelta
import run
import speed
import workloads


def test_percentile_interpolates():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(values, 100) == 5.0
    assert run.percentile(values, 90) == pytest.approx(4.6)


@pytest.mark.parametrize(
    "samples, expected", [(209, 95), (200, 95), (190, 90), (114, 90), (95, 75), (40, 75), (20, 50)]
)
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    assert run.tail_percentile(samples) == expected


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(run.SetupError):
        run.tail_percentile(19)


def test_speed_meter_returns_result_and_disarms_its_timer():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter()
    result, raw, factor = meter.time(lambda: sum(i * i for i in range(200_000)))
    assert result == sum(i * i for i in range(200_000))
    assert 0 < raw and 0 < factor
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(meter.probes) >= 1


def test_stored_fact_count_matches_verify_rows():
    root = dpdelta.catalog_root()
    for name in dpdelta.case_names():
        report = dpdelta.verify_case(dpdelta.load_case(name))
        assert len(report.rows) == workloads._stored_facts(root / name), name


def test_lattice_references_come_from_the_catalog():
    wl = workloads.LatticeSweep(seed=0)
    assert {key[0] for key in wl.references} == {1, 2, 3, 4}
    spec = next(s for s in dpdelta.load_case("A3").flag_specs if s.flag == "E1")
    assert wl.references[(3, "E1")] == spec.s

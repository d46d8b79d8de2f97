"""Composite delta table, singularity parsing, threefold multipliers."""
from __future__ import annotations

import json
import re
import shutil
from fractions import Fraction

import pytest

from dpdelta import (
    MAIN_THEOREM_ROWS,
    MissingFlag,
    SchemaError,
    SingularityEntry,
    base_delta,
    catalog_root,
    kstability_verdict,
    load_case,
    main_theorem_delta,
    multiplier_family_1_11,
    multiplier_family_2_1,
    parse_singularities,
    smooth_delta,
    threefold_delta_bound,
    verify_case,
    verify_main_theorem_table,
)
from dpdelta.applications import (
    SMOOTH_DELTA_CUSPIDAL,
    SMOOTH_DELTA_GENERAL,
    row_assignments,
)

F = Fraction

# catalog case -> the entry whose certified minimum it records
CASE_ENTRIES = {
    "A1-nodal": SingularityEntry("A1", cuspidal=False),
    "A1-cuspidal": SingularityEntry("A1", cuspidal=True),
    "A2-nodal": SingularityEntry("A2", cuspidal=False),
    "A2-cuspidal": SingularityEntry("A2", cuspidal=True),
    "A3": SingularityEntry("A3"),
    "A4": SingularityEntry("A4"),
    "A5": SingularityEntry("A5"),
    "A6": SingularityEntry("A6"),
    "A7-irreducible": SingularityEntry("A7", reducible_r=False),
    "A7-reducible": SingularityEntry("A7", reducible_r=True),
    "A8": SingularityEntry("A8"),
    "D4": SingularityEntry("D4"),
    "D5": SingularityEntry("D5"),
    "D6": SingularityEntry("D6"),
    "D7": SingularityEntry("D7"),
    "D8": SingularityEntry("D8"),
    "E6": SingularityEntry("E6"),
    "E7": SingularityEntry("E7"),
    "E8": SingularityEntry("E8"),
}


class TestBaseDelta:
    def test_flagged_values(self):
        assert base_delta(SingularityEntry("A1", cuspidal=False)) == 2
        assert base_delta(SingularityEntry("A1", cuspidal=True)) == F(9, 5)
        assert base_delta(SingularityEntry("A2", cuspidal=False)) == F(12, 7)
        assert base_delta(SingularityEntry("A2", cuspidal=True)) == F(3, 2)
        assert base_delta(SingularityEntry("A7", reducible_r=False)) == F(18, 17)
        assert base_delta(SingularityEntry("A7", reducible_r=True)) == 1

    def test_matches_certified_catalog_minima(self, records):
        for case, entry in CASE_ENTRIES.items():
            assert base_delta(entry) == records[case].delta, case

    def test_unspecified_flag(self):
        with pytest.raises(
            MissingFlag, match="A1 needs an extra flag to pin down its delta value"
        ):
            base_delta(SingularityEntry("A1"))
        with pytest.raises(MissingFlag):
            base_delta(SingularityEntry("A7"))

    def test_flag_on_wrong_type(self):
        with pytest.raises(SchemaError, match="A1 takes no branch-reducibility flag"):
            base_delta(SingularityEntry("A1", reducible_r=True))
        with pytest.raises(SchemaError, match="A7 takes no nodal/cuspidal flag"):
            base_delta(SingularityEntry("A7", cuspidal=False))
        with pytest.raises(SchemaError, match="A3 takes no extra flag"):
            base_delta(SingularityEntry("A3", cuspidal=True))

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown singularity type 'Z9'"):
            base_delta(SingularityEntry("Z9"))


@pytest.fixture
def catalog_copy(tmp_path, monkeypatch):
    """A private copy of the catalog that DPDELTA_CATALOG points at."""
    root = tmp_path / "catalog"
    shutil.copytree(catalog_root(), root)
    monkeypatch.setenv("DPDELTA_CATALOG", str(root))
    return root


class TestCatalogSource:
    def test_edited_delta_feeds_the_table_and_fails_verify(self, catalog_copy):
        path = catalog_copy / "A4" / "expected.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["delta"] = "5/4"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert base_delta(SingularityEntry("A4")) == F(5, 4)
        report = verify_case(load_case("A4"))
        assert [row.label for row in report.rows if not row.passed] == ["delta=5/4"]

    def test_removed_case_is_an_unknown_type(self, catalog_copy):
        shutil.rmtree(catalog_copy / "D7")
        with pytest.raises(SchemaError, match="unknown singularity type 'D7'"):
            base_delta(SingularityEntry("D7"))

    @pytest.mark.parametrize(
        "source, copy, message",
        [
            ("A1-cuspidal", None, "catalog has A1 for only one nodal/cuspidal value"),
            ("A3", "A3-weird", "catalog case 'A3-weird' is not <type> or <type>-<suffix>"),
            ("A3", "A3-nodal", "catalog case A3-nodal clashes with another A3 case"),
        ],
    )
    def test_malformed_catalog_is_refused(self, catalog_copy, source, copy, message):
        if copy is None:
            shutil.rmtree(catalog_copy / source)
        else:
            shutil.copytree(catalog_copy / source, catalog_copy / copy)
        with pytest.raises(SchemaError, match=re.escape(message)):
            base_delta(SingularityEntry("A4"))


class TestCompositeDelta:
    def test_minimum_over_entries(self):
        entries = [
            SingularityEntry("A2", cuspidal=True),
            SingularityEntry("A1", cuspidal=False),
        ]
        assert main_theorem_delta(entries) == F(3, 2)

    def test_unflagged_entry_that_cannot_matter(self):
        # both completions of the A1 flag give min 3/2, so no flag is needed
        entries = [SingularityEntry("A1"), SingularityEntry("A3")]
        assert main_theorem_delta(entries) == F(3, 2)

    def test_unflagged_entry_that_does_matter(self):
        with pytest.raises(
            MissingFlag,
            match="the composite delta depends on unspecified flags: 2, 9/5",
        ):
            main_theorem_delta([SingularityEntry("A1")])

    def test_branch_flag_ambiguity(self):
        with pytest.raises(MissingFlag, match="1, 18/17"):
            main_theorem_delta([SingularityEntry("A7")])

    def test_empty_list(self):
        with pytest.raises(SchemaError, match="at least one singularity is required"):
            main_theorem_delta([])


class TestParser:
    def test_multiplicity_and_suffix(self):
        entries = parse_singularities("2A1+A2:cusp")
        assert entries == (
            SingularityEntry("A1"),
            SingularityEntry("A1"),
            SingularityEntry("A2", cuspidal=True),
        )

    def test_suffix_table(self):
        assert parse_singularities("A1:nodal")[0].cuspidal is False
        assert parse_singularities("A2:cuspidal")[0].cuspidal is True
        for alias in ("red", "reducible"):
            assert parse_singularities(f"A7:{alias}")[0].reducible_r is True
        for alias in ("irr", "irred", "irreducible"):
            assert parse_singularities(f"A7:{alias}")[0].reducible_r is False

    def test_whitespace_tolerated(self):
        entries = parse_singularities(" A5 + A1 ")
        assert [e.type for e in entries] == ["A5", "A1"]

    def test_parse_errors(self):
        with pytest.raises(SchemaError, match="cannot parse singularity 'a7'"):
            parse_singularities("a7")
        with pytest.raises(SchemaError, match="cannot parse singularity ''"):
            parse_singularities("")
        with pytest.raises(SchemaError, match="bad multiplicity in '0A1'"):
            parse_singularities("0A1")
        with pytest.raises(SchemaError, match="unknown suffix 'weird' in 'A1:weird'"):
            parse_singularities("A1:weird")

    def test_flags_validated_eagerly(self):
        with pytest.raises(SchemaError, match="A3 takes no extra flag"):
            parse_singularities("A3:cusp")


class TestTable:
    def test_shape(self):
        assert len(MAIN_THEOREM_ROWS) == 16
        first = MAIN_THEOREM_ROWS[0]
        assert first.combos == (
            "A1", "2A1", "3A1", "4A1", "5A1", "6A1", "7A1", "8A1",
        )
        assert (first.condition, first.delta) == ("all nodal", F(2))
        assert MAIN_THEOREM_ROWS[13].combos == ("D8", "E6", "E6+A1", "E6+A2")
        assert MAIN_THEOREM_ROWS[13].delta == F(3, 5)
        assert MAIN_THEOREM_ROWS[15].combos == ("E8",)

    def test_every_row_verifies(self):
        assert verify_main_theorem_table() == ()

    def test_rows_recomputed_directly(self):
        for row in MAIN_THEOREM_ROWS:
            for combo in row.combos:
                for entries in row_assignments(row, combo):
                    assert main_theorem_delta(entries) == row.delta, (
                        combo,
                        row.condition,
                    )

    def test_assignment_counts(self):
        all_nodal, some_cusp = MAIN_THEOREM_ROWS[0], MAIN_THEOREM_ROWS[1]
        assert len(list(row_assignments(all_nodal, "2A1"))) == 1
        # any of FT, TF, TT on the two A1 points
        assert len(list(row_assignments(some_cusp, "2A1"))) == 3

    def test_unconditioned_row_leaves_entries_unflagged(self):
        row = MAIN_THEOREM_ROWS[4]
        (entries,) = row_assignments(row, "A4+A1")
        assert entries == (SingularityEntry("A4"), SingularityEntry("A1"))

    def test_branch_condition_sets_flag(self):
        row = MAIN_THEOREM_ROWS[8]
        (entries,) = row_assignments(row, "A7+A1")
        assert entries[0] == SingularityEntry("A7", reducible_r=True)
        assert entries[1] == SingularityEntry("A1")


class TestSmoothAndThreefolds:
    def test_smooth_values(self):
        assert smooth_delta(True) == SMOOTH_DELTA_CUSPIDAL == F(15, 7)
        assert smooth_delta(False) == SMOOTH_DELTA_GENERAL == F(12, 5)

    def test_multipliers(self):
        assert multiplier_family_1_11() == F(3, 2)
        assert multiplier_family_2_1() == F(15, 16)

    def test_delta_bound(self):
        assert threefold_delta_bound(F(3, 2), F(2)) == F(4, 3)
        assert threefold_delta_bound(F(3, 2), F(18, 17)) == F(12, 17)
        assert threefold_delta_bound(F(15, 16), F(15, 7)) == F(16, 7)

    def test_verdicts(self):
        assert kstability_verdict(F(18, 17)) == "stable"
        assert kstability_verdict(F(1)) == "semistable"
        assert kstability_verdict(F(12, 17)) == "unstable"
        with pytest.raises(ValueError, match="delta must be positive"):
            kstability_verdict(F(0))

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
    catalog_root,
    kstability_verdict,
    load_case,
    main_theorem_delta,
    multiplier_family_1_11,
    multiplier_family_2_1,
    parse_singularities,
    smooth_delta,
    verify_case,
    verify_main_theorem_table,
)
from dpdelta.applications import SMOOTH_DELTA_CUSPIDAL, SMOOTH_DELTA_GENERAL, _assignments

F = Fraction

# catalog case -> the entry whose certified minimum it records
CASE_ENTRIES = {
    "A1-nodal": SingularityEntry("A1", "nodal"),
    "A1-cuspidal": SingularityEntry("A1", "cuspidal"),
    "A2-nodal": SingularityEntry("A2", "nodal"),
    "A2-cuspidal": SingularityEntry("A2", "cuspidal"),
    "A3": SingularityEntry("A3"),
    "A4": SingularityEntry("A4"),
    "A5": SingularityEntry("A5"),
    "A6": SingularityEntry("A6"),
    "A7-irreducible": SingularityEntry("A7", "irreducible"),
    "A7-reducible": SingularityEntry("A7", "reducible"),
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


def single(t: str, variant: str | None = None) -> Fraction:
    """Delta of a surface whose only singular point is of type `t`."""
    return main_theorem_delta([SingularityEntry(t, variant)])


class TestBaseDelta:
    """The delta of a surface with one singular point."""

    def test_flagged_values(self):
        assert single("A1", "nodal") == 2
        assert single("A1", "cuspidal") == F(9, 5)
        assert single("A2", "nodal") == F(12, 7)
        assert single("A2", "cuspidal") == F(3, 2)
        assert single("A7", "irreducible") == F(18, 17)
        assert single("A7", "reducible") == 1

    def test_matches_certified_catalog_minima(self, records):
        for case, entry in CASE_ENTRIES.items():
            assert main_theorem_delta([entry]) == records[case].delta, case

    def test_unspecified_flag(self):
        with pytest.raises(
            MissingFlag, match="the composite delta depends on unspecified flags: 2, 9/5"
        ):
            single("A1")
        with pytest.raises(MissingFlag, match="1, 18/17"):
            single("A7")

    def test_flag_on_wrong_type(self):
        with pytest.raises(SchemaError, match="A1 has no reducible variant"):
            single("A1", "reducible")
        with pytest.raises(SchemaError, match="A7 has no nodal variant"):
            single("A7", "nodal")
        with pytest.raises(SchemaError, match="A3 has no cuspidal variant"):
            single("A3", "cuspidal")
        # aliases belong to the parser, not to the entry
        with pytest.raises(SchemaError, match="A1 has no cusp variant"):
            single("A1", "cusp")

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown singularity type 'Z9'"):
            single("Z9")
        with pytest.raises(SchemaError, match="unknown singularity type 'A9'"):
            parse_singularities("A9")


@pytest.fixture
def catalog_copy(tmp_path, monkeypatch):
    """A private copy of the catalog that DPDELTA_CATALOG points at."""
    root = tmp_path / "catalog"
    shutil.copytree(catalog_root(), root)
    monkeypatch.setenv("DPDELTA_CATALOG", str(root))
    return root


def copy_case(root, source: str, name: str, delta: str | None = None) -> None:
    """Store case `source` again as case `name`, optionally with another delta."""
    shutil.copytree(root / source, root / name)
    path = root / name / "expected.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["case"] = name
    if delta is not None:
        data["delta"] = delta
    path.write_text(json.dumps(data), encoding="utf-8")


class TestCatalogSource:
    def test_edited_delta_feeds_the_table_and_fails_verify(self, catalog_copy):
        path = catalog_copy / "A4" / "expected.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["delta"] = "5/4"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert single("A4") == F(5, 4)
        report = verify_case(load_case("A4"))
        assert [row.label for row in report.rows if not row.passed] == ["delta=5/4"]

    def test_edit_between_two_calls_is_seen(self, catalog_copy, monkeypatch):
        # a long-lived process sees the catalog as it is at each call
        assert single("A4") == F(4, 3)
        assert verify_main_theorem_table() == ()
        path = catalog_copy / "A4" / "expected.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["delta"] = "5/4"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert single("A4") == F(5, 4)
        failures = [
            f"{combo}: got 5/4, table says 4/3"
            for combo in ("A4", "A4+A1", "A4+2A1", "A4+A2", "A4+A2+A1", "A4+A3", "2A4")
        ]
        assert verify_main_theorem_table() == tuple(failures)
        monkeypatch.delenv("DPDELTA_CATALOG")
        assert verify_main_theorem_table(catalog_copy) == tuple(failures)
        assert verify_main_theorem_table() == ()

    def test_removed_case_is_an_unknown_type(self, catalog_copy):
        shutil.rmtree(catalog_copy / "D7")
        with pytest.raises(SchemaError, match="unknown singularity type 'D7'"):
            single("D7")

    def test_new_variant_pair_needs_no_code_change(self, catalog_copy):
        copy_case(catalog_copy, "A5", "A5-nodal")
        copy_case(catalog_copy, "A5", "A5-cuspidal", delta="1")
        shutil.rmtree(catalog_copy / "A5")
        with pytest.raises(MissingFlag, match="unspecified flags: 1, 6/5"):
            single("A5")
        assert single("A5", "cuspidal") == 1
        assert parse_singularities("A5:cusp") == (SingularityEntry("A5", "cuspidal"),)
        assert main_theorem_delta(parse_singularities("A5:nodal+A1:nodal")) == F(6, 5)

    def test_unpaired_variant_is_refused(self, catalog_copy):
        copy_case(catalog_copy, "A5", "A5-nodal")
        shutil.rmtree(catalog_copy / "A5")
        with pytest.raises(SchemaError, match="catalog has A5-nodal but no A5-cuspidal"):
            single("A4")

    @pytest.mark.parametrize(
        "source, copy, message",
        [
            ("A1-cuspidal", None, "catalog has A1-nodal but no A1-cuspidal"),
            ("A3", "A3-weird", "catalog case 'A3-weird' is not <type> or <type>-<variant>"),
            ("A3", "A3-nodal", "catalog case A3-nodal clashes with another A3 case"),
            ("A1-cuspidal", "A1-cusp", "catalog case 'A1-cusp' is not <type> or <type>-<variant>"),
            (
                "A7-reducible",
                "A1-reducible",
                "catalog case A1-reducible clashes with another A1 case",
            ),
        ],
    )
    def test_malformed_catalog_is_refused(self, catalog_copy, source, copy, message):
        if copy is None:
            shutil.rmtree(catalog_copy / source)
        else:
            shutil.copytree(catalog_copy / source, catalog_copy / copy)
        with pytest.raises(SchemaError, match=re.escape(message)):
            single("A4")


class TestCompositeDelta:
    def test_minimum_over_entries(self):
        entries = [
            SingularityEntry("A2", "cuspidal"),
            SingularityEntry("A1", "nodal"),
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
            SingularityEntry("A2", "cuspidal"),
        )

    def test_suffix_table(self):
        assert parse_singularities("A1:nodal")[0].variant == "nodal"
        for alias in ("cusp", "cuspidal"):
            assert parse_singularities(f"A2:{alias}")[0].variant == "cuspidal"
        for alias in ("red", "reducible"):
            assert parse_singularities(f"A7:{alias}")[0].variant == "reducible"
        for alias in ("irr", "irred", "irreducible"):
            assert parse_singularities(f"A7:{alias}")[0].variant == "irreducible"

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
        with pytest.raises(SchemaError, match="A3 has no cuspidal variant"):
            parse_singularities("A3:cusp")
        with pytest.raises(SchemaError, match="A7 has no nodal variant"):
            parse_singularities("A7:nodal")


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
                for entries in _assignments(row, parse_singularities(combo)):
                    assert main_theorem_delta(entries) == row.delta, (
                        combo,
                        row.condition,
                    )

    def test_assignment_counts(self):
        all_nodal, some_cusp = MAIN_THEOREM_ROWS[0], MAIN_THEOREM_ROWS[1]
        assert len(list(_assignments(all_nodal, parse_singularities("2A1")))) == 1
        # nodal+cuspidal, cuspidal+nodal or cuspidal+cuspidal on the two A1 points
        assert len(list(_assignments(some_cusp, parse_singularities("2A1")))) == 3
        # every conditioned row: "all" fixes each of the k points of the type,
        # "some" picks any nonempty subset of them, 2^k - 1 choices
        conditions = {
            "all nodal": ("A1", "nodal"),
            "some cuspidal": ("A1", "cuspidal"),
            "all A2 nodal": ("A2", "nodal"),
            "some A2 cuspidal": ("A2", "cuspidal"),
            "R irreducible": ("A7", "irreducible"),
            "R reducible": ("A7", "reducible"),
        }
        for row in MAIN_THEOREM_ROWS:
            if row.condition is None:
                continue
            target, variant = conditions.pop(row.condition)
            some = row.condition.startswith("some")
            for combo in row.combos:
                parsed = parse_singularities(combo)
                k = sum(e.type == target for e in parsed)
                assignments = list(_assignments(row, parsed))
                assert len(assignments) == (2**k - 1 if some else 1), combo
                assert len(set(assignments)) == len(assignments), combo
                for entries in assignments:
                    chosen = [e.variant for e in entries if e.type == target]
                    assert len(chosen) == k
                    assert variant in chosen if some else set(chosen) == {variant}
                    assert all(e.variant is None for e in entries if e.type != target)
        assert conditions == {}

    def test_unconditioned_row_leaves_entries_unflagged(self):
        row = MAIN_THEOREM_ROWS[4]
        (entries,) = _assignments(row, parse_singularities("A4+A1"))
        assert entries == (SingularityEntry("A4"), SingularityEntry("A1"))

    def test_branch_condition_sets_flag(self):
        row = MAIN_THEOREM_ROWS[8]
        (entries,) = _assignments(row, parse_singularities("A7+A1"))
        assert entries[0] == SingularityEntry("A7", "reducible")
        assert entries[1] == SingularityEntry("A1")


class TestSmoothAndThreefolds:
    def test_smooth_values(self):
        assert smooth_delta(True) == SMOOTH_DELTA_CUSPIDAL == F(15, 7)
        assert smooth_delta(False) == SMOOTH_DELTA_GENERAL == F(12, 5)

    def test_multipliers(self):
        assert multiplier_family_1_11() == F(3, 2)
        assert multiplier_family_2_1() == F(15, 16)

    def test_verdicts(self):
        assert kstability_verdict(F(18, 17)) == "stable"
        assert kstability_verdict(F(1)) == "semistable"
        assert kstability_verdict(F(12, 17)) == "unstable"
        with pytest.raises(ValueError, match="delta must be positive"):
            kstability_verdict(F(0))

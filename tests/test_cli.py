"""End-to-end runs of the command-line interface, in process."""
from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from dpdelta import catalog_root, load as load_config
from dpdelta.catalog import case_names
from dpdelta.cli import main
from dpdelta.zariski import decomposition_from_json, parametric_decompose

DECOMPOSE_TEXT = """\
A1-nodal: anti_k - v*E, tau = 1
  [0, 1/2]  N = {empty}
      P^2 = 1 - 2*v^2, P.E = 2*v
  [1/2, 1]  N = {C: -1 + 2*v}
      P^2 = 2 - 4*v + 2*v^2, P.E = 2 - 2*v
"""


DATA = Path(__file__).parent / "data"


class TestGolden:
    """Whole stdout of the catalog commands, byte for byte, against the
    files under tests/data; regenerate them only when a change means to
    alter the output."""

    def test_verify_stdout(self, capsys):
        assert main(["verify"]) == 0
        golden = (DATA / "verify_stdout.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_table_stdout(self, capsys):
        assert main(["table"]) == 0
        golden = (DATA / "table_stdout.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_decompose_text_of_every_designated_flag(self, capsys, records):
        # sha256 over the `decompose` text of every catalog flag, in case
        # and flag-row order
        digest = hashlib.sha256()
        flags = 0
        for name in sorted(records):
            for spec in records[name].flag_specs:
                argv = ["decompose", "--case", name, "--variant", spec.config_id]
                assert main(argv + ["--flag", spec.flag]) == 0
                digest.update(capsys.readouterr().out.encode())
                flags += 1
        assert flags == 95
        golden = (DATA / "decompose_text.sha256").read_text()
        assert digest.hexdigest() == golden.strip()


class TestDecompose:
    def test_text_output(self, capsys):
        assert main(["decompose", "--case", "A1-nodal", "--flag", "E"]) == 0
        assert capsys.readouterr().out == DECOMPOSE_TEXT

    def test_json_output_round_trips(self, capsys, a1_nodal, same_decomposition):
        assert main(["decompose", "--case", "A1-nodal", "--flag", "E", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        back = decomposition_from_json(a1_nodal, data)
        assert same_decomposition(back, parametric_decompose(a1_nodal, "E"))

    def test_variant_selects_configuration(self, capsys):
        rc = main(
            ["decompose", "--case", "A2-nodal", "--variant", "blowup", "--flag", "EP"]
        )
        assert rc == 0
        head = capsys.readouterr().out.splitlines()[0]
        # the stored pullback coefficient stretches the domain to tau = 2
        assert head == "A2-nodal-blowup: anti_k - v*EP, tau = 2"

    def test_explicit_config_file(self, capsys):
        path = catalog_root() / "A1-nodal" / "config_base.json"
        assert main(["decompose", "--config", str(path), "--flag", "E"]) == 0
        assert capsys.readouterr().out == DECOMPOSE_TEXT

    def test_both_sources_rejected(self, capsys):
        rc = main(
            ["decompose", "--config", "x.json", "--case", "A1-nodal", "--flag", "E"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: give either --config or --case, not both\n"

    def test_source_required(self, capsys):
        assert main(["decompose", "--flag", "E"]) == 2
        assert (
            capsys.readouterr().err
            == "error: one of --config or --case is required\n"
        )

    def test_missing_config_file(self, capsys):
        rc = main(["decompose", "--config", "/nonexistent.json", "--flag", "E"])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["decompose", "--config", str(path), "--flag", "E"]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte 0)\n"


class TestScalars:
    def test_s(self, capsys):
        assert main(["s", "--case", "A1-nodal", "--flag", "E"]) == 0
        out = capsys.readouterr().out
        assert out == "S(E) = 1/2 on A1-nodal; A = 1, A/S = 2\n"

    def test_s_orbifold_discrepancy(self, capsys):
        assert main(["s", "--case", "A1-cuspidal", "--flag", "Ebar"]) == 0
        out = capsys.readouterr().out
        assert out == "S(Ebar) = 5/3 on A1-cuspidal; A = 3, A/S = 9/5\n"

    def test_sw(self, capsys):
        assert main(["sw", "--case", "A1-nodal", "--flag", "E", "--point", "node"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "S(W;node) = 1/2 on flag E of A1-nodal; A_O = 1, ratio = 2\n"
        )

    def test_sw_nontrivial_different(self, capsys):
        assert main(["sw", "--case", "A1-cuspidal", "--flag", "Ebar", "--point", "p1"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "S(W;p1) = 1/12 on flag Ebar of A1-cuspidal; A_O = 1/2, ratio = 6\n"
        )


    def test_sw_point_off_the_flag(self, capsys):
        assert main(["sw", "--case", "A3", "--flag", "E2", "--point", "at_c_e1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: point at_c_e1 of config A3 lies on E1, not on flag E2\n"
        )


class TestDeltaCase:
    def test_certified(self, capsys):
        assert main(["delta-case", "--case", "A8"]) == 0
        assert capsys.readouterr().out == "delta(A8) = 1\n"

    def test_refused_certification(self, capsys, tmp_path, monkeypatch):
        # p1's different raised to 9/10 puts its ratio at 6/5, below A/S = 9/5;
        # p2's lowered to 7/20 keeps the sum 5/4 that log adjunction on Ebar asks
        target = tmp_path / "A1-cuspidal"
        shutil.copytree(catalog_root() / "A1-cuspidal", target)
        cfg_path = target / "config_base.json"
        data = json.loads(cfg_path.read_text(encoding="utf-8"))
        differents = {"p1": "9/10", "p2": "7/20"}
        for point in data["points"]:
            point["different"] = differents.get(point["id"], point["different"])
        cfg_path.write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))

        assert main(["delta-case", "--case", "A1-cuspidal"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "not certified: no flag with A/S = 9/5 has matching point bounds\n"
        )


class TestVerify:
    def test_single_case(self, capsys):
        assert main(["verify", "--case", "A1-nodal"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("A1-nodal: ")
        assert lines[-1] == "1 case, all PASS"

    def test_all_cases(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20
        assert [line.split(": ")[0] for line in lines[:-1]] == list(case_names())
        assert lines[-1] == "19 cases, all PASS"

    def test_default_is_all(self, capsys):
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "19 cases, all PASS"

    def test_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "A1-nodal"
        shutil.copytree(catalog_root() / "A1-nodal", target)
        expected = target / "expected.json"
        data = json.loads(expected.read_text(encoding="utf-8"))
        data["delta"] = "3"
        expected.write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))

        assert main(["verify", "--case", "A1-nodal"]) == 1
        out = capsys.readouterr().out
        assert "delta=3 FAIL (expected 3, got 2)" in out
        assert out.splitlines()[-1] == "1 of 1 cases FAILED"


    def test_envelope_domain_mismatch_fails_without_a_traceback(
        self, capsys, tmp_path, monkeypatch
    ):
        target = tmp_path / "A2-nodal"
        shutil.copytree(catalog_root() / "A2-nodal", target)
        expected = target / "expected.json"
        data = json.loads(expected.read_text(encoding="utf-8"))
        data["class_bounds"][0]["envelope"]["breakpoints"][-1] = "3/2"
        expected.write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))

        assert main(["verify", "--case", "A2-nodal"]) == 1
        out = capsys.readouterr().out
        mismatch = "envelope domain [0, 3/2] is not [0, 1]"
        assert f"class_bound(E1)=14/27 FAIL (expected 14/27, got {mismatch})" in out
        for pid in ("at_c", "generic"):
            assert (
                f"class_bound(E1) covers {pid} FAIL "
                f"(expected envelope dominates local h, got {mismatch})"
            ) in out
        assert out.splitlines()[-1] == "1 of 1 cases FAILED"


    def test_malformed_expected_json_is_a_schema_error(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "A2-nodal"
        shutil.copytree(catalog_root() / "A2-nodal", target)
        expected = target / "expected.json"
        data = json.loads(expected.read_text(encoding="utf-8"))
        del data["class_bounds"][0]["envelope"]["pieces"]
        expected.write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))

        assert main(["verify", "--case", "A2-nodal"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        where = "class_bounds[0].envelope.pieces"
        assert captured.err == f"error: {expected}: {where} is missing\n"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[]", " must be an object, got []"),
            ("{\n", ":2: invalid JSON (Expecting property name enclosed in double quotes)"),
        ],
    )
    def test_expected_json_that_is_no_case_names_the_file(
        self, text, reason, capsys, tmp_path, monkeypatch
    ):
        target = tmp_path / "A2-nodal"
        shutil.copytree(catalog_root() / "A2-nodal", target)
        expected = target / "expected.json"
        expected.write_text(text, encoding="utf-8")
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))

        assert main(["verify", "--case", "A2-nodal"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected}{reason}\n"


    def test_expected_json_that_is_not_utf8(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "A2-nodal"
        shutil.copytree(catalog_root() / "A2-nodal", target)
        expected = target / "expected.json"
        expected.write_bytes(b"\xff\xfe{")
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))

        assert main(["verify", "--case", "A2-nodal"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected}: not UTF-8 text (byte 0)\n"


class TestTable:
    def test_full_table(self, capsys):
        assert main(["table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert lines[0] == (
            "A1, 2A1, 3A1, 4A1, 5A1, 6A1, 7A1, 8A1  (all nodal): 2"
        )
        assert lines[-1] == "E8: 3/11"

    def test_table_contradicted_by_the_catalog(self, capsys, tmp_path, monkeypatch):
        root = tmp_path / "catalog"
        shutil.copytree(catalog_root(), root)
        path = root / "A4" / "expected.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["delta"] = "5/4"
        path.write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.setenv("DPDELTA_CATALOG", str(root))

        assert main(["table"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"table row contradicts the catalog: {combo}: got 5/4, table says 4/3"
            for combo in ("A4", "A4+A1", "A4+2A1", "A4+A2", "A4+A2+A1", "A4+A3", "2A4")
        ]

    def test_singularity_query(self, capsys):
        assert main(["table", "--singularities", "A7:red+A1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_underdetermined_query(self, capsys):
        assert main(["table", "--singularities", "A1"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "undetermined: the composite delta depends on unspecified flags: "
            "2, 9/5\n"
        )

    def test_unparsable_query(self, capsys):
        assert main(["table", "--singularities", "garbage"]) == 2
        assert (
            capsys.readouterr().err
            == "error: cannot parse singularity 'garbage'\n"
        )


class TestBlowup:
    def test_writes_new_configuration(self, capsys, tmp_path):
        src = tmp_path / "src.json"
        shutil.copyfile(catalog_root() / "A2-nodal" / "config_base.json", src)
        out = tmp_path / "blown.json"
        rc = main(
            [
                "blowup",
                "--config", str(src),
                "--point", "corner",
                "--out", str(out),
                "--ep", "EP2",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            f"blew up A2-nodal at corner: wrote A2-nodal^corner to {out}; "
            "a(EP2) = 2, pullback coefficient = 2\n"
        )
        blown = load_config(out)
        assert blown.curve_names[-1] == "EP2"
        assert blown.discrepancy_of("EP2") == 2

    def test_unknown_point(self, capsys, tmp_path):
        src = tmp_path / "src.json"
        shutil.copyfile(catalog_root() / "A2-nodal" / "config_base.json", src)
        rc = main(
            [
                "blowup",
                "--config", str(src),
                "--point", "nope",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2
        assert "unknown point 'nope'" in capsys.readouterr().err


class TestOracle:
    def test_agreement(self, capsys):
        rc = main(
            ["oracle", "--case", "A1-nodal", "--flag", "E", "--trials", "5", "--seed", "3"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "oracle on A1-nodal/E: 5 samples (seed 3, tau = 1), "
            "0 mismatches, 0 ambiguous -> agrees\n"
        )

    def test_variant_with_pullback(self, capsys):
        rc = main(
            [
                "oracle",
                "--case", "A2-nodal",
                "--variant", "blowup",
                "--flag", "EP",
                "--trials", "5",
            ]
        )
        assert rc == 0
        assert "tau = 2" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert main(["oracle", "--case", "A1-nodal", "--flag", "C"]) == 2
        assert (
            capsys.readouterr().err
            == "error: case A1-nodal stores no flag row for 'C'\n"
        )

    @pytest.mark.parametrize("trials", ["0", "-3", "x"])
    def test_trials_must_be_positive(self, capsys, trials):
        rc = main(["oracle", "--case", "A1-nodal", "--flag", "E", "--trials", trials])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"dpdelta oracle: error: argument --trials: expected a positive integer, "
            f"got '{trials}'\n"
        )


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "decompose" in capsys.readouterr().out

    def test_missing_required_option(self, capsys):
        assert main(["decompose", "--case", "A1-nodal"]) == 2

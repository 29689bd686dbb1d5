import json
from pathlib import Path

import pytest

from polygroth.cli import main
from polygroth.tables import format_table
from polygroth.structures import zmod_add


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_structures_list(capsys):
    code, out, _ = run(capsys, "structures", "list")
    assert code == 0
    assert out.split() == ["nat0", "neg3", "odd3", "res-a-b", "matrix4"]


def test_assoc_check_sampled_passes(capsys):
    code, out, _ = run(capsys, "assoc-check", "--structure", "odd3",
                       "--mode", "sampled:1000:42")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_assoc_check_corrupted_table(tmp_path, capsys):
    text = format_table(zmod_add(3, 3)).splitlines()
    text[2] = "1"
    bad = tmp_path / "bad.tbl"
    bad.write_text("\n".join(text) + "\n")
    code, out, _ = run(capsys, "assoc-check", "--structure", f"table:{bad}",
                       "--mode", "exhaustive")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and "failed" in payload["verdict"]


def test_assoc_check_with_quiver(capsys):
    code, out, _ = run(capsys, "assoc-check", "--structure", "table:missing.tbl")
    assert code == 2
    code, out, _ = run(capsys, "assoc-check", "--structure", "neg3",
                       "--quiver", "post-ternary", "--mode", "sampled:300:7")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["assoc-check", "--structure", "nat0", "--quiver", "twisted-binary",
     "--mode", "sampled:0:1"],
    ["assoc-check", "--structure", "odd3", "--mode", "sampled:-5:1"],
    ["complete", "--structure", "nat0", "--quiver", "componentwise-2", "--bound", "5",
     "--samples", "-4"],
    ["quer", "--structure", "nat0", "--quiver", "componentwise-2", "--bound", "5",
     "--samples", "0"],
    ["universal-check", "--structure", "nat0", "--target", "integers", "--samples", "0"],
    ["assoc-check", "--structure", "matrix4", "--bound", "0"],
    ["assoc-check", "--structure", "matrix4", "--bound", "-3"],
], ids=lambda argv: " ".join(argv))
def test_counts_and_bounds_below_one_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_unknown_structure_is_usage_error(capsys):
    code, _, err = run(capsys, "assoc-check", "--structure", "nosuch")
    assert code == 2
    assert "unknown structure" in err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["assoc-check"]) == 2


def test_bad_mode_is_usage_error(capsys):
    code, _, err = run(capsys, "assoc-check", "--structure", "odd3", "--mode", "sampled:10")
    assert code == 2


def test_exhaustive_on_rule_carrier_is_usage_error(capsys):
    code, _, err = run(capsys, "assoc-check", "--structure", "odd3", "--mode", "exhaustive")
    assert code == 2
    assert "finite" in err


def test_quiver_arity_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "complete", "--structure", "neg3",
                       "--quiver", "componentwise-2")
    assert code == 2


def test_complete_negatives(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "neg3",
                       "--quiver", "componentwise-3", "--bound", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["n"] == 3
    assert [["-2", "-3"], ["-3", "-2"]] in payload["quer"]
    assert payload["report"]["group"].startswith("group")


def test_complete_matrix_single_class(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "matrix4",
                       "--quiver", "componentwise-4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 1


def test_complete_residue_reports_counterexample(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "res-7-10",
                       "--quiver", "five-to-three-intact", "--bound", "200")
    assert code == 1
    payload = json.loads(out)
    assert payload["report"]["well_defined"].startswith("counterexample")
    assert payload["quer"] == []


def test_complete_accepts_serialized_quiver(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "neg3",
                       "--quiver", "3<-3 intact=0; top=(1,T)(2,T)(3,T); bottom=(1,B)(2,B)(3,B)",
                       "--bound", "10", "--quer-mode", "componentwise")
    assert code == 0


def test_classes_odd3(capsys):
    code, out, _ = run(capsys, "classes", "--structure", "odd3", "--bound", "11")
    assert code == 0
    payload = json.loads(out)
    for rep in (["3", "1"], ["1", "3"], ["1", "1"]):
        assert rep in payload["classes"]


def test_quer_post_ternary_fixes_all(capsys):
    code, out, _ = run(capsys, "quer", "--structure", "odd3",
                       "--quiver", "post-ternary", "--bound", "21")
    assert code == 0
    payload = json.loads(out)
    assert payload["quer"] and all(rep == quer for rep, quer in payload["quer"])


def test_universal_check(capsys):
    code, out, _ = run(capsys, "universal-check", "--structure", "nat0",
                       "--target", "integers-mod-6")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, _, _ = run(capsys, "universal-check", "--structure", "nat0",
                     "--target", "integers", "--bound", "30")
    assert code == 0


def test_universal_check_rejects_nonbinary(capsys):
    code, _, err = run(capsys, "universal-check", "--structure", "odd3",
                       "--target", "integers")
    assert code == 2


def test_universal_check_unknown_target(capsys):
    code, _, err = run(capsys, "universal-check", "--structure", "nat0",
                       "--target", "rationals")
    assert code == 2


def test_json_output_is_byte_identical(capsys):
    args = ["complete", "--structure", "neg3", "--quiver", "componentwise-3",
            "--bound", "12", "--seed", "7"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_stdout_matches_golden_bytes(capsys, case):
    """Exact stdout and exit code of recorded runs: a speedup must not move a byte."""
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit_code"]
    assert out == case["stdout"]


def test_text_output_mode(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "neg3",
                       "--quiver", "componentwise-3", "--bound", "10",
                       "--output", "text")
    assert code == 0
    assert "well-defined" in out


def test_assoc_check_default_mode_uses_library_seed(capsys):
    code, out, _ = run(capsys, "assoc-check", "--structure", "odd3")
    assert code == 0
    assert json.loads(out)["mode"] == "sampled:1000:97"

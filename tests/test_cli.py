import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polygroth import errors
from polygroth.cli import build_parser, main
from polygroth.tables import format_table
from polygroth.structures import zmod_add


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """A fresh interpreter on the package source, run with argv, so the
    default warning filters apply."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def write_table(tmp_path, s, name="s.tbl"):
    path = tmp_path / name
    path.write_text(format_table(s))
    return f"table:{path}"


def test_structures_list(capsys):
    code, out, _ = run(capsys, "structures", "list")
    assert code == 0
    assert out.split() == ["nat0", "neg3", "odd3", "res-a-b", "matrix4"]


def test_module_entry_point_exit_codes():
    proc = run_fresh("-m", "polygroth.cli", "structures")
    assert (proc.returncode, proc.stdout.split(), proc.stderr) == (
        0, ["nat0", "neg3", "odd3", "res-a-b", "matrix4"], "")
    proc = run_fresh("-m", "polygroth.cli", "nosuch")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid choice: 'nosuch'" in proc.stderr


def test_table_structure_through_every_command(tmp_path, capsys):
    # a table has no recipe: witness search decides the classes, and
    # assoc-check with no --mode proves it exhaustively
    structure = write_table(tmp_path, zmod_add(5, 3))
    code, out, _ = run(capsys, "complete", "--structure", structure, "--quiver", "post-ternary")
    payload = json.loads(out)
    assert code == 0 and len(payload["classes"]) == 5
    assert payload["report"]["group"] == (
        "proved-exhaustive(75; solvability and associativity; quer at all slots; "
        "25-double domain)")
    code, out, _ = run(capsys, "assoc-check", "--structure", structure)
    assert code == 0
    assert (json.loads(out)["mode"], json.loads(out)["verdict"]) == (
        "exhaustive", "proved-exhaustive(3125)")
    code, out, _ = run(capsys, "classes", "--structure", structure)
    assert code == 0 and json.loads(out)["classes"] == [["0", str(b)] for b in range(5)]
    code, out, _ = run(capsys, "quer", "--structure", structure, "--quiver", "post-ternary")
    assert code == 0 and json.loads(out)["quer"] == payload["quer"]
    assert [rep for rep, _ in payload["quer"]] == [["0", str(b)] for b in range(5)]


def test_quer_text_reports_why_the_quer_is_unavailable(tmp_path, capsys):
    structure = write_table(tmp_path, zmod_add(5, 3))
    code, out, _ = run(capsys, "quer", "--structure", structure, "--output", "text", "--quiver",
                       "3<-3 intact=0; top=(3,B)(2,B)(3,T); bottom=(1,B)(2,T)(1,T)")
    assert code == 1
    assert out.splitlines()[1:] == [
        "  unavailable: failed(doubles associativity; 25-double domain)"]


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


def test_duplicate_table_labels_are_a_bad_table_file(tmp_path, capsys):
    dup = tmp_path / "dup.tbl"
    dup.write_text("arity 2\nsize 2\n0\n1\n1\n0\nlabels a a\n")
    code, out, err = run(capsys, "assoc-check", "--structure", f"table:{dup}",
                         "--mode", "exhaustive")
    assert code == 2 and out == ""
    assert "bad table file" in err and "labels" in err


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
    ["classes", "--structure", "matrix4", "--bound", "0"],
    ["classes", "--structure", "matrix4", "--bound", "-3"],
    # the quer follows the quiver's wiring; there is no option to pick it
    ["quer", "--structure", "nat0", "--quiver", "componentwise-2", "--bound", "5",
     "--quer-mode", "search"],
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


@pytest.mark.parametrize("error, argv", [
    ("ArityMismatch", ["complete", "--structure", "neg3", "--quiver", "componentwise-2"]),
    ("UnknownQuiver", ["complete", "--structure", "nat0", "--quiver", "nosuch"]),
    ("NotQuantized", ["complete", "--structure", "nat0", "--quiver",
                      "3<-4 intact=1; top=(1,T)(1,B)(2,T)(2,B); bottom=(3,B)"]),
    ("InvalidQuiver", ["complete", "--structure", "nat0", "--quiver",
                       "2<-2 intact=0; top=(1,T)(3,T); bottom=(1,B)(2,B)"]),
    ("NoClosedArity", ["classes", "--structure", "res-2-4"]),
    ("ExhaustiveOnInfiniteCarrier", ["assoc-check", "--structure", "odd3", "--mode", "exhaustive"]),
], ids=lambda value: value if isinstance(value, str) else None)
def test_configuration_errors_are_usage_errors(capsys, error, argv):
    # every configuration error is a UsageError, the one type the CLI maps to exit 2
    args = build_parser().parse_args(argv)
    with pytest.raises(getattr(errors, error)):
        args.func(args)
    assert issubclass(getattr(errors, error), errors.UsageError)
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


def test_complete_negatives(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "neg3",
                       "--quiver", "componentwise-3", "--bound", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["n"] == 3
    assert [["-2", "-3"], ["-3", "-2"]] in payload["quer"]
    assert payload["report"]["group"].startswith("passed-sampled(200; diagrammatic")


def test_complete_matrix_single_class(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "matrix4",
                       "--quiver", "componentwise-4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 1


def test_matrix_bound_past_the_default_block_sets_the_element_count(capsys):
    code, out, _ = run(capsys, "classes", "--structure", "matrix4", "--bound", "30")
    assert code == 0
    payload = json.loads(out)
    assert (payload["domain_size"], payload["classes"]) == (30 * 30, [["0", "0"]])


def test_complete_residue_reports_counterexample(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "res-7-10",
                       "--quiver", "five-to-three-intact", "--bound", "200")
    assert code == 1
    payload = json.loads(out)
    assert payload["report"]["well_defined"].startswith("failed(slot ")
    assert payload["quer"] == []


def test_complete_accepts_serialized_quiver(capsys):
    code, out, _ = run(capsys, "complete", "--structure", "neg3",
                       "--quiver", "3<-3 intact=0; top=(1,T)(2,T)(3,T); bottom=(1,B)(2,B)(3,B)",
                       "--bound", "10")
    assert code == 0


def test_failed_associativity_exits_1_with_nothing_on_stderr():
    # the failed verdict is in the report and the exit code, and nothing is logged
    proc = run_fresh("-c", "from polygroth.cli import entry; entry()", "complete",
                     "--structure", "nat0", "--quiver", "twisted-binary", "--bound", "6")
    assert proc.returncode == 1
    assert "failed(doubles associativity" in proc.stdout
    assert proc.stderr == ""


def test_classes_odd3(capsys):
    code, out, _ = run(capsys, "classes", "--structure", "odd3", "--bound", "11")
    assert code == 0
    payload = json.loads(out)
    for rep in (["3", "1"], ["1", "3"], ["1", "1"]):
        assert rep in payload["classes"]


def test_residue_class_of_zero_is_the_positive_multiples(capsys):
    # zero absorbs, so res-0-b leaves it out and starts at b: one class per
    # ratio p/q of multiples of 4, each named by multiples of 4
    ratios = {Fraction(p, q) for p in range(4, 41, 4) for q in range(4, 41, 4)}
    code, out, _ = run(capsys, "classes", "--structure", "res-0-4", "--bound", "40")
    assert code == 0
    reps = [(int(p), int(q)) for p, q in json.loads(out)["classes"]]
    code, out, _ = run(capsys, "complete", "--structure", "res-0-4",
                       "--quiver", "componentwise-2", "--bound", "40")
    assert code == 0
    payload = json.loads(out)
    assert [[str(p), str(q)] for p, q in reps] == [c["rep"] for c in payload["classes"]]
    assert payload["report"]["group"].startswith("passed-sampled(200; diagrammatic")
    assert len(reps) == len(ratios) == len({Fraction(p, q) for p, q in reps})
    assert {Fraction(p, q) for p, q in reps} == ratios
    assert all(p > 0 and q > 0 and p % 4 == q % 4 == 0 for p, q in reps)
    code, out, err = run(capsys, "classes", "--structure", "res-0-4", "--bound", "3")
    assert code == 2 and out == ""
    assert "limit must be >= 4" in err


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


def test_universal_check_exits_1_on_a_map_that_is_no_homomorphism(tmp_path, capsys):
    # x mod 2 is no homomorphism from Z3: (2 + 1) mod 3 = 0, but 0 + 1 = 1 mod 2;
    # the report is still emitted and names the samples asked for (the
    # default 100), not the 7 pairs that passed before the failing one
    structure = write_table(tmp_path, zmod_add(3, 2))
    code, out, err = run(capsys, "universal-check", "--structure", structure,
                         "--target", "integers-mod-2")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"structure": structure, "target": "integers-mod-2",
                               "samples": 100, "ok": False,
                               "detail": "failed(phi not a homomorphism at (2, 1))"}


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
def test_stdout_matches_golden_bytes(capsys, monkeypatch, case):
    """Exact stdout and exit code of recorded runs: a speedup must not move a byte.
    Table paths are relative to the repository root, and the output names them."""
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
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

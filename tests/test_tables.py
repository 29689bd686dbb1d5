import re

import pytest

from polygroth import (
    CheckMode,
    FiniteCarrier,
    NAryOperation,
    PolyadicStructure,
    check_total_associativity,
    zmod_add,
)
from polygroth.errors import NonMember
from polygroth.tables import format_table, parse_table, read_table


def test_round_trip_through_text():
    s = zmod_add(3, 3)
    text = format_table(s)
    back = parse_table(text)
    assert back.arity == 3
    assert len(back.carrier) == 3
    for args in [(0, 1, 2), (2, 2, 2), (1, 0, 1)]:
        assert back.op(args) == s.op(args)
    assert format_table(back) == text


def test_round_trip_through_file(tmp_path):
    s = zmod_add(4, 2)
    path = tmp_path / "z4.tbl"
    path.write_text(format_table(s))
    back = read_table(str(path))
    assert check_total_associativity(back, CheckMode.exhaustive()).ok


def test_an_argument_outside_the_table_raises_non_member():
    # the operation reads each argument's position from the carrier's index,
    # so an argument off the carrier lands on no other entry's code: on Z3,
    # (1, 4) once read (2, 1), (0, 5) read (1, 2) and (-1, 2) wrapped to (2, 2)
    s = parse_table(format_table(zmod_add(3, 2)))
    assert s.op((2, 1)) == 0
    for args in [(1, 4), (0, 5), (-1, 2)]:
        with pytest.raises(NonMember, match="is not a carrier member of table"):
            s.op(args)


def test_labels_block():
    text = "arity 2\nsize 2\n0\n1\n1\n0\nlabels e a\n"
    s = parse_table(text)
    assert s.carrier.render(0) == "e"
    assert s.carrier.render(1) == "a"
    assert format_table(s) == text


@pytest.mark.parametrize("labels", [["a b", "c"], ["", "c"], ["a", "c\t"], ["a", 7]])
def test_format_refuses_labels_the_labels_line_cannot_carry(labels):
    s = PolyadicStructure(FiniteCarrier(range(2), labels=labels),
                          NAryOperation(2, lambda t: t[0] ^ t[1]))
    with pytest.raises(ValueError, match="labels"):
        format_table(s)


def test_comments_and_blanks_ignored():
    text = "# xor table\narity 2\nsize 2\n\n0\n1\n1\n0\n"
    assert parse_table(text).op((1, 1)) == 0


@pytest.mark.parametrize("text,msg", [
    ("arity 2\n", "header"),
    ("size 2\narity 2\n0\n0\n0\n0\n", "header"),
    ("arity 2\nsize 2\n0\n1\n1\n", "result lines"),
    ("arity 2\nsize 2\n0\n1\n1\n5\n", "out of range"),
    ("arity 2\nsize 2\n0\n1\n1\nx\n", "bad result"),
    ("arity 2\nsize 2\n0\n1\n1\n0\nlabels e\n", "labels"),
    ("arity 2\nsize 2\n0\n1\n1\n0\nlabels a a\n", "labels"),
])
def test_parse_errors(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_table(text)


@pytest.mark.parametrize("lines,msg", [
    (["0", "x", "7", "0"], "bad result line 'x'"),
    (["0", "7", "x", "0"], "result index 7 out of range 0..1"),
    (["0", "-1", "x", "0"], "result index -1 out of range 0..1"),
    (["0", "1", "1", "0 1"], "bad result line '0 1'"),
])
def test_the_first_bad_result_line_in_file_order_is_named(lines, msg):
    # the body is converted in one pass, and only a failing one is walked
    # line by line, so the message names the first offending line
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        parse_table("\n".join(["arity 2", "size 2", *lines]))


def test_blank_comment_and_labels_lines_parse_around_the_body():
    text = "# xor\narity 2\n  \nsize 2\n0\n \t\n# the second row\n1\n1\n  0  \nlabels e a\n"
    s = parse_table(text)
    assert s.facts["index_table"] == ((0, 1, 1, 0), 2)
    assert s.carrier.labels == ["e", "a"] and s.op((1, 1)) == 0


@pytest.mark.parametrize("body", [["0", "1", "1"], ["0", "1", "1", "0", "1"]])
def test_a_body_of_the_wrong_length_names_the_count(body):
    with pytest.raises(ValueError, match=rf"^expected 4 result lines, got {len(body)}$"):
        parse_table("\n".join(["arity 2", "size 2", *body]))


def per_line_index_table(text):
    """The index table as the per-line parser read it: strip every line, drop
    blank and '#' lines, and convert each body line with int()."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    m, k = int(lines[0].split()[1]), int(lines[1].split()[1])
    return tuple(int(ln) for ln in lines[2:2 + k ** m]), k


def edited(text, edits):
    """text with body line i (0-based, after the two header lines) replaced."""
    lines = text.split("\n")
    for i, line in edits.items():
        lines[2 + i] = line
    return "\n".join(lines)


Z12 = format_table(zmod_add(12, 2))


@pytest.mark.parametrize("text", [
    format_table(zmod_add(3, 3)),
    Z12,
    edited(Z12, {0: "00", 1: "01", 2: "+2", 3: " 3 ", 10: "1_0", 143: "\t11"}),
    Z12.replace("\n", "\r\n"),
    edited(Z12, {5: "5\n\n# between body lines\n  \n", 6: "# 6 is not a line\n6"}),
    format_table(zmod_add(3, 2)) + "labels a# b #c\n",
])
def test_the_lookup_parse_reads_what_the_per_line_parse_read(text):
    # canonical digits are read by lookup; any other valid line (a leading
    # zero or sign, an underscore, surrounding blanks) falls back to int(),
    # and blank and comment lines are dropped, so each table reads as before
    s = parse_table(text)
    assert s.facts["index_table"] == per_line_index_table(text)
    assert all(type(v) is int for v in s.facts["index_table"][0])
    if "labels" in text:
        assert s.carrier.labels == ["a#", "b", "#c"]

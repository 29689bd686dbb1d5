"""The README's examples run as documented: the library tour's commented
values, the printed report in Verdicts and the exit codes of the CLI
examples."""

import ast
import pathlib
import re
import shlex

import pytest

from polygroth import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(section, lang):
    """The first ```lang block after the '## section' heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_tour_values():
    # each expression statement ends in a comment whose first word is the
    # str() of its value; every other statement just runs
    source = fenced_block("Library tour", "python")
    lines = source.splitlines()
    namespace, seen = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            want = lines[node.end_lineno - 1].split("#", 1)[1].split()[0].rstrip(",")
            assert str(eval(code, namespace)) == want, code
            seen.append(want)
        else:
            exec(code, namespace)
    assert seen == ["proved-exhaustive(3125)", "3", "True", "True", "[-3;-2]"]


CLI_EXAMPLES = [line for line in fenced_block("CLI", "sh").splitlines()
                if line.startswith("polygroth ") and "table:" not in line]


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_examples_exit_as_documented(line, capsys):
    # the intact-wired res-7-10 completion fails well-definedness (exit 1)
    want = 1 if "res-7-10" in line and "five-to-three-intact" in line else 0
    assert cli.main(shlex.split(line)[1:]) == want
    assert capsys.readouterr().out


def test_cli_examples_are_found():
    assert len(CLI_EXAMPLES) == 7


def test_verdicts_example_prints_as_shown(capsys):
    command, *want = fenced_block("Verdicts", "text").splitlines()
    assert command.startswith("$ polygroth ")
    assert cli.main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out.splitlines() == want

"""The README's examples run: every CLI line and every element literal."""

from __future__ import annotations

import json
import os
import re
import shlex

import pytest
from oracles import stepping_exponent

from treefrac import renorm
from treefrac.cli import main
from treefrac.thompson import FElement, TElement, VElement, parse_element
from treefrac.trees import Forest, Tree, parse_forest, parse_tree

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

#: Row name of the "Element literals" block -> (parser, type it returns).
PARSERS = {
    "tree": (parse_tree, Tree),
    "forest": (parse_forest, Forest),
    "pair": (parse_element, FElement),
    "T mark": (parse_element, TElement),
    "V perm": (parse_element, VElement),
}


def code_block(heading: str) -> list[str]:
    """The lines of the first fenced block under a `## heading`."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```[a-z]*\n(.*?)^```", text, re.M | re.S)
    assert match, f"README has no code block under '## {heading}'"
    return [line for line in match.group(1).splitlines() if line.strip()]


CLI_LINES = [line for line in code_block("CLI") if line.startswith("treefrac ")]
LITERAL_ROWS = code_block("Element literals")


def test_blocks_are_found():
    assert len(CLI_LINES) == len(code_block("CLI"))
    assert CLI_LINES and LITERAL_ROWS


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_runs(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "result"}


RENORM_LINES = [line for line in CLI_LINES if line.startswith("treefrac renorm ")]


@pytest.mark.parametrize("line", RENORM_LINES)
def test_renorm_line_prints_as_with_the_stepping_exponent(capsys, monkeypatch, line):
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(renorm, "_decimal_exponent", stepping_exponent)
    assert main(argv) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("row", LITERAL_ROWS)
def test_literal_example_parses(row):
    fields = re.split(r"\s{2,}", row)
    name, example = fields[0], fields[fields.index("e.g.") + 1]
    assert name in PARSERS, f"no parser for the README's {name!r} literals"
    parser, kind = PARSERS[name]
    value = parser(example)
    assert isinstance(value, kind)
    assert parser(str(value)) == value

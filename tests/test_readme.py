"""The README's examples run and give the values it shows.

Command lines marked ``# -> value`` run through the CLI and must print the
value; in the "Library use" block every line with a trailing comment is an
expression that must equal (and have the type of) the value in the comment.
"""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from tautrr.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
COMMANDS = re.findall(r"^tautrr (.+?)\s+# -> (\S+)$", README, flags=re.M)


def test_readme_marks_its_commands():
    assert len(COMMANDS) == 3


@pytest.mark.parametrize("argv,value", COMMANDS, ids=[argv for argv, _ in COMMANDS])
def test_readme_command_prints_its_value(capsys, monkeypatch, argv, value):
    monkeypatch.delenv("TAUTRR_CACHE", raising=False)
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out == f"{value}\n"


def test_readme_library_block_gives_its_values():
    block = README.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, shown = line.partition("#")
        if not shown:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        want = eval(shown, {"Fraction": Fraction})
        assert (type(got), got) == (type(want), want), line
        checked += 1
    assert checked == 5

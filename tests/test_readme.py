"""README's examples run as written: the Python quickstart and every
``curvedkepler ...`` command line, so the documentation cannot go stale."""

import re
import shlex
from pathlib import Path

import pytest

from curvedkepler.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


COMMANDS = [
    shlex.split(line)[1:]
    for block in _blocks("sh")
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("curvedkepler ")
]


def test_readme_has_examples():
    assert len(_blocks("python")) == 1
    assert len(COMMANDS) >= 7


def test_readme_quickstart_runs(capsys):
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out

"""The README's examples run as written.

Each `graftkit torus ...` line of the "Command line" block is run
in-process, and its standard output must be the `# ...` comment on the
same line. Each `graftkit graft|complex|verify` line of that block runs
in-process beside the README's JSON configuration, saved as the
`config.json` it names, and exits 0. The "Library sketch" block runs as
a script.
"""

import re
import shlex
from pathlib import Path

import pytest

from graftkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def block(heading_pattern, language):
    """The first fenced block of the language after the heading text."""
    found = re.search(heading_pattern + rf".*?```{language}\n(.*?)```",
                      TEXT, re.S)
    return found.group(1)


COMMAND_LINE = block(r"## Command line\s+", "sh").splitlines()
EXAMPLES = [(shlex.split(command)[1:], comment.strip())
            for command, _, comment in (line.partition("#")
                                        for line in COMMAND_LINE
                                        if line.startswith("graftkit torus "))]
RUNS = [shlex.split(line)[1:] for line in COMMAND_LINE
        if re.match(r"graftkit (graft|complex|verify) ", line)]


def test_examples_found():
    assert len(EXAMPLES) >= 4
    assert {argv[0] for argv in RUNS} == {"graft", "complex", "verify"}


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example_output(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize("argv", RUNS, ids=[argv[0] for argv in RUNS])
def test_command_runs(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "config.json").write_text(
        block(r"Configuration files are\s+JSON:\s+", "json"),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_library_sketch_runs(capsys):
    exec(compile(block(r"## Library sketch\s+", "python"), "README", "exec"),
         {})
    assert capsys.readouterr().out

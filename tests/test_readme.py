"""The README's command-line examples run as written.

Each `graftkit torus ...` line of the "Command line" block is run
in-process, and its standard output must be the `# ...` comment on the
same line.
"""

import re
import shlex
from pathlib import Path

import pytest

from graftkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_examples():
    """(argv, expected output) for each torus line of the block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S)
    examples = []
    for line in block.group(1).splitlines():
        if line.startswith("graftkit torus "):
            command, _, comment = line.partition("#")
            examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


EXAMPLES = command_line_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example_output(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == expected

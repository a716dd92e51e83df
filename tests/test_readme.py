"""The values README.md prints: each `adeles2d` command of its Command line
block followed by a `# -> v` line prints v first, and each `print(...)`
line of its python blocks marked `# -> v` prints v."""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from adeles2d.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
MARK = re.compile(r"#\s*->\s*(.*?)\s*$")


def _commands(text):
    """(argv, v) for each `adeles2d` line of the Command line block that
    the line `# -> v` follows."""
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    return [(shlex.split(line)[1:], MARK.match(after).group(1))
            for line, after in zip(lines, lines[1:])
            if line.startswith("adeles2d ") and MARK.match(after)]


def _python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, re.S)


def _marked_prints(code):
    """{line number: v} for each `print(...)` line marked `# -> v`."""
    return {n: m.group(1)
            for n, line in enumerate(code.splitlines(), 1)
            if line.startswith("print(") and (m := MARK.search(line))}


def _printed(code):
    """{line number: what the print on that line wrote}, running the code
    with a print that records where it was called from."""
    out = {}

    def record(*args):
        line = sys._getframe(1).f_lineno
        out[line] = out.get(line, "") + " ".join(map(str, args))

    exec(compile(code, "README.md", "exec"), {"print": record})
    return out


COMMANDS = _commands(README)
BLOCKS = _python_blocks(README)


def test_the_readme_marks_what_it_prints():
    assert len(COMMANDS) >= 4, COMMANDS
    assert BLOCKS and all(_marked_prints(code) for code in BLOCKS), BLOCKS


@pytest.mark.parametrize("argv, want", COMMANDS,
                         ids=[" ".join(argv[:1]) for argv, _ in COMMANDS])
def test_a_readme_command_prints_its_marked_value(argv, want):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, out.getvalue())
    assert out.getvalue().splitlines()[0] == want, (argv, out.getvalue())


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_a_readme_python_block_prints_its_marked_values(index):
    code = BLOCKS[index]
    printed = _printed(code)
    for line, want in _marked_prints(code).items():
        assert printed.get(line) == want, (line, printed.get(line), want)

"""The README's library example runs and its comments state what it computes, and
every command it shows parses."""

import re
import shlex
from pathlib import Path

from projeval.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_claims_hold(capsys):
    names = {}
    exec(library_example(), names)
    assert capsys.readouterr().out.splitlines()[0] == "0.5 -0 1.25"


def readme_commands() -> list[list[str]]:
    """Every `projeval ...` command of the README's code blocks, continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("projeval ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"solve", "example1", "sweep", "heatmap"}
    for argv in commands:
        build_parser().parse_args(argv)  # a ValueError names a stale option

"""The README's library example runs and its comments state what it computes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_claims_hold(capsys):
    names = {}
    exec(library_example(), names)
    assert names["td"].weights.tolist() == [0.5]
    assert names["br"].weights.tolist() == [0.0]
    assert names["rep"].bound == 1.25
    assert capsys.readouterr().out.splitlines()[0] == "[0.5] [0.] 1.25"
